(** Sharded, crash-resumable execution of a campaign.

    Cells are fanned out across OCaml 5 [Domain]s pulling from a shared
    queue. Each cell attempt runs under a {!Stabcore.Cancel} token
    whose deadline enforces the per-cell wall-clock timeout. The cell
    runs as a {!Stabexp.Query} on the rungs of {!Stabexp.Eval.ladder}:
    a timeout, or a rung that cannot answer, demotes it to the next
    rung; transient failures ([Sys_error]) retry on the same
    rung with exponential backoff + jitter (seeded, deterministic), and
    a cell that crashes its worker twice is quarantined — reported,
    never aborting the campaign. Finished cells append fsync'd
    checkpoint records ({!Checkpoint}); a rerun of the same campaign
    file skips them, and {!request_drain} (wired to SIGINT/SIGTERM by
    the CLI) stops workers at the next poll point, leaving unfinished
    cells for the resume.

    Per-cell results are a pure function of the cell spec and the
    campaign seed — never of shard assignment or execution order — so
    an interrupted-then-resumed campaign reports byte-identically to an
    uninterrupted one. *)

type cell_outcome = {
  cell : Campaign.cell;
  hash : string;
  status : Checkpoint.status;
  mode : string;  (** ladder rung that produced the result *)
  retries : int;  (** attempts beyond the first *)
  payload : Stabobs.Json.t;
  error : string option;
  duration_ns : int;  (** 0 for cells replayed from the checkpoint *)
  from_checkpoint : bool;
}

type stats = {
  cells : int;
  executed : int;
  skipped : int;  (** replayed from the checkpoint *)
  unfinished : int;  (** drained before completing; a resume picks them up *)
  done_ : int;
  degraded : int;
  timed_out : int;
  quarantined : int;
  retried : int;  (** total retry attempts across all cells *)
}

type options = {
  domains : int;  (** worker domains (including the calling one) *)
  checkpoint : string option;  (** checkpoint file path; [None] disables *)
  fresh : bool;  (** truncate the checkpoint instead of resuming *)
  timeout_ms : int option;  (** overrides the campaign's per-cell timeout *)
  sleep : float -> unit;  (** backoff sleeper (seconds); injectable for tests *)
  stop_after : int option;
      (** test hook: request a drain after this many checkpoint appends
          — simulates a kill between two cells deterministically *)
  flight : string option;
      (** base path for flight-dump artifacts; [None] (default)
          disables them. With [Some base], the runner refreshes
          {!rolling_dump_path}[ base] after every settled cell (an
          atomic-rename write, so a SIGKILL always leaves a parseable
          dump) and writes {!cell_dump_path} for every quarantined or
          timed-out cell while the rings still hold its final events.
          The CLI passes the checkpoint path minus its extension so
          the dumps sit next to the checkpoint they explain. *)
}

val default_options : unit -> options
(** {!Stabcore.Pool.default_width} workers, no checkpoint, resume
    semantics, campaign timeout, [Unix.sleepf], no flight dumps. *)

val rolling_dump_path : string -> string
(** [base ^ ".flight.jsonl"] — the crash-surviving dump refreshed
    after every settled cell. *)

val cell_dump_path : string -> string -> string
(** [cell_dump_path base hash] = [base ^ ".flight-" ^ hash12 ^
    ".jsonl"] where [hash12] is the first 12 characters of the cell
    hash — the per-cell post-mortem written on quarantine / timeout. *)

val request_drain : unit -> unit
(** Ask the campaign to stop gracefully: running cells are cancelled at
    their next poll, no new cell starts, checkpoints and sinks flush.
    Safe from a signal handler (atomic stores only). *)

val draining : unit -> bool

(** {1 Live progress}

    The status server ({!Status}) polls these from its accept-loop
    domain while workers run. Every field is read from its own
    [Atomic.t], so values are never torn; the record as a whole is a
    best-effort instant, not a barrier. *)

type heartbeat = {
  hb_worker : int;  (** worker slot index, 0 = the calling domain *)
  hb_domain : int;  (** [Domain.self] of the worker, -1 before it starts *)
  hb_cell : (string * int) option;
      (** cell label and start instant (ns, monotonic) of the cell the
          worker is executing; [None] when idle or between cells *)
}

type progress = {
  p_name : string;
  p_started_ns : int;  (** monotonic, {!Stabobs.Obs.now_ns} clock *)
  p_finished_ns : int option;  (** set once {!run} returns *)
  p_total : int;
  p_workers : int;
  p_done : int;
  p_degraded : int;
  p_timed_out : int;
  p_quarantined : int;
  p_skipped : int;  (** replayed from the checkpoint *)
  p_retried : int;
  p_executed : int;  (** cells actually run this process (not replayed) *)
  p_executed_ns : int;  (** summed wall time of executed cells *)
  p_draining : bool;
}

val progress : unit -> progress option
(** [None] until the first {!run} of the process; afterwards the
    latest run's progress, still readable after it finished. *)

val heartbeats : unit -> heartbeat list
(** One entry per worker slot of the latest run, in slot order. *)

val backoff_delays : seed:int -> base_ms:int -> attempts:int -> float list
(** The deterministic backoff schedule, in seconds: delay [i] is
    [base_ms * 2^i * u_i / 1000] with [u_i] uniform in [0.5, 1.5) drawn
    from a generator seeded with [seed]. *)

val run : ?options:options -> Campaign.t -> cell_outcome list * stats
(** Execute (or resume) the campaign. The outcome list is in campaign
    cell order, containing every finished and checkpoint-replayed cell;
    drained-away cells are only counted in [stats.unfinished]. Resets
    the drain flag on entry. *)

val report : Campaign.t -> cell_outcome list -> Stabexp.Report.t
(** One row per outcome (campaign order): label, status, mode, retries
    and a payload digest. Deliberately excludes durations and
    checkpoint provenance so resumed and uninterrupted runs of the same
    campaign render byte-identical tables. *)

val summary_line : stats -> string
