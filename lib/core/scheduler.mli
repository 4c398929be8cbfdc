(** Schedulers (daemons) for simulation runs.

    A scheduler is the paper's adversary/friend: at each step it picks
    a non-empty subset of the enabled processes to execute. The
    variants here cover the paper's taxonomy — central and distributed
    (Section 2), synchronous (Theorem 1), the randomized schedulers of
    Definition 6 (Dasgupta-Ghosh-Xiao), plus deterministic adversary
    strategies used to build the counter-examples of Theorem 6 and
    Figure 3.

    Schedulers used for *exhaustive checking* are not represented here:
    the checker branches over every choice a scheduler class allows
    (see {!Statespace.sched_class}). *)

type 'a t = {
  name : string;
  choose : Stabrng.Rng.t -> step:int -> cfg:'a array -> enabled:int list -> int list;
      (** Must return a non-empty subset of [enabled] whenever [enabled]
          is non-empty. [step] counts from 0; [cfg] lets adversarial
          strategies inspect the configuration. *)
}

val central_random : unit -> 'a t
(** Definition 6, central flavor: one enabled process, uniformly. *)

val distributed_random : unit -> 'a t
(** Definition 6, distributed flavor: a uniformly random non-empty
    subset of the enabled processes. *)

val synchronous : unit -> 'a t
(** All enabled processes, every step (Herman's synchronous daemon). *)

val central_first : unit -> 'a t
(** Deterministic central daemon: lowest-id enabled process. *)

val round_robin : unit -> 'a t
(** Central daemon that cycles through process ids, activating the next
    enabled process at or after the last activated id + 1. Weakly fair.
    Stateful: each call to [round_robin ()] gets a fresh cursor. *)

val adversary : name:string -> ('a array -> int list -> int list) -> 'a t
(** [adversary ~name strategy] wraps a deterministic strategy
    [strategy cfg enabled]. The result is checked: it must be a
    non-empty subset of [enabled]. *)

val crash : ?wake_p:float -> failed:int list -> 'a t -> 'a t
(** [crash ~failed sched] silences the processes of [failed]: they are
    removed from the enabled set before [sched] chooses. With
    [wake_p = 0.] (default) the crash is permanent; when every enabled
    process is crashed the wrapper returns the empty set and the engine
    stops the run as {!Engine.Stalled}. With [0 < wake_p < 1] the crash
    is intermittent: each crashed process independently wakes for a
    given step with probability [wake_p] (re-drawn until some process
    survives, so intermittent runs never stall). This is the simulation
    face of crash faults; for exhaustive verdicts on the induced
    sub-protocol use {!Faults.crash_protocol}. *)

val probabilistic_gate : float -> 'a t -> 'a t
(** [probabilistic_gate p sched] filters the chosen subset, keeping each
    process independently with probability [p] (re-drawing until the
    kept set is non-empty). Models unreliable activation. *)

(** {1 Named schedulers} *)

type kind = Central_random | Distributed_random | Synchronous | Central_first | Round_robin
(** The parameterless schedulers above, as data (e.g. a CLI choice). *)

val make : kind -> 'a t
(** A fresh instance ({!round_robin} is stateful). *)

val kinds : (string * kind) list
(** Every kind under its scheduler's [name], e.g. ["central-random"]. *)

val of_class : Statespace.sched_class -> 'a t
(** The simulation face of a scheduler class: its uniform randomized
    daemon (Definition 6) — {!central_random}, {!distributed_random} or
    {!synchronous}. *)
