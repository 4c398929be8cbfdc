(** Explicit-state view of a protocol's full transition system.

    The paper analyses systems [S = (C, ->)] whose initial set is all
    of [C]. This module materializes [C] through {!Encoding} and
    exposes, per configuration, every step each scheduler class
    allows. Scheduler classes replace concrete schedulers for
    exhaustive checking: a central daemon can activate any single
    enabled process, a distributed daemon any non-empty subset, and the
    synchronous daemon exactly the full enabled set. *)

type sched_class = Central | Distributed | Synchronous

val sched_classes : (string * sched_class) list
(** Every class under its name: ["central"], ["distributed"],
    ["synchronous"]. *)

val sched_class_name : sched_class -> string
val pp_sched_class : Format.formatter -> sched_class -> unit

type 'a t

val build : ?max_configs:int -> 'a Protocol.t -> 'a t
(** Prepares the space. [max_configs] (default [2_000_000]) guards
    against accidental exponential blow-ups; exceeding it raises
    [Invalid_argument]. Nothing is expanded eagerly beyond the
    encoding. *)

val try_build : ?max_configs:int -> 'a Protocol.t -> ('a t, string) result
(** {!build} that reports a budget overrun as [Error] instead of
    raising, for callers that degrade gracefully. *)

type 'a strategy = [ `Exact of 'a t | `Onthefly of 'a t | `Montecarlo of string ]

val plan :
  ?max_configs:int -> ?onthefly_configs:int -> 'a Protocol.t -> 'a strategy
(** Pick the strongest analysis the budgets allow. [`Exact space]: the
    space fits [max_configs] (default [2_000_000]) and the explicit
    {!Checker} applies. [`Onthefly space]: the encoding fits
    [onthefly_configs] (default [1_000_000_000]) but full enumeration
    does not — {!Onthefly} exploration from given initial
    configurations is the strongest sound option. [`Montecarlo reason]:
    the space is too large even to encode safely; only simulation
    ({!Montecarlo}) remains, and [reason] says why. *)

val protocol : 'a t -> 'a Protocol.t

val encoding : 'a t -> 'a Encoding.t
(** The encoding of the *full* configuration space — also for
    quotients, whose configuration codes index representatives, not
    encoding codes. Use {!representative} to translate. *)

val count : 'a t -> int
(** Number of configurations: [|C|] for a full space, the number of
    symmetry orbits for a quotient. *)

(** {1 Symmetry quotients} *)

val quotient : ?relabel:(perm:int array -> int -> 'a -> 'a) -> 'a t -> 'a t
(** The orbit quotient of a full space under its validated symmetry
    group (see {!Symmetry.build}, which receives [relabel]): configs are
    orbit representatives and transitions are base transitions with
    canonicalized targets. Returns the space itself when the group is
    trivial, so callers can request quotients unconditionally. The
    result is memoized on the base space per [relabel] hook, compared
    by physical identity: a call with a different hook (or with the
    hook omitted) rebuilds rather than returning a quotient validated
    under another hook, and passing a freshly allocated closure simply
    misses the memo. Quotienting a quotient is the identity. Runs
    under a ["checker.quotient"] span and bumps the [symmetry.*]
    counters. *)

val is_quotient : 'a t -> bool

val base : 'a t -> 'a t
(** The full space a quotient was built from; the space itself
    otherwise. *)

val symmetry_order : 'a t -> int
(** Order of the validated group a quotient divides by; 1 for a full
    space. *)

val orbit_sizes : 'a t -> int array option
(** Per-representative orbit sizes of a quotient ([None] for a full
    space). Summing them yields [count (base t)]. Fresh array. *)

val representative : 'a t -> int -> int
(** The full-space encoding code behind configuration [c]: the orbit
    representative for a quotient, [c] itself for a full space. *)

val quotient_view : 'a t -> ('a t * int array * int array * int array) option
(** [(base, reps, rep_of, sizes)] of a quotient: representative codes,
    the full-code-to-representative-index map, and orbit sizes. The
    arrays are the quotient's own — treat them as read-only. [None] for
    a full space. Intended for consumers that must consult the base
    relation (e.g. closure checking, lumpability audits). *)

val uid : 'a t -> int
(** Process-unique identity of this space, assigned at {!build}.
    Expansion caches key on [(uid, class)] so two builds of the same
    protocol are never conflated. *)

val config : 'a t -> int -> 'a array
(** Decode a configuration code. *)

val code : 'a t -> 'a array -> int

val enabled : 'a t -> int -> int list
(** Enabled processes of a configuration, by code. *)

val legitimate_set : 'a t -> 'a Spec.t -> bool array
(** Bitmap over codes of the spec's legitimate configurations. *)

(** {1 Expansion kernel}

    The one enumeration of the steps a class allows. Per configuration
    it evaluates every guard once into reusable scratch arrays, then
    walks the activation groups in a fixed order: enabled singletons in
    process order (central), the full enabled set (synchronous), or
    every non-empty subset of the enabled processes in ascending
    bitmask order (distributed) — so under the distributed and
    synchronous classes the last group is the whole enabled set. Each
    group is a process bitmask plus its successor codes and weights:
    the product of the members' local distributions, last process
    varying fastest, equal codes merged in first-occurrence order
    (before quotient projection), as {!Protocol.step_outcomes} does.
    Nothing is allocated per group. A kernel is scratch for one domain;
    {!transitions}, {!fold_transitions} and {!successors} wrap it as
    lists. *)

type 'a kernel

type enabled_table
(** Which action each process of each configuration enabled, recorded
    by one pass over a space so that a second pass evaluates no guard
    (one byte per configuration and process). *)

val enabled_table : 'a t -> enabled_table
(** A fresh table for [t]. Raises [Invalid_argument] for a protocol
    with more than 255 actions. *)

val kernel : ?table:enabled_table -> 'a t -> sched_class -> 'a kernel
(** Fresh scratch for enumerating [t] under [cls]; [table] is the one
    {!scan} fills and {!reload} reads. Raises [Invalid_argument] when
    the protocol has more processes than an [int] bitmask holds
    ([Sys.int_size - 1]). *)

val load : 'a kernel -> int -> unit
(** [load k c] evaluates the guards and statements of configuration [c]
    and rewinds the group cursor. Raises [Invalid_argument] under the
    distributed class when more than 20 processes are enabled. *)

val scan : 'a kernel -> int -> unit
(** [scan k c] is the counting half of {!load}: it evaluates the guards
    of [c], records the enabled actions in the kernel's table, and
    evaluates statements only for a randomized protocol (a deterministic
    one has one outcome per enabled process). Afterwards only
    {!group_count} and {!successor_count} may be used. *)

val reload : 'a kernel -> int -> unit
(** [reload k c] is {!load} with the enabled actions read from the
    kernel's table, where {!scan} recorded them: only statements are
    evaluated. Raises [Invalid_argument] when a protocol declared
    deterministic returns a distribution of several outcomes, which
    would contradict the counts {!scan} reported. *)

val group_count : 'a kernel -> int
(** Groups of the loaded configuration; 0 for a terminal one. *)

val successor_count : 'a kernel -> int
(** Sum of {!outcome_count} over the loaded configuration's groups,
    without moving the cursor. *)

val next : 'a kernel -> bool
(** Advance to the next group; [false] once all are visited. *)

val group_mask : 'a kernel -> int
(** Activated processes of the current group, bit [p] for process [p]. *)

val outcome_count : 'a kernel -> int
(** Successors of the current group. *)

val blit_outcomes : 'a kernel -> int array -> float array -> int -> unit
(** [blit_outcomes k codes weights pos] copies the current group's
    successor codes and weights to [codes] and [weights] at [pos]. *)

val processes_of_mask : int -> int list
(** The processes of a {!group_mask}, ascending. *)

(** {1 List views} *)

val transitions : 'a t -> sched_class -> int -> (int list * (int * float) list) list
(** [transitions space cls c] lists the steps the class allows from
    configuration [c]: each element is the activated subset together
    with the distribution over successor codes (singleton distributions
    for deterministic protocols). Terminal configurations have no
    transitions. *)

val fold_transitions :
  'a t ->
  sched_class ->
  int ->
  init:'acc ->
  f:('acc -> int list -> (int * float) list -> 'acc) ->
  'acc
(** Streamed version of {!transitions}: calls [f] once per allowed
    step, in the same order, without materializing the subset list —
    under the distributed class this avoids building all [2^k - 1]
    activation subsets up front. *)

val successors : 'a t -> sched_class -> int -> int list
(** De-duplicated successor codes over all subsets and outcomes. *)

val subset_count : int -> int
(** [subset_count k] = number of non-empty subsets of a [k]-set; guards
    in callers that want to bound distributed-class fan-out. *)
