(** The evaluator: answers a {!Query.t} on one rung of the degradation
    ladder.

    Exhaustive analysis is exact but bounded by the size of the
    configuration space; on-the-fly exploration answers relative to
    random initial configurations and scales further; sampling always
    applies. The CLI subcommands run one rung and report its failure;
    the campaign runner walks {!ladder}, demoting a cell when a rung
    cannot answer or runs out of time. An answer is a pure function of
    the query: initial configurations and sampled runs draw from a
    generator seeded with [seed]. *)

val resolve : Query.t -> Registry.entry
(** The query's protocol instance: a {!Registry} entry or a loaded
    [.gcp] program on [topology], transformed if asked, crash-faulted
    on [crash] (the label then says so). Raises [Invalid_argument] or
    [Failure] on an unknown protocol, a bad topology or an unloadable
    program. *)

type rung = Exact | Onthefly | Montecarlo

val rung_label : rung -> string
(** ["exact"], ["onthefly"], ["montecarlo"]. *)

val ladder : Query.t -> rung list
(** The rungs that can answer the query, strongest first: [Check]
    walks all three; [Markov] skips the on-the-fly rung (hitting times
    need the whole chain); [Reach] only explores on the fly and
    [Montecarlo] only samples. *)

module Result = Query.Result

val run : Query.t -> rung -> (Result.t, string) result
(** Answer the query on one rung, or say why the rung cannot: the
    space exceeds [max_configs] (exact) or its encoding overflows
    (exact, on-the-fly), or a sparse Markov solve ran out of sweeps
    without [allow_nonconverged]. A non-[Reach] query explores on the
    fly from 5 initial configurations within [max_configs] states.
    Raises as {!resolve} does, and [Invalid_argument] for the exact
    rung of a [Reach] or [Montecarlo] query. *)
