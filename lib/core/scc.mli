(** Strongly connected components and reachability in one forward pass.

    One iterative Tarjan decomposition over a compressed-sparse-row
    graph, shared by {!Checker} (certain and possible convergence, the
    fairness components) and {!Markov} (the probability-1 check and the
    solver's blocks). A byte mask splits the states into three kinds:
    {e alive} states are decomposed, {e target} states are not but mark
    every alive state with an edge into them as reaching the target, and
    {e outside} states are ignored. One pass yields the components of
    the alive subgraph sinks-first and, per alive state, whether some
    path through alive states ends in a target — "can reach [L]" with no
    reverse graph.

    The pass keeps its index, low-link, cursor and stack state in flat
    [int] arrays and [Bytes], so it allocates nothing per edge, state
    or component. *)

type mask = Bytes.t
(** One byte per state: {!outside}, {!target} or {!alive}. *)

val outside : char
val target : char
val alive : char

val avoiding : bool array -> mask
(** [avoiding targets]: the marked states are targets, every other
    state is alive — the mask of "every state outside [L] reaches [L]". *)

type t = private {
  mask : mask;  (** the mask the pass ran over *)
  order : int array;
      (** the alive states, component by component; entries from
          [block_off.(blocks)] on are unused *)
  block_off : int array;
      (** component [b] is [order.(block_off.(b)) .. order.(block_off.(b + 1)) - 1] *)
  blocks : int;  (** number of components *)
  reach : Bytes.t;  (** per state, ['\001'] iff it reaches a target *)
  cyclic : bool;
      (** some component has several members or a self-loop: the alive
          subgraph has a cycle *)
}
(** Components come out in Tarjan completion order, sinks first: every
    edge out of a component lands inside it, in an earlier component,
    or on a non-alive state. A component's members are in the order the
    depth-first search reached them, its root first. The arrays are the
    caller's to reorder (e.g. sorting each component in place). *)

val decompose : ?via:int array -> off:int array -> cols:int array -> mask -> t
(** [decompose ~off ~cols mask] decomposes the alive states of the graph
    whose state [c] has successors [cols.(off.(c)) .. cols.(off.(c + 1) - 1)],
    roots taken in ascending code order and edges in row order. With
    [~via] the row of [c] is [off.(via.(c)) .. off.(via.(c + 1)) - 1]
    instead (the checker's packed graph, whose rows are ranges of
    transition groups). The mask's length is the state count. *)

val reached : t -> int -> bool
(** Whether an alive state reaches a target state. *)

val first_unreached : t -> int option
(** The lowest alive state that reaches no target. *)
