(** Name-based protocol construction for the CLI and the examples.

    A protocol instance is identified by a name and a topology
    argument, e.g. ["token-ring"] with [n = 6], or ["leader-tree"] on
    ["star:7"]. State types differ per protocol, so instances are
    packed existentially together with their specification. *)

type entry =
  | Entry : {
      label : string;
      protocol : 'a Stabcore.Protocol.t;
      spec : 'a Stabcore.Spec.t;
      relabel : (perm:int array -> int -> 'a -> 'a) option;
          (** state translation under graph automorphisms — pass to
              {!Stabcore.Statespace.quotient}; [None] means states
              embed no neighbor indexes and the identity is correct *)
      describe : string;
    }
      -> entry

val topology_of_string : string -> Stabgraph.Graph.t
(** Parses ["chain:4"], ["star:5"], ["ring:6"], ["random:8:seed"]
    (random tree); a bare integer [N] means ["ring:N"]. Raises
    [Invalid_argument] naming the topology on malformed input or a
    degenerate size. *)

val find : name:string -> topology:string -> ?transformed:bool -> unit -> entry
(** [find ~name ~topology ()] builds the instance. Known names:
    ["token-ring"], ["leader-tree"], ["two-bool"], ["centers"],
    ["center-leader"], ["dijkstra"], ["herman"], ["coloring"],
    ["matching"]. Ring protocols read
    the size from a ["ring:<n>"] (or bare integer) topology; tree
    protocols need a tree topology. With [transformed:true] the entry
    is passed through {!Stabcore.Transformer.randomize} and the spec is
    lifted. Raises [Invalid_argument] for unknown names or unusable
    topologies. *)

val names : string list
(** Supported protocol names, sorted. *)
