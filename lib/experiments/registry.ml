open Stabcore

type entry =
  | Entry : {
      label : string;
      protocol : 'a Protocol.t;
      spec : 'a Spec.t;
      relabel : (perm:int array -> int -> 'a -> 'a) option;
          (* state translation under graph automorphisms, for symmetry
             quotients; [None] = states carry no neighbor indexes *)
      describe : string;
    }
      -> entry

let topology_of_string s =
  let bad why = invalid_arg (Printf.sprintf "Registry: bad topology %S (%s)" s why) in
  let shapes = "expected ring:N, chain:N, star:N, random:N:SEED or N" in
  let int x = match int_of_string_opt x with Some i -> i | None -> bad shapes in
  (* The graph constructors reject degenerate sizes; their message
     gains the topology that asked for it. *)
  let graph make size = try make size with Invalid_argument why -> bad why in
  match String.split_on_char ':' s with
  | [ "chain"; n ] -> graph Stabgraph.Graph.chain (int n)
  | [ "star"; n ] -> graph Stabgraph.Graph.star (int n)
  | [ "ring"; n ] | [ n ] -> graph Stabgraph.Graph.ring (int n)
  | [ "random"; n; seed ] ->
    graph (Stabgraph.Graph.random_tree (Stabrng.Rng.create (int seed))) (int n)
  | _ -> bad shapes

let ring_of topology =
  let g = topology_of_string topology in
  if not (Stabgraph.Graph.is_ring g) then
    invalid_arg "Registry: this protocol needs a ring topology (e.g. ring:6)";
  g

let tree_of topology =
  let g = topology_of_string topology in
  if not (Stabgraph.Graph.is_tree g) then
    invalid_arg "Registry: this protocol needs a tree topology (e.g. chain:4, star:5, random:8:1)";
  g

let transform (Entry e) =
  Entry
    {
      label = "trans(" ^ e.label ^ ")";
      protocol = Transformer.randomize e.protocol;
      spec = Transformer.lift_spec e.spec;
      relabel = None;
      describe = e.describe ^ " [transformed per Section 4]";
    }

(* A protocol built on a graph of the given [shape], labelled
   [name(n=N)]; [relabel] receives the graph. *)
let on ?relabel shape name describe make =
  ( name,
    fun topology ->
      let g = shape topology in
      let protocol, spec = make g in
      Entry
        {
          label = Printf.sprintf "%s(n=%d)" name (Stabgraph.Graph.size g);
          protocol;
          spec;
          relabel = Option.map (fun r -> r g) relabel;
          describe;
        } )

(* Ring protocols are parameterized by the ring size alone. *)
let on_ring name describe make =
  on ring_of name describe (fun g -> make (Stabgraph.Graph.size g))

let protocols =
  let open Stabalgo in
  [
    on_ring "token-ring" "Algorithm 1: weak-stabilizing token circulation on anonymous rings"
      (fun n -> (Token_ring.make ~n, Token_ring.spec ~n));
    on tree_of "leader-tree" ~relabel:Leader_tree.relabel
      "Algorithm 2: weak-stabilizing leader election on anonymous trees" (fun g ->
        (Leader_tree.make g, Leader_tree.spec g));
    ( "two-bool",
      fun _ ->
        Entry
          {
            label = "two-bool";
            protocol = Two_bool.make ();
            spec = Two_bool.spec;
            relabel = None;
            describe = "Algorithm 3: two-process rendezvous requiring synchrony";
          } );
    on tree_of "centers" "BGKP self-stabilizing tree center finding" (fun g ->
        (Centers.make g, Centers.spec g));
    on tree_of "center-leader" "log N-bit weak-stabilizing leader election via tree centers"
      (fun g -> (Center_leader.make g, Center_leader.spec g));
    on_ring "dijkstra" "Dijkstra's K-state self-stabilizing rooted token ring" (fun n ->
        (Dijkstra_kstate.make ~n (), Dijkstra_kstate.spec ~n));
    on_ring "herman" "Herman's probabilistic synchronous token ring" (fun n ->
        (Herman.make ~n, Herman.spec ~n));
    on_ring "dijkstra-3state"
      "Dijkstra's three-state mutual exclusion (two distinguished machines)" (fun n ->
        (Dijkstra_three.make ~n, Dijkstra_three.spec ~n));
    on topology_of_string "coloring"
      "greedy (Delta+1)-coloring: self-stabilizing centrally, weak distributed" (fun g ->
        (Coloring.make g, Coloring.spec g));
    on topology_of_string "matching" "Hsu-Huang maximal matching (determinized)" (fun g ->
        (Matching.make g, Matching.spec g));
    on topology_of_string "bfs-tree" "rooted self-stabilizing BFS spanning tree" (fun g ->
        (Bfs_tree.make g, Bfs_tree.spec g));
    on topology_of_string "mis"
      "maximal independent set: self-stabilizing centrally, weak distributed" (fun g ->
        (Mis.make g, Mis.spec g));
  ]

let find ~name ~topology ?(transformed = false) () =
  match List.assoc_opt name protocols with
  | None -> invalid_arg ("Registry: unknown protocol " ^ name)
  | Some build ->
    let entry = build topology in
    if transformed then transform entry else entry

let names = List.sort compare (List.map fst protocols)
