(* Independent row reference for the expansion kernel and the Markov
   pack. Each configuration's steps are rebuilt from
   [Protocol.step_outcomes] over explicitly enumerated activation
   subsets (central: enabled singletons; synchronous: the enabled set;
   distributed: every non-empty subset, ascending bitmask order over
   the enabled processes), successors mapped through [Statespace.code].
   The result must equal [Statespace.transitions], and its weighted and
   merged forms must equal [Checker.weighted_row] and [Markov.row] —
   for every bundled protocol (plain and transformed, so deterministic,
   mixed and fully randomized rows), under every scheduler class, on
   the full space and on the symmetry quotient. *)

open Stabcore

let classes = [ Statespace.Central; Statespace.Distributed; Statespace.Synchronous ]

let activation_subsets cls enabled =
  match cls with
  | Statespace.Central -> List.map (fun p -> [ p ]) enabled
  | Statespace.Synchronous -> if enabled = [] then [] else [ enabled ]
  | Statespace.Distributed ->
    List.init
      ((1 lsl List.length enabled) - 1)
      (fun i -> List.filteri (fun j _ -> ((i + 1) lsr j) land 1 = 1) enabled)

let reference_transitions space cls c =
  let p = Statespace.protocol space in
  let cfg = Statespace.config space c in
  List.map
    (fun active ->
      ( active,
        List.map
          (fun (cfg', w) -> (Statespace.code space cfg', w))
          (Protocol.step_outcomes p cfg active) ))
    (activation_subsets cls (Protocol.enabled_processes p cfg))

(* Each group is drawn with probability 1/#groups. *)
let reference_weighted transitions =
  let share = 1.0 /. float_of_int (List.length transitions) in
  List.concat_map (fun (_, outs) -> List.map (fun (c', w) -> (c', w *. share)) outs)
    transitions

(* Duplicates summed in arrival order, targets ascending; a terminal
   configuration is absorbing. *)
let reference_markov c weighted =
  match weighted with
  | [] -> [ (c, 1.0) ]
  | _ ->
    let merged =
      List.fold_left
        (fun acc (c', w) ->
          match List.assoc_opt c' acc with
          | Some w' -> (c', w' +. w) :: List.remove_assoc c' acc
          | None -> (c', w) :: acc)
        [] weighted
    in
    List.sort (fun (a, _) (b, _) -> Int.compare a b) merged

let randomization = function
  | Statespace.Central -> Markov.Central_uniform
  | Statespace.Distributed -> Markov.Distributed_uniform
  | Statespace.Synchronous -> Markov.Sync

let row_to_string row =
  String.concat "; " (List.map (fun (c, w) -> Printf.sprintf "%d:%h" c w) row)

let check_space what space =
  List.iter
    (fun cls ->
      let where c =
        Printf.sprintf "%s, %s, config %d" what (Statespace.sched_class_name cls) c
      in
      let g = Checker.expand space cls in
      let chain = Markov.of_space space (randomization cls) in
      for c = 0 to Statespace.count space - 1 do
        let ts = reference_transitions space cls c in
        if Statespace.transitions space cls c <> ts then
          Alcotest.failf "%s: transitions differ from the reference" (where c);
        let weighted = reference_weighted ts in
        let got = Checker.weighted_row g c in
        if got <> weighted then
          Alcotest.failf "%s: weighted row [%s], reference [%s]" (where c)
            (row_to_string got) (row_to_string weighted);
        let got = Markov.row chain c and want = reference_markov c weighted in
        if got <> want then
          Alcotest.failf "%s: Markov row [%s], reference [%s]" (where c)
            (row_to_string got) (row_to_string want)
      done)
    classes

let check_protocol ?relabel what protocol =
  let space = Statespace.build protocol in
  check_space what space;
  let q = Statespace.quotient ?relabel space in
  if Statespace.is_quotient q then check_space (what ^ " quotient") q

let check_entry name topology ~transformed () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name ~topology ~transformed ()
  in
  check_protocol ?relabel:e.relabel e.label e.protocol

(* Every bundled protocol, plain and through the randomizing
   transformer (one size smaller: the coin doubles every domain). *)
let bundled =
  [
    ("token-ring", "ring:4", "ring:3");
    ("leader-tree", "star:4", "chain:3");
    ("two-bool", "ring:2", "ring:2");
    ("centers", "chain:4", "chain:3");
    ("center-leader", "chain:4", "chain:3");
    ("dijkstra", "ring:4", "ring:3");
    ("herman", "ring:5", "ring:3");
    ("dijkstra-3state", "ring:5", "ring:3");
    ("coloring", "ring:4", "ring:3");
    ("matching", "chain:4", "chain:3");
    ("bfs-tree", "chain:4", "chain:3");
    ("mis", "star:4", "chain:3");
  ]

(* A local distribution that repeats a state, so products of several
   members produce equal successor codes the kernel must merge in
   first-occurrence order; processes holding 2 are disabled, and those
   holding 1 move deterministically, so rows mix deterministic and
   randomized members and some configurations are terminal. *)
let repeating_ring n =
  let step : int Protocol.action =
    {
      label = "R";
      guard = (fun cfg p -> cfg.(p) <> 2);
      result =
        (fun cfg p ->
          if cfg.(p) = 1 then [ (2, 1.0) ]
          else [ (1, 0.25); (cfg.((p + 1) mod n), 0.5); (1, 0.25) ]);
    }
  in
  {
    Protocol.name = "repeating-ring";
    graph = Stabgraph.Graph.ring n;
    domain = (fun _ -> [ 0; 1; 2 ]);
    actions = [ step ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = true;
  }

let test_bundle_names () =
  Alcotest.(check (list string))
    "the reference covers every registry protocol" Stabexp.Registry.names
    (List.sort compare (List.map (fun (name, _, _) -> name) bundled))

let suite =
  Alcotest.test_case "covers the registry" `Quick test_bundle_names
  :: Alcotest.test_case "repeated local outcomes merge" `Quick (fun () ->
         check_protocol "repeating-ring" (repeating_ring 4))
  :: List.concat_map
       (fun (name, topology, small) ->
         [
           Alcotest.test_case name `Quick (check_entry name topology ~transformed:false);
           Alcotest.test_case (name ^ " transformed") `Quick
             (check_entry name small ~transformed:true);
         ])
       bundled
