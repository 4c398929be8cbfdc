(* Differential tests for the forward SCC pass ({!Scc}), which decides
   "can reach L" for the checker and the Markov engine without a
   reverse graph.

   - Configuration level: the reach flags of the pass over the packed
     graph against a backward BFS from L over the reverse adjacency
     ([Checker.best_case_steps] is finite exactly where L is
     reachable), and [possible_convergence] / [analyze] against the
     first unreached code, for every registry protocol (full space and
     quotient, all three classes) and for random systems.
   - Chain level: [Markov.reaches] against a backward BFS over
     [Markov.row] lists, and [Markov.transient_blocks] against a
     list-based recursive Tarjan kept here, on the portfolio chains and
     on random chains with absorbing states, random targets and random
     masks.
   - Allocation budgets: the pass allocates nothing per edge, state or
     component, in the checker and in a Markov hitting query. *)

open Stabcore

let first_false a =
  let rec go c = if c >= Array.length a then None else if a.(c) then go (c + 1) else Some c in
  go 0

let render = function Ok () -> "ok" | Error c -> Printf.sprintf "error %d" c

(* Configuration level *)

let backward_reach space g ~legitimate =
  Array.map (fun d -> d < max_int) (Checker.best_case_steps space g ~legitimate)

let forward_reach g ~legitimate =
  let grp_off, succ_off, succ, _ = Checker.csr g in
  let scc = Scc.decompose ~via:grp_off ~off:succ_off ~cols:succ (Scc.avoiding legitimate) in
  Array.mapi (fun c l -> l || Scc.reached scc c) legitimate

let check_reach what space cls ~legitimate =
  let g = Checker.expand space cls in
  let want = backward_reach space g ~legitimate and got = forward_reach g ~legitimate in
  Array.iteri
    (fun c w ->
      if w <> got.(c) then
        Alcotest.failf "%s: configuration %d backward %b, forward %b" what c w got.(c))
    want;
  let expected = match first_false want with None -> Ok () | Some c -> Error c in
  Alcotest.(check string)
    (what ^ " first unreached") (render expected)
    (render (Checker.possible_convergence space g ~legitimate));
  expected

let render_certain = function
  | Ok () -> "ok"
  | Error (Checker.Cycle cycle) -> "cycle " ^ String.concat "," (List.map string_of_int cycle)
  | Error (Checker.Dead_end c) -> Printf.sprintf "dead end %d" c

let check_space what space spec =
  let legitimate = Statespace.legitimate_set space spec in
  List.iter
    (fun cls ->
      let what = Format.asprintf "%s/%a" what Statespace.pp_sched_class cls in
      let expected = check_reach what space cls ~legitimate in
      let v = Checker.analyze space cls spec in
      Alcotest.(check string) (what ^ " analyze possible") (render expected) (render v.Checker.possible);
      (* The pass's cycle test must agree with the depth-first search,
         witness included. *)
      Alcotest.(check string)
        (what ^ " analyze certain")
        (render_certain (Checker.certain_convergence space (Checker.expand space cls) ~legitimate))
        (render_certain v.Checker.certain))
    Test_reference_rows.classes

let test_registry () =
  List.iter
    (fun (name, topology, _) ->
      let (Stabexp.Registry.Entry e) = Stabexp.Registry.find ~name ~topology () in
      let space = Statespace.build e.protocol in
      check_space name space e.spec;
      let q = Statespace.quotient ?relabel:e.relabel space in
      if Statespace.is_quotient q then check_space (name ^ " quotient") q e.spec)
    Test_reference_rows.bundled

let qcheck_random_systems =
  QCheck.Test.make ~count:80 ~name:"forward reach = backward BFS (random systems)"
    QCheck.small_int (fun seed ->
      let space = Statespace.build (Test_random_systems.random_protocol (seed + 50_000)) in
      let legitimate = Test_random_systems.random_target seed space in
      List.iter
        (fun cls -> ignore (check_reach (Printf.sprintf "seed %d" seed) space cls ~legitimate))
        Test_reference_rows.classes;
      true)

(* Chain level *)

let successors chain = Array.init (Markov.states chain) (fun c -> List.map fst (Markov.row chain c))

let reference_reaches chain ~target =
  let succ = successors chain in
  let n = Array.length succ in
  let preds = Array.make n [] in
  Array.iteri (fun c l -> List.iter (fun c' -> preds.(c') <- c :: preds.(c')) l) succ;
  let ok = Array.copy target in
  let rec visit c =
    List.iter
      (fun p ->
        if not ok.(p) then begin
          ok.(p) <- true;
          visit p
        end)
      preds.(c)
  in
  Array.iteri (fun c t -> if t then visit c) target;
  ok

(* Recursive textbook Tarjan over the merged rows restricted to [keep]:
   roots ascending, edges in row order, components in completion order
   with members sorted. *)
let reference_blocks chain ~keep =
  let succ = successors chain in
  let n = Array.length succ in
  let index = Array.make n (-1) and low = Array.make n 0 and on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec visit v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if keep.(w) then
          if index.(w) < 0 then begin
            visit w;
            low.(v) <- min low.(v) low.(w)
          end
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succ.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      out := List.sort compare (pop []) :: !out
    end
  in
  for c = 0 to n - 1 do
    if keep.(c) && index.(c) < 0 then visit c
  done;
  List.rev !out

let ints l = String.concat "," (List.map string_of_int l)
let render_blocks blocks = String.concat " | " (List.map ints blocks)

let check_chain what chain ~target ~keep =
  let want = reference_reaches chain ~target and got = Markov.reaches chain ~target in
  Array.iteri
    (fun c w ->
      if w <> got.(c) then Alcotest.failf "%s: state %d backward %b, forward %b" what c w got.(c))
    want;
  Alcotest.(check string)
    (what ^ " prob-1 verdict")
    (render (match first_false want with None -> Ok () | Some c -> Error c))
    (render (Markov.converges_with_prob_one chain ~legitimate:target));
  (match (first_false want, Markov.hitting_times_checked chain ~legitimate:target) with
  | Some c, Error c' -> Alcotest.(check int) (what ^ " typed unreachable state") c c'
  | None, Ok _ -> ()
  | _ -> Alcotest.failf "%s: hitting_times_checked disagrees with reachability" what);
  let transient = Array.map not target in
  let absorbing = Array.mapi (fun c r -> r && not target.(c)) want in
  List.iter
    (fun (mask_name, keep) ->
      Alcotest.(check string)
        (Printf.sprintf "%s blocks (%s)" what mask_name)
        (render_blocks (reference_blocks chain ~keep))
        (render_blocks (List.map Array.to_list (Markov.transient_blocks chain ~transient:keep))))
    [ ("transient", transient); ("absorption", absorbing); ("random", keep) ]

let random_mask rng n p = Array.init n (fun _ -> Stabrng.Rng.bernoulli rng p)

let test_portfolio_chains () =
  let rng = Stabrng.Rng.create 2718 in
  List.iter
    (fun (tag, Stabexp.Registry.Entry e) ->
      let space = Statespace.build e.protocol in
      let legitimate = Statespace.legitimate_set space e.spec in
      List.iter
        (fun cls ->
          let chain = Markov.of_space space (Markov.of_class cls) in
          let n = Markov.states chain in
          let what = Format.asprintf "%s/%a" tag Statespace.pp_sched_class cls in
          check_chain what chain ~target:legitimate ~keep:(random_mask rng n 0.7);
          check_chain (what ^ " random target") chain ~target:(random_mask rng n 0.1)
            ~keep:(random_mask rng n 0.5))
        Test_differential.classes)
    (Test_differential.instances ())

(* Random chains of up to 40 states: absorbing states (empty rows), a
   sparse random target and random masks. *)
let random_chain seed =
  let rng = Stabrng.Rng.create seed in
  let n = 1 + Stabrng.Rng.int rng 40 in
  let rows =
    Array.init n (fun _ ->
        if Stabrng.Rng.bernoulli rng 0.15 then []
        else
          let k = 1 + Stabrng.Rng.int rng 4 in
          List.init k (fun _ -> (Stabrng.Rng.int rng n, 1.0 /. float_of_int k)))
  in
  (rng, Markov.of_rows rows)

let qcheck_random_chains =
  QCheck.Test.make ~count:300 ~name:"forward reach and blocks = list reference (random chains)"
    QCheck.small_int (fun seed ->
      let rng, chain = random_chain seed in
      let n = Markov.states chain in
      check_chain (Printf.sprintf "seed %d" seed) chain ~target:(random_mask rng n 0.2)
        ~keep:(random_mask rng n 0.6);
      true)

(* Allocation budgets *)

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* On dijkstra-3state ring:9 under the distributed class (19683
   configurations, about 1.1 M transitions), the reach pass of the
   checker and a whole sparse hitting query (reach, blocks and the
   singleton solve) allocate a fixed number of minor words: the
   per-state arrays are major-heap blocks, and nothing is allocated per
   edge, state or block. *)
let test_pass_allocation_budget () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"dijkstra-3state" ~topology:"ring:9" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let g = Checker.expand space Statespace.Distributed in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let budget what limit words =
    if words > limit then Alcotest.failf "%s: %.0f minor words, budget %.0f" what words limit
  in
  budget "Checker.possible_convergence" 256.0
    (minor_words (fun () -> Checker.possible_convergence space g ~legitimate));
  let sparse = Markov.Sparse { kind = Markov.Gauss_seidel; tolerance = 1e-10; max_sweeps = 1000 } in
  budget "Markov.hitting_times_checked" 512.0
    (minor_words (fun () -> Markov.hitting_times_checked ~method_:sparse chain ~legitimate))

let suite =
  [
    Alcotest.test_case "reach flags = backward BFS (registry)" `Quick test_registry;
    QCheck_alcotest.to_alcotest qcheck_random_systems;
    Alcotest.test_case "reaches and blocks = list reference (portfolio)" `Quick
      test_portfolio_chains;
    QCheck_alcotest.to_alcotest qcheck_random_chains;
    Alcotest.test_case "pass allocation budget" `Quick test_pass_allocation_budget;
  ]
