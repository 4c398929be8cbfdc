(* Tests for the exact recovery-radius analysis and budget degradation. *)

open Stabcore

let token_metrics ~n ~ks =
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Statespace.build p in
  (space, spec, Resilience.analyze space Statespace.Central spec ~ks)

let test_token_ring_dual_radius () =
  (* The paper's flagship: weak- but not self-stabilizing under the
     central daemon, so no fault budget has guaranteed recovery while
     every budget recovers with probability 1. *)
  let _, _, metrics = token_metrics ~n:5 ~ks:[ 0; 1; 2; 3; 4; 5 ] in
  let r = Resilience.radius_of metrics in
  Alcotest.(check int) "adversarial radius" 0 r.Resilience.adversarial;
  Alcotest.(check int) "probabilistic radius" 5 r.Resilience.probabilistic;
  Alcotest.(check int) "max_k" 5 r.Resilience.max_k

let test_token_ring_k1_metric () =
  let space, spec, metrics = token_metrics ~n:5 ~ks:[ 0; 1 ] in
  let m0 = List.hd metrics in
  let m1 = List.nth metrics 1 in
  Alcotest.(check bool) "k=0 guaranteed" true m0.Resilience.guaranteed;
  Alcotest.(check (option int)) "k=0 worst case" (Some 0) m0.Resilience.worst_case;
  let legitimate = Statespace.legitimate_set space spec in
  let in_l = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 legitimate in
  Alcotest.(check int) "k=0 faulty set = L" in_l m0.Resilience.faulty_configs;
  Alcotest.(check int) "k=0 nothing corrupted" 0 m0.Resilience.corrupted_configs;
  Alcotest.(check bool) "k=1 not guaranteed" true (not m1.Resilience.guaranteed);
  Alcotest.(check (option int)) "k=1 worst case unbounded" None m1.Resilience.worst_case;
  Alcotest.(check bool) "k=1 prob-1" true m1.Resilience.prob_one;
  (match m1.Resilience.expected_mean with
  | Some mean -> Alcotest.(check bool) "k=1 expected > 0" true (mean > 0.0)
  | None -> Alcotest.fail "expected recovery undefined");
  match (m1.Resilience.expected_mean, m1.Resilience.expected_max) with
  | Some mean, Some worst -> Alcotest.(check bool) "mean <= worst" true (mean <= worst)
  | _ -> Alcotest.fail "expected recovery undefined"

let test_guaranteed_agrees_with_k_stabilizing () =
  (* The radius analysis and the direct k-stabilization check are two
     routes to the same predicate. *)
  let check_protocol p spec cls =
    let space = Statespace.build p in
    let g = Checker.expand space cls in
    let legitimate = Statespace.legitimate_set space spec in
    let metrics = Resilience.analyze space cls spec ~ks:[ 1; 2 ] in
    List.iter
      (fun (m : Resilience.metric) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s k=%d" p.Protocol.name m.Resilience.k)
          (Result.is_ok (Checker.k_stabilizing space g ~legitimate ~k:m.Resilience.k))
          m.Resilience.guaranteed)
      metrics
  in
  check_protocol (Stabalgo.Token_ring.make ~n:5) (Stabalgo.Token_ring.spec ~n:5)
    Statespace.Central;
  let g4 = Stabgraph.Graph.ring 4 in
  check_protocol (Stabalgo.Coloring.make g4) (Stabalgo.Coloring.spec g4)
    Statespace.Central

let test_self_stabilizing_has_full_radius () =
  (* Dijkstra's K-state ring is self-stabilizing under the central
     daemon: every fault budget recovers, with a finite exact worst
     case that grows with k. *)
  let n = 4 in
  let p = Stabalgo.Dijkstra_kstate.make ~n () in
  let spec = Stabalgo.Dijkstra_kstate.spec ~n in
  let space = Statespace.build p in
  let metrics = Resilience.analyze space Statespace.Central spec ~ks:[ 0; 1; 2; 3; 4 ] in
  let r = Resilience.radius_of metrics in
  Alcotest.(check int) "adversarial radius = n" n r.Resilience.adversarial;
  Alcotest.(check int) "probabilistic radius = n" n r.Resilience.probabilistic;
  let worsts =
    List.map
      (fun (m : Resilience.metric) ->
        match m.Resilience.worst_case with
        | Some w -> w
        | None -> Alcotest.fail "unbounded on a self-stabilizing protocol")
      metrics
  in
  Alcotest.(check bool)
    "worst case monotone in k" true
    (List.for_all2 ( <= ) worsts (List.tl worsts @ [ max_int ]));
  (* At k = n the faulty set is all of C, so the radius analysis must
     reproduce the global worst-case stabilization time. *)
  let g = Checker.expand space Statespace.Central in
  let legitimate = Statespace.legitimate_set space spec in
  match Checker.worst_case_steps space g ~legitimate with
  | None -> Alcotest.fail "dijkstra should certainly converge"
  | Some wc ->
    let global = Array.fold_left max 0 wc in
    Alcotest.(check int) "k=n equals global worst case" global
      (List.nth worsts n)

let test_radius_of_requires_metrics () =
  Alcotest.check_raises "empty" (Invalid_argument "Resilience.radius_of: no metrics")
    (fun () -> ignore (Resilience.radius_of []))

(* --- graceful degradation: Statespace.plan / Eval's ladder --- *)

let test_plan_exact_when_small () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  match Statespace.plan p with
  | `Exact space -> Alcotest.(check int) "full space" 32 (Statespace.count space)
  | `Onthefly _ | `Montecarlo _ -> Alcotest.fail "expected exact"

let test_plan_degrades_to_onthefly () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  match Statespace.plan ~max_configs:10 p with
  | `Onthefly space -> Alcotest.(check int) "encoding intact" 32 (Statespace.count space)
  | `Exact _ | `Montecarlo _ -> Alcotest.fail "expected on-the-fly"

let test_plan_degrades_to_montecarlo () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  match Statespace.plan ~max_configs:10 ~onthefly_configs:16 p with
  | `Montecarlo reason -> Alcotest.(check bool) "reason given" true (reason <> "")
  | `Exact _ | `Onthefly _ -> Alcotest.fail "expected montecarlo"

let test_try_build_reports_overflow () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  (match Statespace.try_build p with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "small space should build");
  match Statespace.try_build ~max_configs:10 p with
  | Ok _ -> Alcotest.fail "budget should fail the build"
  | Error msg -> Alcotest.(check bool) "message" true (msg <> "")

(* The evaluator's ladder: each rung answers within its budget or
   reports why it cannot, so a caller can demote to the next one. *)
let budget_query ?(topology = "ring:5") max_configs =
  {
    Stabexp.Query.default with
    topology;
    sched = Statespace.Central;
    max_configs;
    sampling = { Stabexp.Query.default.sampling with runs = 20; max_steps = 10_000 };
  }

let test_eval_exact_rung () =
  match Stabexp.Eval.run (budget_query 2_000_000) Stabexp.Eval.Exact with
  | Ok { Stabexp.Eval.Result.body = Stabexp.Eval.Result.Check { verdict = v; _ }; _ } ->
    Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
    Alcotest.(check bool) "not self-stabilizing" true (not (Checker.self_stabilizing v))
  | Ok _ -> Alcotest.fail "expected a check answer"
  | Error reason -> Alcotest.failf "exact rung refused: %s" reason

let test_eval_onthefly_rung () =
  (* Budget below the 32 configurations: the exact rung refuses, the
     on-the-fly rung explores within the same budget. *)
  let q = budget_query 20 in
  (match Stabexp.Eval.run q Stabexp.Eval.Exact with
  | Error reason -> Alcotest.(check bool) "reason given" true (reason <> "")
  | Ok _ -> Alcotest.fail "budget should preclude exact analysis");
  match Stabexp.Eval.run q Stabexp.Eval.Onthefly with
  | Ok { Stabexp.Eval.Result.body = Stabexp.Eval.Result.Reach r; _ } ->
    Alcotest.(check int) "default initial configurations" 5 r.inits;
    List.iter
      (fun (o : Stabexp.Eval.Result.onthefly) ->
        Alcotest.(check bool) "exploration bounded" true (o.stats.Onthefly.explored <= 20);
        Alcotest.(check bool)
          "unknown exactly when the budget stopped exploration" (not o.stats.Onthefly.complete)
          (o.verdict = Stabexp.Eval.Result.Unknown))
      [ r.possible; r.certain ]
  | Ok _ -> Alcotest.fail "expected an on-the-fly answer"
  | Error reason -> Alcotest.failf "on-the-fly rung refused: %s" reason

let test_eval_montecarlo_rung () =
  (* 3^40 configurations overflow the encoding: only sampling remains. *)
  let q = budget_query ~topology:"ring:40" 2_000_000 in
  List.iter
    (fun rung ->
      match Stabexp.Eval.run q rung with
      | Error reason -> Alcotest.(check bool) "reason given" true (reason <> "")
      | Ok _ -> Alcotest.failf "%s rung answered" (Stabexp.Eval.rung_label rung))
    [ Stabexp.Eval.Exact; Stabexp.Eval.Onthefly ];
  match Stabexp.Eval.run q Stabexp.Eval.Montecarlo with
  | Ok { Stabexp.Eval.Result.body = Stabexp.Eval.Result.Montecarlo m; _ } ->
    Alcotest.(check int) "runs" 20 m.runs;
    Alcotest.(check string) "class daemon" "central-random" m.scheduler
  | Ok _ -> Alcotest.fail "expected a sampled answer"
  | Error reason -> Alcotest.failf "sampling refused: %s" reason

let test_eval_markov_sweep_budget () =
  (* A sparse solve that runs out of sweeps demotes, unless the query
     accepts the partial iterate. *)
  let query allow_nonconverged =
    {
      Stabexp.Query.default with
      topology = "ring:8";
      quotient = true;
      analysis =
        Stabexp.Query.Markov
          {
            solver =
              Some
                (Markov.Sparse { kind = Markov.Gauss_seidel; tolerance = 1e-10; max_sweeps = 2 });
            allow_nonconverged;
          };
    }
  in
  (match Stabexp.Eval.run (query false) Stabexp.Eval.Exact with
  | Error reason ->
    Alcotest.(check bool) "reason names the sweep budget" true
      (String.starts_with ~prefix:"sparse solver hit its sweep budget" reason)
  | Ok _ -> Alcotest.fail "exhausted sweep budget answered");
  match Stabexp.Eval.run (query true) Stabexp.Eval.Exact with
  | Ok
      {
        Stabexp.Eval.Result.body =
          Stabexp.Eval.Result.Markov
            { lumped; convergence = Stabexp.Eval.Result.Prob1 { solve; _ }; _ };
        _;
      } ->
    Alcotest.(check bool) "lumped chain" true lumped;
    Alcotest.(check bool) "partial iterate flagged" true
      (match solve with Some (Markov.Max_sweeps _) -> true | _ -> false)
  | Ok _ -> Alcotest.fail "expected a probability-1 answer"
  | Error reason -> Alcotest.failf "partial iterate refused: %s" reason

let suite =
  [
    Alcotest.test_case "token ring dual radius" `Quick test_token_ring_dual_radius;
    Alcotest.test_case "token ring k=1 metric" `Quick test_token_ring_k1_metric;
    Alcotest.test_case "agrees with k-stabilizing" `Quick test_guaranteed_agrees_with_k_stabilizing;
    Alcotest.test_case "dijkstra full radius" `Slow test_self_stabilizing_has_full_radius;
    Alcotest.test_case "radius_of validation" `Quick test_radius_of_requires_metrics;
    Alcotest.test_case "plan exact" `Quick test_plan_exact_when_small;
    Alcotest.test_case "plan onthefly" `Quick test_plan_degrades_to_onthefly;
    Alcotest.test_case "plan montecarlo" `Quick test_plan_degrades_to_montecarlo;
    Alcotest.test_case "try_build" `Quick test_try_build_reports_overflow;
    Alcotest.test_case "budget exact" `Quick test_eval_exact_rung;
    Alcotest.test_case "budget onthefly" `Quick test_eval_onthefly_rung;
    Alcotest.test_case "budget montecarlo" `Quick test_eval_montecarlo_rung;
    Alcotest.test_case "budget markov sweeps" `Quick test_eval_markov_sweep_budget;
  ]
