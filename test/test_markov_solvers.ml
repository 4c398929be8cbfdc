(* Differential tests for the sparse Markov backends.

   Every (instance, scheduler class) pair of the differential
   portfolio is solved for hitting times (when probability-1
   convergence holds) and absorption probabilities with the dense
   Gaussian-elimination oracle and with both sparse iterative
   backends; the three must agree to 1e-8 with identical convergence
   verdicts. Both sparse kinds must also equal a textbook blocked
   sweep bit for bit, and stay within a per-sweep allocation budget.
   Unit tests pin the typed Max_sweeps outcome, the typed unreachable
   state, the reverse-topological block order, and the singleton fast
   path. *)

open Stabcore

let randomization_of = function
  | Statespace.Central -> Markov.Central_uniform
  | Statespace.Distributed -> Markov.Distributed_uniform
  | Statespace.Synchronous -> Markov.Sync

let class_tag = function
  | Statespace.Central -> "central"
  | Statespace.Distributed -> "distributed"
  | Statespace.Synchronous -> "synchronous"

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.(i)))) a;
  !worst

let converged tag = function
  | x, Markov.Converged _ -> x
  | _, Markov.Max_sweeps (s : Markov.solve_stats) ->
    Alcotest.failf "%s: Max_sweeps after %d sweeps (%d blocks)" tag s.Markov.sweeps
      s.Markov.blocks

(* Dense vs Gauss-Seidel vs Jacobi on the full differential portfolio:
   hitting times wherever probability-1 convergence holds, absorption
   probabilities everywhere. *)
let test_differential_backends () =
  List.iter
    (fun (tag, Stabexp.Registry.Entry e) ->
      let space = Statespace.build e.protocol in
      let legitimate = Statespace.legitimate_set space e.spec in
      List.iter
        (fun cls ->
          let tag = Printf.sprintf "%s/%s" tag (class_tag cls) in
          let chain = Markov.of_space space (randomization_of cls) in
          (match Markov.converges_with_prob_one chain ~legitimate with
          | Ok () ->
            let dense = Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate in
            let gs =
              converged (tag ^ "/hitting/gs")
                (Markov.sparse_hitting_times ~kind:Markov.Gauss_seidel ~tolerance:1e-12 chain
                   ~legitimate)
            in
            let jacobi =
              converged (tag ^ "/hitting/jacobi")
                (Markov.sparse_hitting_times ~kind:Markov.Jacobi ~tolerance:1e-12 chain
                   ~legitimate)
            in
            let dgs = max_abs_diff dense gs in
            let djac = max_abs_diff dense jacobi in
            if dgs > 1e-8 then
              Alcotest.failf "%s: dense vs gs hitting drift %g" tag dgs;
            if djac > 1e-8 then
              Alcotest.failf "%s: dense vs jacobi hitting drift %g" tag djac
          | Error _ -> ());
          let dense =
            Markov.absorption_probabilities ~method_:Markov.Exact chain ~legitimate
          in
          let gs =
            converged (tag ^ "/absorption/gs")
              (Markov.sparse_absorption ~kind:Markov.Gauss_seidel chain ~legitimate)
          in
          let jacobi =
            converged (tag ^ "/absorption/jacobi")
              (Markov.sparse_absorption ~kind:Markov.Jacobi chain ~legitimate)
          in
          let dgs = max_abs_diff dense gs in
          let djac = max_abs_diff dense jacobi in
          if dgs > 1e-8 then Alcotest.failf "%s: dense vs gs absorption drift %g" tag dgs;
          if djac > 1e-8 then
            Alcotest.failf "%s: dense vs jacobi absorption drift %g" tag djac)
        Test_differential.classes)
    (Test_differential.instances ())

(* An exhausted sweep budget is a value, not an exception, and leaves
   residual = infinity so no caller can mistake the partial iterate
   for a solution. *)
let test_max_sweeps_outcome () =
  let chain = Test_markov.gambler () in
  let legitimate = [| false; false; false; true |] in
  match
    Markov.sparse_hitting_times ~tolerance:1e-30 ~max_sweeps:2 chain ~legitimate
  with
  | _, Markov.Converged _ -> Alcotest.fail "expected Max_sweeps"
  | _, Markov.Max_sweeps s ->
    Alcotest.(check bool) "residual is infinite" true (s.Markov.residual = infinity);
    Alcotest.(check bool) "some sweeps ran" true (s.Markov.sweeps >= 1)

let test_expected_hitting_reports_failure () =
  let chain = Test_markov.gambler () in
  let legitimate = [| false; false; false; true |] in
  match
    Markov.expected_hitting_times
      ~method_:(Markov.Sparse { kind = Markov.Gauss_seidel; tolerance = 1e-30; max_sweeps = 2 })
      chain ~legitimate
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    if
      not
        (String.length msg > 0
        && String.sub msg 0 (String.length "Markov.sparse_hitting_times")
           = "Markov.sparse_hitting_times")
    then Alcotest.failf "failure names the wrong function: %s" msg

(* The blocks of the transient subgraph partition it and come out in
   reverse topological order: every positive-probability edge leaving
   a block lands in an earlier block or outside the transient set. *)
let test_block_ordering () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"token-ring" ~topology:"ring:4" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let transient = Array.map not legitimate in
  let blocks = Markov.transient_blocks chain ~transient in
  let n = Markov.states chain in
  let block_of = Array.make n (-1) in
  List.iteri
    (fun i members ->
      Array.iter
        (fun c ->
          if not transient.(c) then Alcotest.failf "state %d in a block but not transient" c;
          if block_of.(c) >= 0 then Alcotest.failf "state %d in two blocks" c;
          block_of.(c) <- i)
        members)
    blocks;
  Array.iteri
    (fun c t -> if t && block_of.(c) < 0 then Alcotest.failf "transient %d unblocked" c)
    transient;
  List.iteri
    (fun i members ->
      Array.iter
        (fun c ->
          List.iter
            (fun (c', w) ->
              if w > 0.0 && transient.(c') && block_of.(c') > i then
                Alcotest.failf "edge %d->%d climbs from block %d to %d" c c' i
                  block_of.(c'))
            (Markov.row chain c))
        members)
    blocks

(* A self-stabilizing protocol's transient graph is acyclic: every
   block is a singleton, solved exactly with zero iterative sweeps. *)
let test_singleton_blocks_exact () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"dijkstra-3state" ~topology:"ring:4" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space Markov.Central_uniform in
  let times, outcome = Markov.sparse_hitting_times chain ~legitimate in
  (match outcome with
  | Markov.Converged s ->
    Alcotest.(check int) "no iterative sweeps" 0 s.Markov.sweeps;
    Alcotest.(check bool) "all blocks singletons" true (s.Markov.blocks > 0)
  | Markov.Max_sweeps _ -> Alcotest.fail "acyclic chain failed to converge");
  let dense = Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate in
  let drift = max_abs_diff dense times in
  if drift > 1e-9 then Alcotest.failf "back-substitution drift %g" drift

(* Without probability-1 convergence the checked solve returns the
   state [converges_with_prob_one] names, and the raising entry points
   keep their [Invalid_argument] text. *)
let test_unreachable_is_typed () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"token-ring" ~topology:"ring:4" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space Markov.Sync in
  let code =
    match Markov.converges_with_prob_one chain ~legitimate with
    | Error c -> c
    | Ok () -> Alcotest.fail "token-ring ring:4 converges under the synchronous daemon"
  in
  (match Markov.hitting_times_checked chain ~legitimate with
  | Error c -> Alcotest.(check int) "same stuck state" code c
  | Ok _ -> Alcotest.fail "expected Error");
  let failure =
    Invalid_argument
      (Printf.sprintf
         "Markov.expected_hitting_times: state %d cannot reach the legitimate set" code)
  in
  Alcotest.check_raises "expected_hitting_times" failure (fun () ->
      ignore (Markov.expected_hitting_times chain ~legitimate));
  Alcotest.check_raises "hitting_stats_checked" failure (fun () ->
      ignore (Markov.hitting_stats_checked chain ~legitimate))

(* Textbook blocked Gauss-Seidel / Jacobi over [Markov.row] lists, the
   arithmetic the sparse kernel must reproduce bit for bit: blocks in
   [transient_blocks] order, each equation diagonal-solved with its sum
   started at [base] and taken in row order, singletons in one
   evaluation, multi-state blocks swept until the relative residual
   [max |x' - x| / max(1, max |x'|)] is at most [tolerance]. Jacobi
   reads a full copy of the previous iterate. Returns the iterate and
   the sweeps over multi-state blocks. *)
let reference_solve ~jacobi ~tolerance chain ~transient ~base x =
  let rows = Array.init (Markov.states chain) (Markov.row chain) in
  let eval read c =
    let self, acc =
      List.fold_left
        (fun (self, acc) (c', w) ->
          if c' = c then (self +. w, acc) else (self, acc +. (w *. read c')))
        (0.0, base) rows.(c)
    in
    let d = 1.0 -. self in
    if d > 1e-12 then acc /. d else acc +. (self *. read c)
  in
  let sweeps = ref 0 in
  List.iter
    (fun block ->
      if Array.length block = 1 then x.(block.(0)) <- eval (Array.get x) block.(0)
      else begin
        let residual = ref infinity in
        while not (!residual <= tolerance) && !sweeps < 1_000_000 do
          incr sweeps;
          let read = if jacobi then Array.get (Array.copy x) else Array.get x in
          let delta = ref 0.0 and norm = ref 1.0 in
          Array.iter
            (fun c ->
              let v = eval read c in
              delta := Float.max !delta (Float.abs (v -. x.(c)));
              norm := Float.max !norm (Float.abs v);
              x.(c) <- v)
            block;
          residual := !delta /. !norm
        done
      end)
    (Markov.transient_blocks chain ~transient);
  (x, !sweeps)

let check_bits tag (want, want_sweeps) (got, outcome) =
  let sweeps =
    match outcome with
    | Markov.Converged s -> s.Markov.sweeps
    | Markov.Max_sweeps _ -> Alcotest.failf "%s: Max_sweeps" tag
  in
  Alcotest.(check int) (tag ^ " sweeps") want_sweeps sweeps;
  Array.iteri
    (fun c v ->
      if Int64.bits_of_float v <> Int64.bits_of_float got.(c) then
        Alcotest.failf "%s: state %d reference %h, sparse %h" tag c v got.(c))
    want

(* Both sparse kinds against the textbook sweep on every portfolio
   chain: hitting times where probability-1 convergence holds,
   absorption probabilities everywhere. *)
let test_reference_bits () =
  List.iter
    (fun (tag, Stabexp.Registry.Entry e) ->
      let space = Statespace.build e.protocol in
      let legitimate = Statespace.legitimate_set space e.spec in
      List.iter
        (fun cls ->
          let chain = Markov.of_space space (randomization_of cls) in
          let n = Markov.states chain in
          let can_reach = Markov.reaches chain ~target:legitimate in
          List.iter
            (fun (kind, jacobi, name) ->
              let tag = Printf.sprintf "%s/%s/%s" tag (class_tag cls) name in
              if Array.for_all Fun.id can_reach then
                check_bits (tag ^ "/hitting")
                  (reference_solve ~jacobi ~tolerance:1e-10 chain
                     ~transient:(Array.map not legitimate) ~base:1.0 (Array.make n 0.0))
                  (Markov.sparse_hitting_times ~kind chain ~legitimate);
              check_bits (tag ^ "/absorption")
                (reference_solve ~jacobi ~tolerance:1e-12 chain
                   ~transient:(Array.init n (fun c -> can_reach.(c) && not legitimate.(c)))
                   ~base:0.0
                   (Array.map (fun l -> if l then 1.0 else 0.0) legitimate))
                (Markov.sparse_absorption ~kind chain ~legitimate))
            [ (Markov.Gauss_seidel, false, "gs"); (Markov.Jacobi, true, "jacobi") ])
        Test_differential.classes)
    (Test_differential.instances ())

(* The sweep allocates nothing per edge or per state: on herman ring:9
   under the central randomized daemon (one multi-state block), 1000
   extra sweeps cost at most 16 minor words each, for both kinds. A
   zero tolerance makes both solves run to their budget. *)
let test_solve_allocation_budget () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"herman" ~topology:"ring:9" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space Markov.Central_uniform in
  List.iter
    (fun (kind, name) ->
      let words max_sweeps =
        let w0 = Gc.minor_words () in
        let _, outcome =
          Markov.sparse_hitting_times ~kind ~tolerance:0.0 ~max_sweeps chain ~legitimate
        in
        let words = Gc.minor_words () -. w0 in
        (match outcome with
        | Markov.Max_sweeps s -> Alcotest.(check int) (name ^ " sweeps") max_sweeps s.Markov.sweeps
        | Markov.Converged _ -> Alcotest.failf "%s: converged at tolerance 0" name);
        words
      in
      let per_sweep = (words 1100 -. words 100) /. 1000.0 in
      if per_sweep > 16.0 then
        Alcotest.failf "%s: %.1f minor words per sweep, budget 16" name per_sweep)
    [ (Markov.Gauss_seidel, "gs"); (Markov.Jacobi, "jacobi") ]

let suite =
  [
    Alcotest.test_case "dense vs gs vs jacobi (portfolio)" `Quick
      test_differential_backends;
    Alcotest.test_case "Max_sweeps outcome" `Quick test_max_sweeps_outcome;
    Alcotest.test_case "non-convergence failure message" `Quick
      test_expected_hitting_reports_failure;
    Alcotest.test_case "block ordering" `Quick test_block_ordering;
    Alcotest.test_case "singleton blocks exact" `Quick test_singleton_blocks_exact;
    Alcotest.test_case "unreachable state is a typed error" `Quick test_unreachable_is_typed;
    Alcotest.test_case "textbook sweep, bit for bit (portfolio)" `Quick test_reference_bits;
    Alcotest.test_case "solve allocation budget" `Quick test_solve_allocation_budget;
  ]
