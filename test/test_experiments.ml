(* Tests for the experiments layer: report rendering, the registry, the
   figure replays, theorem verdicts and selected quantitative facts. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- report --- *)

let test_report_rendering () =
  let t = Stabexp.Report.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Stabexp.Report.add_row t [ "x"; "y" ];
  Stabexp.Report.add_row t [ "long-cell"; "z" ];
  let rendered = Stabexp.Report.render t in
  Alcotest.(check bool) "title" true (contains ~needle:"== demo" rendered);
  Alcotest.(check bool) "header" true (contains ~needle:"a" rendered);
  Alcotest.(check bool) "cells" true (contains ~needle:"long-cell" rendered)

let test_report_validation () =
  let t = Stabexp.Report.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Report.add_row: column count mismatch")
    (fun () -> Stabexp.Report.add_row t [ "only-one" ]);
  Alcotest.check_raises "no columns" (Invalid_argument "Report.create: no columns")
    (fun () -> ignore (Stabexp.Report.create ~title:"x" ~columns:[]))

let test_report_cells () =
  Alcotest.(check string) "int" "42" (Stabexp.Report.cell_int 42);
  Alcotest.(check string) "float" "1.500" (Stabexp.Report.cell_float 1.5);
  Alcotest.(check string) "float decimals" "1.5" (Stabexp.Report.cell_float ~decimals:1 1.5);
  Alcotest.(check string) "bool" "yes" (Stabexp.Report.cell_bool true)

let test_report_markdown () =
  let t = Stabexp.Report.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Stabexp.Report.add_row t [ "x"; "has | pipe" ];
  Stabexp.Report.add_row t [ "second"; "z" ];
  let md = Stabexp.Report.to_markdown t in
  (match String.split_on_char '\n' md with
  | "### demo" :: "" :: header :: rule :: rows ->
    Alcotest.(check string) "header row" "| a | bb |" header;
    Alcotest.(check string) "alignment rule" "|---|---|" rule;
    Alcotest.(check (list string))
      "data rows in insertion order"
      [ "| x | has \\| pipe |"; "| second | z |" ]
      rows
  | _ -> Alcotest.failf "unexpected markdown shape:\n%s" md);
  Alcotest.(check bool) "pipes escaped" true (contains ~needle:"\\|" md)

(* --- registry --- *)

let test_registry_topologies () =
  Alcotest.(check int) "chain" 4
    (Stabgraph.Graph.size (Stabexp.Registry.topology_of_string "chain:4"));
  Alcotest.(check bool) "ring" true
    (Stabgraph.Graph.is_ring (Stabexp.Registry.topology_of_string "ring:5"));
  Alcotest.(check bool) "bare int is ring" true
    (Stabgraph.Graph.is_ring (Stabexp.Registry.topology_of_string "6"));
  Alcotest.(check bool) "random tree" true
    (Stabgraph.Graph.is_tree (Stabexp.Registry.topology_of_string "random:8:3"));
  Alcotest.check_raises "garbage"
    (Invalid_argument
       "Registry: bad topology \"bogus\" (expected ring:N, chain:N, star:N, random:N:SEED or N)")
    (fun () -> ignore (Stabexp.Registry.topology_of_string "bogus"))

(* Every malformed topology, whatever part of it is wrong, is named in
   the error — never a bare [int_of_string] failure. *)
let test_registry_bad_topology_named () =
  List.iter
    (fun topology ->
      match Stabexp.Registry.topology_of_string topology with
      | _ -> Alcotest.failf "%s accepted" topology
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s named in %S" topology msg)
          true
          (contains ~needle:(Printf.sprintf "%S" topology) msg))
    [ "ring:x"; "chain:"; "star:1"; "random:4:z"; "random:0:1"; "grid:3" ]

let test_registry_find () =
  List.iter
    (fun name ->
      let topology =
        match name with
        | "token-ring" | "dijkstra" | "dijkstra-3state" | "herman" -> "ring:5"
        | "two-bool" -> "ring:3" (* topology ignored *)
        | _ -> "chain:4"
      in
      let (Stabexp.Registry.Entry e) = Stabexp.Registry.find ~name ~topology () in
      Alcotest.(check bool) (name ^ " has description") true (String.length e.describe > 10))
    Stabexp.Registry.names

let test_registry_transformed () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"token-ring" ~topology:"ring:4" ~transformed:true ()
  in
  Alcotest.(check bool) "randomized" true e.protocol.Stabcore.Protocol.randomized;
  Alcotest.(check bool) "label marked" true (contains ~needle:"trans(" e.label)

let test_registry_tree_protocol_rejects_ring () =
  Alcotest.check_raises "leader-tree on ring"
    (Invalid_argument
       "Registry: this protocol needs a tree topology (e.g. chain:4, star:5, random:8:1)")
    (fun () -> ignore (Stabexp.Registry.find ~name:"leader-tree" ~topology:"ring:5" ()))

(* --- figures --- *)

let test_fig1 () =
  let f = Stabexp.Figures.fig1 () in
  Alcotest.(check int) "ring size" 6 f.Stabexp.Figures.ring_size;
  Alcotest.(check int) "modulus" 4 f.Stabexp.Figures.modulus;
  Alcotest.(check (list int)) "holders walk the ring"
    [ 0; 1; 2; 3; 4; 5; 0; 1; 2; 3; 4; 5; 0 ]
    f.Stabexp.Figures.holders

let test_fig2 () =
  let f = Stabexp.Figures.fig2 () in
  Alcotest.(check int) "five steps" 5 f.Stabexp.Figures.steps;
  Alcotest.(check int) "leader node (paper's P6)" 5 f.Stabexp.Figures.final_leader;
  Alcotest.(check bool) "LC" true f.Stabexp.Figures.final_is_lc

let test_fig3 () =
  let f = Stabexp.Figures.fig3 () in
  Alcotest.(check int) "no prefix" 0 f.Stabexp.Figures.prefix_length;
  Alcotest.(check int) "period 2" 2 f.Stabexp.Figures.cycle_length;
  Alcotest.(check bool) "never legitimate" false f.Stabexp.Figures.ever_legitimate

(* --- theorems --- *)

let test_theorem_results_hold () =
  (* The cheap ones here; the expensive ones run in test_integration. *)
  List.iter
    (fun r ->
      if not (Stabexp.Theorems.all_hold r) then
        Alcotest.failf "%s failed" r.Stabexp.Theorems.id)
    [ Stabexp.Theorems.theorem2 ~max_n:5 (); Stabexp.Theorems.theorem3 ();
      Stabexp.Theorems.theorem6 () ]

let test_theorem_report_renders () =
  let r = Stabexp.Theorems.theorem3 () in
  let rendered = Stabexp.Report.render (Stabexp.Theorems.report r) in
  Alcotest.(check bool) "mentions id" true (contains ~needle:"T3" rendered)

(* --- quantitative spot checks --- *)

let test_e3_overhead_is_inverse_bias () =
  let data, _ = Stabexp.Quantitative.e3_transformer_overhead ~quick:true () in
  let find alg n =
    List.find
      (fun d -> d.Stabexp.Quantitative.algorithm = alg && d.Stabexp.Quantitative.n = n)
      data
  in
  let base = find "algorithm-1" 4 in
  let halved = find "trans(algorithm-1,bias=0.50)" 4 in
  let quartered = find "trans(algorithm-1,bias=0.25)" 4 in
  Alcotest.(check (float 1e-6)) "bias 0.5 doubles"
    (2.0 *. base.Stabexp.Quantitative.mean_steps)
    halved.Stabexp.Quantitative.mean_steps;
  Alcotest.(check (float 1e-6)) "bias 0.25 quadruples"
    (4.0 *. base.Stabexp.Quantitative.mean_steps)
    quartered.Stabexp.Quantitative.mean_steps

let test_e1_exact_rows_have_worst () =
  let data, _ = Stabexp.Quantitative.e1_token_sweep ~quick:true () in
  List.iter
    (fun d ->
      if String.starts_with ~prefix:"exact" d.Stabexp.Quantitative.method_ then begin
        match d.Stabexp.Quantitative.worst_steps with
        | Some w ->
          Alcotest.(check bool) "worst >= mean" true
            (w +. 1e-9 >= d.Stabexp.Quantitative.mean_steps)
        | None -> Alcotest.fail "exact rows carry worst case"
      end)
    data

(* --- portfolio spot checks --- *)

let test_portfolio_rows () =
  let rows, _ = Stabexp.Portfolio.classify () in
  let find alg cls =
    List.find
      (fun r ->
        r.Stabexp.Portfolio.algorithm = alg && r.Stabexp.Portfolio.sched_class = cls)
      rows
  in
  (* The paper's hierarchy in four cells. *)
  let tr = find "token-ring(n=5)" "distributed" in
  Alcotest.(check bool) "token ring weak" true tr.Stabexp.Portfolio.weak;
  Alcotest.(check bool) "token ring not self" false tr.Stabexp.Portfolio.self;
  Alcotest.(check bool) "token ring prob-1" true tr.Stabexp.Portfolio.prob1_randomized;
  let dij = find "dijkstra(n=4)" "central" in
  Alcotest.(check bool) "dijkstra self" true dij.Stabexp.Portfolio.self;
  let tb = find "two-bool" "central" in
  Alcotest.(check bool) "two-bool hopeless centrally" false
    tb.Stabexp.Portfolio.prob1_randomized;
  let trans_tb = find "trans(two-bool)" "synchronous" in
  Alcotest.(check bool) "transformed two-bool prob-1 sync" true
    trans_tb.Stabexp.Portfolio.prob1_randomized

let suite =
  [
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "report validation" `Quick test_report_validation;
    Alcotest.test_case "report cells" `Quick test_report_cells;
    Alcotest.test_case "report markdown" `Quick test_report_markdown;
    Alcotest.test_case "registry topologies" `Quick test_registry_topologies;
    Alcotest.test_case "registry bad topology named" `Quick test_registry_bad_topology_named;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "registry transformed" `Quick test_registry_transformed;
    Alcotest.test_case "registry tree guard" `Quick test_registry_tree_protocol_rejects_ring;
    Alcotest.test_case "figure 1" `Quick test_fig1;
    Alcotest.test_case "figure 2" `Quick test_fig2;
    Alcotest.test_case "figure 3" `Quick test_fig3;
    Alcotest.test_case "theorem verdicts" `Quick test_theorem_results_hold;
    Alcotest.test_case "theorem report" `Quick test_theorem_report_renders;
    Alcotest.test_case "E3 inverse bias" `Quick test_e3_overhead_is_inverse_bias;
    Alcotest.test_case "E1 exact worst" `Quick test_e1_exact_rows_have_worst;
    Alcotest.test_case "portfolio rows" `Slow test_portfolio_rows;
  ]
