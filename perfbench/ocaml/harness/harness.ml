(* Traced replay of the stabsim pipelines that perfbench/run.py drives.

   Each subcommand mirrors one CLI invocation (same registry lookup,
   same public calls, same order, shipped defaults: flight recorder on,
   default pool width) but wraps every call into a library layer in a
   span written here, outside lib/. A span records wall time, minor
   words and major collections of the calling domain; at the default
   width (one domain on a 2-core machine) that is all the work.

   Subcommands, each printing one JSON object on stdout:

     check -p P -t T --class C [--quotient]
     markov -p P -t T -r R [--quotient]
     montecarlo -p P -t T -r R --runs N --seed S
     campaign FILE --checkpoint CK        fresh run, then resume
     quotient -p P -t T                   Statespace.quotient alone
     expand -p P -t T --class C --width W

   Every space is freshly built, so the (uid, class) expansion cache
   never hides work a CLI process pays. *)

module Json = Stabobs.Json
module Obs = Stabobs.Obs
module Registry = Stabexp.Registry
module Campaign = Stabcampaign.Campaign
module Runner = Stabcampaign.Runner
open Stabcore

(* {1 Spans} *)

type span = {
  name : string;
  parent : string;
  start_ns : int;
  dur_ns : int;
  minor_words : float;
  major : int;
}

let spans = ref []
let stack = ref []

let span name f =
  let parent = match !stack with p :: _ -> p | [] -> "" in
  stack := name :: !stack;
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t0 = Obs.now_ns () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Obs.now_ns () in
      let w1 = Gc.minor_words () in
      let m1 = (Gc.quick_stat ()).Gc.major_collections in
      stack := List.tl !stack;
      spans :=
        { name; parent; start_ns = t0; dur_ns = t1 - t0; minor_words = w1 -. w0; major = m1 - m0 }
        :: !spans)

let span_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("parent", Json.String s.parent);
      ("start_ns", Json.Int s.start_ns);
      ("dur_ns", Json.Int s.dur_ns);
      ("minor_words", Json.Float s.minor_words);
      ("major", Json.Int s.major);
    ]

(* {1 Command line} *)

let args = Array.to_list Sys.argv |> List.tl

let opt key =
  let rec find = function
    | k :: v :: _ when k = key -> v
    | _ :: rest -> find rest
    | [] -> failwith ("missing option " ^ key)
  in
  find args

let flag key = List.mem key args

let positional () =
  match args with
  | _ :: file :: _ when String.length file > 0 && file.[0] <> '-' -> file
  | _ -> failwith "missing FILE argument"

let sched_class = function
  | "central" -> Statespace.Central
  | "distributed" -> Statespace.Distributed
  | "synchronous" -> Statespace.Synchronous
  | s -> invalid_arg ("unknown class " ^ s)

let randomization = function
  | "central-random" -> Markov.Central_uniform
  | "distributed-random" -> Markov.Distributed_uniform
  | "synchronous" -> Markov.Sync
  | s -> invalid_arg ("unknown randomization " ^ s)

let class_of_randomization = function
  | Markov.Central_uniform -> Statespace.Central
  | Markov.Distributed_uniform -> Statespace.Distributed
  | Markov.Sync -> Statespace.Synchronous

let scheduler_of_class = function
  | Statespace.Central -> Scheduler.central_random ()
  | Statespace.Distributed -> Scheduler.distributed_random ()
  | Statespace.Synchronous -> Scheduler.synchronous ()

let find ~protocol ~topology =
  span "registry.find" (fun () -> Registry.find ~name:protocol ~topology ())

(* {1 Pipelines} *)

(* [stabsim check]: build, optional quotient, analyze, then force both
   fairness verdicts as the verdict printer does. On a quotient whose
   certain convergence fails, fairness runs on the base space: expand it
   explicitly first so the Streett analysis is timed apart from the
   expansion it needs. *)
let replay_check ~protocol ~topology ~cls ~quotient =
  let (Registry.Entry e) = find ~protocol ~topology in
  let full = span "statespace.build" (fun () -> Statespace.build e.protocol) in
  let space =
    if quotient then
      span "symmetry.quotient" (fun () -> Statespace.quotient ?relabel:e.relabel full)
    else full
  in
  let g = span "checker.expand" (fun () -> Checker.expand space cls) in
  let v = span "checker.analyze" (fun () -> Checker.analyze space cls e.spec) in
  let transitions =
    if Statespace.is_quotient space && Result.is_error v.Checker.certain then
      let base = span "checker.expand" (fun () -> Checker.expand (Statespace.base space) cls) in
      Checker.graph_edge_count g + Checker.graph_edge_count base
    else Checker.graph_edge_count g
  in
  span "checker.fairness" (fun () ->
      ignore (Lazy.force v.Checker.strongly_fair_diverges);
      ignore (Lazy.force v.Checker.weakly_fair_diverges));
  Json.Obj
    [
      ("configs", Json.Int (Statespace.count full));
      ( "orbits",
        if Statespace.is_quotient space then Json.Int (Statespace.count space) else Json.Null );
      ("transitions", Json.Int transitions);
      ("weak", Json.Bool (Checker.weak_stabilizing v));
      ("self", Json.Bool (Checker.self_stabilizing v));
      ("self_weakly_fair", Json.Bool (Checker.self_stabilizing_weakly_fair v));
      ("self_strongly_fair", Json.Bool (Checker.self_stabilizing_strongly_fair v));
    ]

(* [stabsim markov]: the expansion Markov.of_space reads through the
   cache is made explicit, so markov.of_space times the CSR pack alone. *)
let replay_markov ~protocol ~topology ~r ~quotient =
  let (Registry.Entry e) = find ~protocol ~topology in
  let space = span "statespace.build" (fun () -> Statespace.build e.protocol) in
  let space =
    if quotient then
      span "symmetry.quotient" (fun () -> Statespace.quotient ?relabel:e.relabel space)
    else space
  in
  let legitimate =
    span "statespace.legitimate" (fun () -> Statespace.legitimate_set space e.spec)
  in
  let g = span "checker.expand" (fun () -> Checker.expand space (class_of_randomization r)) in
  let chain = span "markov.of_space" (fun () -> Markov.of_space space r) in
  let common =
    [
      ("configs", Json.Int (Statespace.count (Statespace.base space)));
      ( "orbits",
        if Statespace.is_quotient space then Json.Int (Statespace.count space) else Json.Null );
      ("transitions", Json.Int (Checker.graph_edge_count g));
    ]
  in
  match span "markov.prob1" (fun () -> Markov.converges_with_prob_one chain ~legitimate) with
  | Error c -> Json.Obj (common @ [ ("prob1", Json.Bool false); ("unreachable_from", Json.Int c) ])
  | Ok () ->
    let weights = Statespace.orbit_sizes space in
    let stats, outcome =
      span "markov.solve" (fun () ->
          Markov.hitting_stats_checked ?weights chain ~legitimate)
    in
    let solver =
      match outcome with
      | None -> [ ("solver", Json.String "dense") ]
      | Some (Markov.Converged s) | Some (Markov.Max_sweeps s) ->
        [
          ( "solver",
            Json.String
              (match outcome with Some (Markov.Max_sweeps _) -> "max-sweeps" | _ -> "converged") );
          ("sweeps", Json.Int s.Markov.sweeps);
          ("blocks", Json.Int s.Markov.blocks);
        ]
    in
    Json.Obj
      (common
      @ [ ("prob1", Json.Bool true); ("mean", Json.Float stats.Markov.mean) ]
      @ solver)

(* The step bound of the CLI and of campaign cells. *)
let max_steps = 1_000_000

let replay_montecarlo ~protocol ~topology ~cls ~runs ~seed =
  let (Registry.Entry e) = find ~protocol ~topology in
  let rng = Stabrng.Rng.create seed in
  let r =
    span "montecarlo.estimate" (fun () ->
        Montecarlo.estimate ~runs ~max_steps rng e.protocol (scheduler_of_class cls) e.spec)
  in
  let steps =
    Array.fold_left ( + ) 0 r.Montecarlo.times + (r.Montecarlo.timeouts * max_steps)
  in
  let summary =
    match r.Montecarlo.summary with
    | None -> []
    | Some s ->
      [
        ("mean", Json.Float s.Stabstats.Stats.mean);
        ("stddev", Json.Float s.Stabstats.Stats.stddev);
      ]
  in
  Json.Obj
    ([
       ("runs", Json.Int runs);
       ("converged", Json.Int (Array.length r.Montecarlo.times));
       ("timeouts", Json.Int r.Montecarlo.timeouts);
       ("steps", Json.Int steps);
     ]
    @ summary)

(* {1 Campaigns} *)

let load_campaign file =
  match span "campaign.load" (fun () -> Campaign.load file) with
  | Ok c -> c
  | Error m -> failwith m

(* The CLI's options at its defaults, flight dumps beside the checkpoint. *)
let run_campaign file checkpoint =
  let c = load_campaign file in
  let options =
    {
      (Runner.default_options ()) with
      Runner.checkpoint = Some checkpoint;
      fresh = true;
      domains = Pool.width ();
      flight = Some (Filename.remove_extension checkpoint);
    }
  in
  let outcomes, stats = span "campaign.run" (fun () -> Runner.run ~options c) in
  let resumed, rstats =
    span "campaign.resume" (fun () -> Runner.run ~options:{ options with fresh = false } c)
  in
  let render o = Stabexp.Report.render (Runner.report c o) in
  let busy = List.fold_left (fun a o -> a + o.Runner.duration_ns) 0 outcomes in
  Json.Obj
    [
      ("cells", Json.Int stats.Runner.cells);
      ("done", Json.Int stats.Runner.done_);
      ("retries", Json.Int stats.Runner.retried);
      ("cell_busy_ns", Json.Int busy);
      ("resume_executed", Json.Int rstats.Runner.executed);
      ("reports_identical", Json.Bool (String.equal (render outcomes) (render resumed)));
    ]

(* {1 Probes} *)

let quotient_probe ~protocol ~topology =
  let (Registry.Entry e) = find ~protocol ~topology in
  let full = span "statespace.build" (fun () -> Statespace.build e.protocol) in
  let q = span "symmetry.quotient" (fun () -> Statespace.quotient ?relabel:e.relabel full) in
  Json.Obj [ ("configs", Json.Int (Statespace.count full)); ("orbits", Json.Int (Statespace.count q)) ]

(* One expansion at a given pool width; run.py starts one process per
   width so no width inherits another's heap. *)
let expand_at ~protocol ~topology ~cls ~width =
  Pool.set_width width;
  let (Registry.Entry e) = find ~protocol ~topology in
  let space = span "statespace.build" (fun () -> Statespace.build e.protocol) in
  let g = span "checker.expand" (fun () -> Checker.expand space cls) in
  Json.Obj [ ("width", Json.Int width); ("transitions", Json.Int (Checker.graph_edge_count g)) ]

(* {1 Main} *)

let () =
  let t0 = Obs.now_ns () in
  Stabobs.Flight.enable ();
  let cmd = match args with c :: _ -> c | [] -> "" in
  let protocol () = opt "-p" and topology () = opt "-t" in
  let cls () = sched_class (opt "--class") in
  let result =
    span ("op." ^ cmd) (fun () ->
        match cmd with
        | "check" ->
          replay_check ~protocol:(protocol ()) ~topology:(topology ()) ~cls:(cls ())
            ~quotient:(flag "--quotient")
        | "markov" ->
          replay_markov ~protocol:(protocol ()) ~topology:(topology ())
            ~r:(randomization (opt "-r"))
            ~quotient:(flag "--quotient")
        | "montecarlo" ->
          replay_montecarlo ~protocol:(protocol ()) ~topology:(topology ())
            ~cls:(class_of_randomization (randomization (opt "-r")))
            ~runs:(int_of_string (opt "--runs"))
            ~seed:(int_of_string (opt "--seed"))
        | "campaign" -> run_campaign (positional ()) (opt "--checkpoint")
        | "quotient" -> quotient_probe ~protocol:(protocol ()) ~topology:(topology ())
        | "expand" ->
          expand_at ~protocol:(protocol ()) ~topology:(topology ()) ~cls:(cls ())
            ~width:(int_of_string (opt "--width"))
        | _ ->
          prerr_endline
            "usage: harness (check|markov|montecarlo|campaign|quotient|expand) ...";
          exit 2)
  in
  let gc = Gc.quick_stat () in
  let busy = List.fold_left (fun a (_, ns) -> a + ns) 0 (Pool.busy_ns ()) in
  Json.Obj
    [
      ("cmd", Json.String cmd);
      ("width", Json.Int (Pool.width ()));
      ("wall_ns", Json.Int (Obs.now_ns () - t0));
      ("pool_busy_ns", Json.Int busy);
      ("gc_minor_words", Json.Float (Gc.minor_words ()));
      ("gc_major_collections", Json.Int gc.Gc.major_collections);
      ("spans", Json.List (List.rev_map span_json !spans));
      ("result", result);
    ]
  |> Json.to_string ~minify:true
  |> print_endline
