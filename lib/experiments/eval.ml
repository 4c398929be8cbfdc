open Stabcore

let ( let* ) = Stdlib.Result.bind

let resolve_source (q : Query.t) =
  match q.source with
  | Query.Registry name ->
    Registry.find ~name ~topology:q.topology ~transformed:q.transformed ()
  | Query.File path ->
    let program =
      match Stabgcp.Gcp.load path with Ok p -> p | Error m -> failwith m
    in
    let graph = Registry.topology_of_string q.topology in
    let protocol, spec =
      match Stabgcp.Gcp.instantiate program graph with
      | Ok pair -> pair
      | Error m -> failwith m
    in
    let label = Printf.sprintf "%s(%s)" (Stabgcp.Gcp.name program) q.topology in
    let describe = Printf.sprintf "loaded from %s" path in
    if q.transformed then
      Registry.Entry
        {
          label = "trans(" ^ label ^ ")";
          protocol = Transformer.randomize protocol;
          spec = Transformer.lift_spec spec;
          relabel = None;
          describe;
        }
    else Registry.Entry { label; protocol; spec; relabel = None; describe }

let resolve (q : Query.t) =
  match (resolve_source q, q.crash) with
  | entry, [] -> entry
  | Registry.Entry e, failed ->
    (* The Dolev-Herman question: does stabilization survive when
       these processes permanently stop executing? *)
    Registry.Entry
      {
        e with
        protocol = Faults.crash_protocol e.protocol ~failed;
        label =
          Printf.sprintf "%s, crash-faulted [%s]" e.label
            (String.concat "," (List.map string_of_int failed));
      }

type rung = Exact | Onthefly | Montecarlo

let rung_label = function
  | Exact -> "exact"
  | Onthefly -> "onthefly"
  | Montecarlo -> "montecarlo"

let ladder (q : Query.t) =
  match q.analysis with
  | Query.Check -> [ Exact; Onthefly; Montecarlo ]
  | Query.Markov _ -> [ Exact; Montecarlo ]
  | Query.Reach _ -> [ Onthefly ]
  | Query.Montecarlo -> [ Montecarlo ]

module Result = Query.Result

let run (q : Query.t) rung =
  let (Registry.Entry e) = resolve q in
  let render space code =
    Format.asprintf "%a" (Protocol.pp_config e.protocol) (Statespace.config space code)
  in
  let exact () =
    let* full = Statespace.try_build ~max_configs:q.max_configs e.protocol in
    Ok (full, if q.quotient then Statespace.quotient ?relabel:e.relabel full else full)
  in
  let* body =
    match (rung, q.analysis) with
    | Exact, Query.Check ->
      let* full, space = exact () in
      let verdict = Checker.analyze space q.sched e.spec in
      let orbits =
        if Statespace.is_quotient space then
          Some (Statespace.symmetry_order space, Statespace.count space)
        else None
      in
      Ok (Result.Check { configs = Statespace.count full; orbits; verdict })
    | Exact, Query.Markov { solver; allow_nonconverged } -> (
      let* full, space = exact () in
      let legitimate = Statespace.legitimate_set space e.spec in
      let chain = Markov.of_space space (Markov.of_class q.sched) in
      let markov convergence =
        Result.Markov
          {
            states = Statespace.count space;
            configs = Statespace.count full;
            lumped = Statespace.is_quotient space;
            convergence;
          }
      in
      match Markov.hitting_times_checked ?method_:solver chain ~legitimate with
      | Error code -> Ok (markov (Result.Stuck { code; config = render space code }))
      | Ok (times, solve) -> (
        let stats = Markov.stats_of_times ?weights:(Statespace.orbit_sizes space) times in
        match solve with
        | Some (Markov.Max_sweeps s) when not allow_nonconverged ->
          Error
            (Printf.sprintf
               "sparse solver hit its sweep budget (%d sweeps across %d blocks, final \
                relative residual %g)"
               s.Markov.sweeps s.Markov.blocks s.Markov.residual)
        | _ -> Ok (markov (Result.Prob1 { stats; solve }))))
    | Exact, (Query.Reach _ | Query.Montecarlo) ->
      invalid_arg "Eval.run: reach and montecarlo queries have no exact rung"
    | Onthefly, analysis ->
      let inits, max_states =
        match analysis with
        | Query.Reach { inits; max_states } -> (inits, max_states)
        | Query.Check | Query.Markov _ | Query.Montecarlo -> (5, q.max_configs)
      in
      (* Only the encoding is materialized; exploration is capped at
         [max_states] configurations. *)
      let* space = Statespace.try_build ~max_configs:max_int e.protocol in
      let rng = Stabrng.Rng.create q.seed in
      let configs = List.init inits (fun _ -> Protocol.random_config rng e.protocol) in
      let answer (verdict, stats) =
        let verdict =
          match verdict with
          | Onthefly.Converges -> Result.Holds
          | Onthefly.Counterexample code -> Result.Fails { code; config = render space code }
          | Onthefly.Unknown -> Result.Unknown
        in
        { Result.verdict; stats }
      in
      let possible =
        answer
          (Onthefly.possible_convergence_from ~max_states space q.sched e.spec
             ~inits:configs)
      in
      let certain =
        answer
          (Onthefly.certain_convergence_from ~max_states space q.sched e.spec
             ~inits:configs)
      in
      Ok (Result.Reach { inits; possible; certain })
    | Montecarlo, _ ->
      let s = q.sampling in
      let sched =
        match s.scheduler with
        | None -> Scheduler.of_class q.sched
        | Some kind -> Scheduler.make kind
      in
      let inject =
        match s.faults with
        | Query.No_faults -> None
        | Query.Periodic { gap; faults } ->
          Some (Faults.arm (Faults.periodic e.protocol ~gap ~faults))
        | Query.Bernoulli { rate; faults } ->
          Some (Faults.arm (Faults.bernoulli e.protocol ~rate ~faults))
        | Query.Burst { at; faults } -> Some (Faults.arm (Faults.burst e.protocol ~at ~faults))
      in
      let rng = Stabrng.Rng.create q.seed in
      let estimate =
        Montecarlo.estimate ?inject ~runs:s.runs ~max_steps:s.max_steps rng e.protocol
          sched e.spec
      in
      Ok (Result.Montecarlo { scheduler = sched.Scheduler.name; runs = s.runs; estimate })
  in
  Ok { Result.label = e.label; describe = e.describe; body }
