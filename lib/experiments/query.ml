(** One analysis request.

   The paper asks three questions of one instance — can it converge
   (weak stabilization), must it converge (self stabilization), does it
   converge with probability 1 under a randomized daemon — and the repo
   answers them by exhaustive checking, by the induced Markov chain, by
   on-the-fly exploration or by sampling. A query names the instance,
   the scheduler class, the budgets and the one analysis wanted;
   {!Eval} answers it. [stabsim check/markov/reach/montecarlo] and
   every campaign cell build one. *)

type source =
  | Registry of string  (** a built-in protocol, by {!Registry} name *)
  | File of string  (** a guarded-command program ([.gcp] file) *)

(** Fault plans injected during sampled runs ({!Stabcore.Faults}). *)
type faults =
  | No_faults
  | Periodic of { gap : int; faults : int }
  | Bernoulli of { rate : float; faults : int }
  | Burst of { at : int list; faults : int }

(** How the Monte-Carlo rung samples: for a [Montecarlo] query and for
    any query demoted to sampling. *)
type sampling = {
  scheduler : Stabcore.Scheduler.kind option;
      (** [None]: the uniform randomized daemon of the query's class *)
  runs : int;
  max_steps : int;  (** per-run step budget before a timeout *)
  faults : faults;
}

type analysis =
  | Check  (** exhaustive weak / self / fair-self verdicts *)
  | Markov of {
      solver : Stabcore.Markov.hitting_method option;  (** [None]: size-based default *)
      allow_nonconverged : bool;
          (** accept a sparse solve that exhausted its sweep budget (the
              answer carries the partial iterate) instead of demoting *)
    }  (** probability-1 convergence and expected stabilization times *)
  | Reach of { inits : int; max_states : int }
      (** on-the-fly possible / certain convergence from [inits] random
          initial configurations, exploring at most [max_states] *)
  | Montecarlo  (** sampled stabilization times, per [sampling] *)

type t = {
  source : source;
  topology : string;  (** e.g. ["ring:5"]; see {!Registry.topology_of_string} *)
  transformed : bool;  (** pass through the Section 4 transformer *)
  sched : Stabcore.Statespace.sched_class;
  quotient : bool;  (** analyse the symmetry quotient (exact rung) *)
  crash : int list;  (** crash-fault these processes (induced sub-protocol) *)
  seed : int;  (** seeds random initial configurations and sampling *)
  max_configs : int;  (** exact-analysis configuration budget *)
  sampling : sampling;
  analysis : analysis;
}

(** [token-ring] on [ring:5], distributed class, seed 42, the default
    exact budget of {!Stabcore.Statespace.build}, 1000 fault-free runs
    of at most 1 000 000 steps under the class's daemon, [Check]. *)
let default =
  {
    source = Registry "token-ring";
    topology = "ring:5";
    transformed = false;
    sched = Stabcore.Statespace.Distributed;
    quotient = false;
    crash = [];
    seed = 42;
    max_configs = 2_000_000;
    sampling = { scheduler = None; runs = 1000; max_steps = 1_000_000; faults = No_faults };
    analysis = Check;
  }

(** The answer to a query, as {!Eval.run} returns it: monomorphic,
    with counterexample configurations already rendered. *)
module Result = struct
  module Json = Stabobs.Json
  open Stabcore

  (** An on-the-fly verdict; a failure carries its witness configuration
      (code, rendered). *)
  type verdict = Holds | Fails of { code : int; config : string } | Unknown

  type onthefly = { verdict : verdict; stats : Onthefly.stats }

  type convergence =
    | Prob1 of {
        stats : Markov.hitting_stats;
        solve : Markov.solve_outcome option;  (** [None] for a dense solve *)
      }
    | Stuck of { code : int; config : string }
        (** a configuration from which [L] is unreachable, rendered *)

  type body =
    | Check of {
        configs : int;  (** [|C|] of the full space *)
        orbits : (int * int) option;
            (** group order and orbit count of a nontrivial quotient *)
        verdict : Checker.verdict;
      }
    | Markov of {
        states : int;  (** chain states: orbits on a quotient *)
        configs : int;  (** [|C|] of the full space *)
        lumped : bool;
        convergence : convergence;
      }
    | Reach of { inits : int; possible : onthefly; certain : onthefly }
    | Montecarlo of { scheduler : string; runs : int; estimate : Montecarlo.result }

  type t = { label : string; describe : string; body : body }

  let onthefly_json o =
    Json.String
      (match o.verdict with
      | Holds -> "holds"
      | Fails { code; _ } -> Printf.sprintf "fails@%d" code
      | Unknown -> "unknown")

  let mean_json = function
    | Some s -> Json.Float s.Stabstats.Stats.mean
    | None -> Json.Null

  (** The body as a campaign checkpoint payload. *)
  let to_json r =
    match r.body with
    | Check { configs; verdict = v; _ } ->
      Json.Obj
        [
          ("configs", Json.Int configs);
          ("weak", Json.Bool (Checker.weak_stabilizing v));
          ("self", Json.Bool (Checker.self_stabilizing v));
          ("self_weakly_fair", Json.Bool (Checker.self_stabilizing_weakly_fair v));
          ("self_strongly_fair", Json.Bool (Checker.self_stabilizing_strongly_fair v));
        ]
    | Markov { convergence = Stuck { code; _ }; _ } ->
      Json.Obj [ ("prob1", Json.Bool false); ("unreachable_from", Json.Int code) ]
    | Markov { states; convergence = Prob1 { stats; _ }; _ } ->
      Json.Obj
        [
          ("prob1", Json.Bool true);
          ("configs", Json.Int states);
          ("mean", Json.Float stats.Markov.mean);
          ("max", Json.Float stats.Markov.max);
        ]
    | Reach { inits; possible; certain } ->
      Json.Obj
        [
          ("inits", Json.Int inits);
          ("possible", onthefly_json possible);
          ("certain", onthefly_json certain);
          ("explored", Json.Int possible.stats.Onthefly.explored);
        ]
    | Montecarlo { runs; estimate = e; _ } ->
      Json.Obj
        [
          ("runs", Json.Int runs);
          ("converged", Json.Int (Array.length e.Montecarlo.times));
          ("timeouts", Json.Int e.Montecarlo.timeouts);
          ("mean_steps", mean_json e.Montecarlo.summary);
          ("mean_rounds", mean_json e.Montecarlo.rounds_summary);
        ]
end
