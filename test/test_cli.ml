(* Golden CLI outputs: the exact stdout, stderr and exit code of the
   built stabsim for a fixed set of invocations. Every case runs the
   real executable at its shipped defaults, so a refactor behind the
   subcommands (argument parsing, protocol resolution, the analyses,
   the printers) must leave these bytes unchanged. *)

let stabsim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/stabsim.exe"

let run args =
  let out = Filename.temp_file "stabsim-cli" ".out" in
  let err = Filename.temp_file "stabsim-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
  @@ fun () ->
  let open_fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = open_fd out and fd_err = open_fd err in
  let pid =
    Unix.create_process stabsim
      (Array.of_list (stabsim :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "stabsim died on signal %d" n
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

let golden name args ~code ~stdout ~stderr =
  Alcotest.test_case name `Quick (fun () ->
      let c, out, err = run args in
      Alcotest.(check string) "stdout" stdout out;
      Alcotest.(check string) "stderr" stderr err;
      Alcotest.(check int) "exit code" code c)

(* A zero count or budget is a usage error at parse time: nothing on
   stdout, cmdliner's usage exit code, the option named on stderr. *)
let rejected name args ~option =
  Alcotest.test_case name `Quick (fun () ->
      let c, out, err = run args in
      Alcotest.(check string) "stdout" "" out;
      Alcotest.(check int) "exit code" 124 c;
      let first_line = List.hd (String.split_on_char '\n' err) in
      Alcotest.(check string)
        "stderr" (Printf.sprintf "stabsim: option '%s': expected a positive integer, got \"0\"" option)
        first_line)

let suite =
  [
    golden "check ring:5" [ "check"; "-p"; "token-ring"; "-t"; "ring:5" ] ~code:0
      ~stdout:{|token-ring(n=5) under the distributed class (32 configurations)
Algorithm 1: weak-stabilizing token circulation on anonymous rings

closure: yes
possible convergence: yes
certain convergence: no
strongly-fair divergence: witness of 2 states
weakly-fair divergence: witness of 2 states
illegitimate terminals: 0

verdicts:
  weak-stabilizing: true
  self-stabilizing (unfair): false
  self-stabilizing (weakly fair): false
  self-stabilizing (strongly fair): false
|}
      ~stderr:{||};
    golden "check ring:5 quotient" [ "check"; "-p"; "token-ring"; "-t"; "ring:5"; "--quotient" ] ~code:0
      ~stdout:{|token-ring(n=5) under the distributed class (32 configurations)
Algorithm 1: weak-stabilizing token circulation on anonymous rings
symmetry quotient: group order 5, 8 orbit representatives

closure: yes
possible convergence: yes
certain convergence: no
strongly-fair divergence: witness of 2 states
weakly-fair divergence: witness of 2 states
illegitimate terminals: 0

verdicts:
  weak-stabilizing: true
  self-stabilizing (unfair): false
  self-stabilizing (weakly fair): false
  self-stabilizing (strongly fair): false
|}
      ~stderr:{||};
    golden "check ring:5 crash" [ "check"; "-p"; "token-ring"; "-t"; "ring:5"; "--crash"; "0" ] ~code:0
      ~stdout:{|token-ring(n=5), crash-faulted [0] under the distributed class (32 configurations)
Algorithm 1: weak-stabilizing token circulation on anonymous rings

closure: yes
possible convergence: yes
certain convergence: yes
strongly-fair divergence: none
weakly-fair divergence: none
illegitimate terminals: 0

verdicts:
  weak-stabilizing: true
  self-stabilizing (unfair): true
  self-stabilizing (weakly fair): true
  self-stabilizing (strongly fair): true
|}
      ~stderr:{||};
    golden "markov ring:5" [ "markov"; "-p"; "token-ring"; "-t"; "ring:5" ] ~code:0
      ~stdout:{|token-ring(n=5): converges with probability 1 under distributed-random
expected stabilization time: mean 1.6979 steps, worst initial configuration 2.8000 steps
|}
      ~stderr:{||};
    golden "markov ring:5 quotient" [ "markov"; "-p"; "token-ring"; "-t"; "ring:5"; "--quotient" ] ~code:0
      ~stdout:{|orbit-lumped chain: 8 states for 32 configurations
token-ring(n=5): converges with probability 1 under distributed-random
expected stabilization time: mean 1.6979 steps, worst initial configuration 2.8000 steps
|}
      ~stderr:{||};
    golden "markov ring:5 gs" [ "markov"; "-p"; "token-ring"; "-t"; "ring:5"; "--solver"; "gs" ] ~code:0
      ~stdout:{|sparse solve: 2 blocks, 31 sweeps, final relative residual 6.99556e-11
token-ring(n=5): converges with probability 1 under distributed-random
expected stabilization time: mean 1.6979 steps, worst initial configuration 2.8000 steps
|}
      ~stderr:{||};
    golden "markov herman ring:7 central gs"
      [ "markov"; "-p"; "herman"; "-t"; "ring:7"; "-r"; "central-random"; "--solver"; "gs" ]
      ~code:0
      ~stdout:{|sparse solve: 1 blocks, 253 sweeps, final relative residual 9.35089e-11
herman(n=7): converges with probability 1 under central-random
expected stabilization time: mean 31.2912 steps, worst initial configuration 39.2972 steps
|}
      ~stderr:{||};
    golden "markov herman ring:7 central jacobi"
      [ "markov"; "-p"; "herman"; "-t"; "ring:7"; "-r"; "central-random"; "--solver"; "jacobi" ]
      ~code:0
      ~stdout:{|sparse solve: 1 blocks, 483 sweeps, final relative residual 9.9744e-11
herman(n=7): converges with probability 1 under central-random
expected stabilization time: mean 31.2912 steps, worst initial configuration 39.2972 steps
|}
      ~stderr:{||};
    golden "markov ring:4 synchronous" [ "markov"; "-p"; "token-ring"; "-t"; "ring:4"; "-r"; "synchronous" ] ~code:0
      ~stdout:{|token-ring(n=4): does NOT converge with probability 1 under synchronous
counterexample configuration (code 0): [0 0 0 0]
|}
      ~stderr:{||};
    golden "reach ring:6" [ "reach"; "-p"; "token-ring"; "-t"; "ring:6" ] ~code:0
      ~stdout:{|token-ring(n=6) under the distributed class, 5 random initial configurations (seed 42)
possible convergence (weak): HOLDS on the reachable sub-system (explored 2216 configurations, 34280 edges)
certain convergence (self): FAILS; counterexample [1 0 1 0 1 0] (explored 2216 configurations, 34280 edges)
|}
      ~stderr:{||};
    golden "montecarlo ring:5" [ "montecarlo"; "-p"; "token-ring"; "-t"; "ring:5"; "--runs"; "200" ] ~code:0
      ~stdout:{|token-ring(n=5) under distributed-random: 200 runs from uniform initial configurations
steps: 1.695 +/- 0.141 [0.000, 12.000] (n=200); rounds: 0.755 +/- 0.073 [0.000, 4.000] (n=200); timeouts: 0
|}
      ~stderr:{||};
    golden "faults exact" [ "faults"; "-p"; "token-ring"; "-t"; "ring:4"; "--class"; "central"; "--runs"; "20"; "--horizon"; "200" ] ~code:0
      ~stdout:{|token-ring(n=4) resilience under the central class (81 configurations, exact)
Algorithm 1: weak-stabilizing token circulation on anonymous rings

k = 1: 60 faulty configurations (48 outside L)
  guaranteed recovery: no (worst case unbounded)
  prob-1 recovery under the randomized daemon: true
  expected recovery: mean 2.7500 steps, worst faulty configuration 3.0000 steps
k = 2: 81 faulty configurations (69 outside L)
  guaranteed recovery: no (worst case unbounded)
  prob-1 recovery under the randomized daemon: true
  expected recovery: mean 3.0870 steps, worst faulty configuration 4.0000 steps
k = 3: 81 faulty configurations (69 outside L)
  guaranteed recovery: no (worst case unbounded)
  prob-1 recovery under the randomized daemon: true
  expected recovery: mean 3.0870 steps, worst faulty configuration 4.0000 steps
resilience radius (k <= 3): adversarial 0, probabilistic 3

availability under recurrent faults (horizon 200 steps):
  k = 1 under periodic(gap=50,k=1): mean availability 0.9851 (ci95 [0.9777, 0.9925], min 0.9353 over 20 runs)
  k = 2 under periodic(gap=50,k=2): mean availability 0.9704 (ci95 [0.9603, 0.9805], min 0.8955 over 20 runs)
  k = 3 under periodic(gap=50,k=3): mean availability 0.9674 (ci95 [0.9552, 0.9796], min 0.9154 over 20 runs)
|}
      ~stderr:{||};
    golden "faults onthefly" [ "faults"; "-p"; "token-ring"; "-t"; "ring:4"; "--class"; "central"; "--runs"; "20"; "--horizon"; "200"; "--max-configs"; "10" ] ~code:0
      ~stdout:{|token-ring(n=4) resilience under the central class (on-the-fly)
Algorithm 1: weak-stabilizing token circulation on anonymous rings

k = 1 (20 sampled corruptions): possible convergence unknown (state budget exhausted); certain convergence unknown (state budget exhausted) (explored 10 configurations)
k = 2 (20 sampled corruptions): possible convergence unknown (state budget exhausted); certain convergence unknown (state budget exhausted) (explored 13 configurations)
k = 3 (20 sampled corruptions): possible convergence unknown (state budget exhausted); certain convergence unknown (state budget exhausted) (explored 15 configurations)

sampled recovery from a stabilized start, central-random daemon:
  k = 1 faults: steps: 1.650 +/- 0.466 [0.000, 9.000] (n=20); rounds: 0.300 +/- 0.164 [0.000, 3.000] (n=20); timeouts: 0
  k = 2 faults: steps: 2.750 +/- 0.481 [0.000, 8.000] (n=20); rounds: 0.500 +/- 0.154 [0.000, 2.000] (n=20); timeouts: 0
  k = 3 faults: steps: 2.850 +/- 0.455 [1.000, 7.000] (n=20); rounds: 0.500 +/- 0.185 [0.000, 3.000] (n=20); timeouts: 0
availability under recurrent faults (horizon 200 steps):
  k = 1 under periodic(gap=50,k=1): mean availability 0.9786 (ci95 [0.9697, 0.9875], min 0.9154 over 20 runs)
  k = 2 under periodic(gap=50,k=2): mean availability 0.9694 (ci95 [0.9599, 0.9789], min 0.9254 over 20 runs)
  k = 3 under periodic(gap=50,k=3): mean availability 0.9766 (ci95 [0.9679, 0.9854], min 0.9104 over 20 runs)
|}
      ~stderr:{|warning: 81 configurations exceed the exact budget (--max-configs 10); degrading to on-the-fly + Monte-Carlo analysis
|};
    golden "check oversized" [ "check"; "-t"; "ring:40" ] ~code:124
      ~stdout:{||}
      ~stderr:{|stabsim: Encoding.make: state space too large
|};
    golden "check bad topology" [ "check"; "-t"; "ring:x" ] ~code:124
      ~stdout:{||}
      ~stderr:{|stabsim: Registry: bad topology "ring:x" (expected ring:N, chain:N, star:N, random:N:SEED or N)
|};
    rejected "reach zero inits" [ "reach"; "--inits"; "0" ] ~option:"--inits";
    rejected "faults zero runs" [ "faults"; "--runs"; "0" ] ~option:"--runs";
    rejected "faults zero gap" [ "faults"; "--gap"; "0" ] ~option:"--gap";
    rejected "faults zero horizon" [ "faults"; "--horizon"; "0" ] ~option:"--horizon";
    rejected "montecarlo zero max-steps" [ "montecarlo"; "--max-steps"; "0" ]
      ~option:"--max-steps";
  ]
