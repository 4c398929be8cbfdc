type randomization = Central_uniform | Distributed_uniform | Sync

let of_class = function
  | Statespace.Central -> Central_uniform
  | Statespace.Distributed -> Distributed_uniform
  | Statespace.Synchronous -> Sync

(* The chain lives in compressed-sparse-row form, packed straight off
   the checker's flat successor arrays: row [c] occupies
   [off.(c) .. off.(c + 1) - 1] of [cols]/[w], targets merged and
   sorted ascending, weights summing to 1. Terminal configurations are
   stored as probability-1 self-loops, so every row is non-empty and
   the solvers never special-case absorption. *)
type t = { n : int; off : int array; cols : int array; w : float array }

let states chain = chain.n

let row chain c =
  let out = ref [] in
  for i = chain.off.(c + 1) - 1 downto chain.off.(c) do
    out := (chain.cols.(i), chain.w.(i)) :: !out
  done;
  !out

let iter_row chain c f =
  for i = chain.off.(c) to chain.off.(c + 1) - 1 do
    f chain.cols.(i) chain.w.(i)
  done

let merge_row entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, w) ->
      let prev = Option.value (Hashtbl.find_opt tbl c) ~default:0.0 in
      Hashtbl.replace tbl c (prev +. w))
    entries;
  Hashtbl.fold (fun c w acc -> (c, w) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* In-place ascending sort of the distinct ints [a.(lo) .. a.(hi - 1)]:
   quicksort on the median of three, insertion sort below 16 elements,
   recursing into the smaller side so the stack stays logarithmic.
   Keys are distinct, so every algorithm yields the same layout. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let x = a.(lo) and y = a.((lo + hi) / 2) and z = a.(hi - 1) in
    let pivot = Int.max (Int.min x y) (Int.min (Int.max x y) z) in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j + 1 - lo < hi - !i then begin
      sort_range a lo (!j + 1);
      sort_range a !i hi
    end
    else begin
      sort_range a !i hi;
      sort_range a lo (!j + 1)
    end
  end

(* Per-domain merge scratch over target states: [stamp.(t) = base + c]
   marks [t] as seen in row [c] of the pass whose marks start at
   [base]. Every pass draws a fresh range of [n] marks from
   [stamp_base], so marks left by earlier passes (or earlier chains)
   never alias a row of this one and the arrays are reused without
   refilling. *)
type scratch = { mutable stamp : int array; mutable acc : float array }

let stamp_base = Atomic.make 0

let dls_scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stamp = [||]; acc = [||] })

let scratch n =
  let s = Domain.DLS.get dls_scratch in
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n (-1);
    s.acc <- Array.make n 0.0
  end;
  s

let count_grain = Pool.Grain.site "markov.count"
let pack_grain = Pool.Grain.site "markov.pack"

(* The one CSR packer, over flat row ranges laid out like the checker's
   packed graph: row [c]'s entries are [succ.(i)] with weight
   [succ_w.(i) /. groups] for [i] in
   [succ_off.(grp_off.(c)) .. succ_off.(grp_off.(c + 1)) - 1], where
   [groups = grp_off.(c + 1) - grp_off.(c)]. A count pass sizes each row
   by its distinct targets, prefix sums place the rows, and a fill pass
   merges duplicates in arrival order (first occurrence sets the
   weight, later ones add to it), sorts the targets ascending in place
   and writes exact-size arrays; empty rows become absorbing
   self-loops. Rows are not short — on dijkstra-3state ring:11 under
   the distributed class the mean out-degree is 66.7 and the largest
   1020 — and arrive unsorted, hence the quicksort. Both passes are
   pool [parallel_for]s over disjoint row slices (inline at width 1), so
   the chain is the same at every width. *)
let pack n ~grp_off ~succ_off ~succ ~succ_w =
  let off = Array.make (n + 1) 0 in
  let base = Atomic.fetch_and_add stamp_base n in
  Pool.parallel_for ~site:count_grain ~min_chunk:64 n (fun ~lo ~hi ->
      let stamp = (scratch n).stamp in
      for c = lo to hi - 1 do
        if c land 1023 = 0 then Cancel.poll ();
        let mark = base + c in
        let distinct = ref 0 in
        for i = succ_off.(grp_off.(c)) to succ_off.(grp_off.(c + 1)) - 1 do
          let t = succ.(i) in
          if stamp.(t) <> mark then begin
            stamp.(t) <- mark;
            incr distinct
          end
        done;
        off.(c + 1) <- max 1 !distinct
      done);
  for c = 0 to n - 1 do
    off.(c + 1) <- off.(c + 1) + off.(c)
  done;
  let cols = Array.make off.(n) 0 and w = Array.make off.(n) 0.0 in
  let base = Atomic.fetch_and_add stamp_base n in
  Pool.parallel_for ~site:pack_grain ~min_chunk:64 n (fun ~lo ~hi ->
      let { stamp; acc } = scratch n in
      for c = lo to hi - 1 do
        if c land 1023 = 0 then Cancel.poll ();
        let mark = base + c in
        let glo = grp_off.(c) and ghi = grp_off.(c + 1) in
        let first = off.(c) in
        if succ_off.(glo) = succ_off.(ghi) then begin
          cols.(first) <- c;
          w.(first) <- 1.0 (* terminal: absorbing *)
        end
        else begin
          let scale = 1.0 /. float_of_int (ghi - glo) in
          let len = ref first in
          for i = succ_off.(glo) to succ_off.(ghi) - 1 do
            let t = succ.(i) in
            let wt = succ_w.(i) *. scale in
            if stamp.(t) = mark then acc.(t) <- acc.(t) +. wt
            else begin
              stamp.(t) <- mark;
              acc.(t) <- wt;
              cols.(!len) <- t;
              incr len
            end
          done;
          sort_range cols first !len;
          for i = first to !len - 1 do
            w.(i) <- acc.(cols.(i))
          done
        end
      done);
  { n; off; cols; w }

(* Strong-lumpability audit of a quotient chain, enabled by paranoid
   mode: every orbit member of the *full* space must project (through
   rep_of) onto exactly the lumped row its representative got. This is
   the condition making quotient hitting times and absorption
   probabilities equal to the full chain's. Expensive — it expands the
   base space — and therefore gated. *)
let check_lumpability chain space base reps rep_of cls =
  let g = Checker.expand base cls in
  let project entries =
    match entries with
    | [] -> None
    | _ -> Some (merge_row (List.map (fun (c, w) -> (rep_of.(c), w)) entries))
  in
  let fail c =
    invalid_arg
      (Printf.sprintf
         "Markov.of_space: lumpability violated at full-space code %d (quotient uid \
          %d)"
         c (Statespace.uid space))
  in
  for c = 0 to Statespace.count base - 1 do
    let expected = row chain rep_of.(c) in
    match project (Checker.weighted_row g c) with
    | None ->
      (* Terminal in the base: its representative must be absorbing. *)
      if expected <> [ (rep_of.(c), 1.0) ] then fail c
    | Some row ->
      if
        List.length row <> List.length expected
        || not
             (List.for_all2
                (fun (i, w) (i', w') -> i = i' && Float.abs (w -. w') <= 1e-9)
                row expected)
      then fail c
  done;
  ignore reps

(* The chain is read off the checker's packed expansion, so a space
   analysed exhaustively and then probabilistically expands its
   transition relation once, not twice. On a quotient space the packed
   graph already has canonicalized targets, so the very same read-off
   produces the lumped chain; orbit sizes only matter to consumers that
   average over the full space (see {!hitting_stats}). *)
let of_space space randomization =
  Stabobs.Obs.span "markov.of_space" @@ fun () ->
  let cls =
    match randomization with
    | Central_uniform -> Statespace.Central
    | Distributed_uniform -> Statespace.Distributed
    | Sync -> Statespace.Synchronous
  in
  let g = Checker.expand space cls in
  let grp_off, succ_off, succ, succ_w = Checker.csr g in
  let chain = pack (Statespace.count space) ~grp_off ~succ_off ~succ ~succ_w in
  (if Symmetry.paranoid_enabled () then
     match Statespace.quotient_view space with
     | None -> ()
     | Some (base, reps, rep_of, _) ->
       check_lumpability chain space base reps rep_of cls);
  chain

let of_rows rows =
  let n = Array.length rows in
  Array.iter
    (fun entries ->
      match entries with
      | [] -> ()
      | _ ->
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 entries in
        List.iter
          (fun (c, w) ->
            if c < 0 || c >= n then invalid_arg "Markov.of_rows: target out of range";
            if w <= 0.0 then invalid_arg "Markov.of_rows: non-positive weight")
          entries;
        if Float.abs (total -. 1.0) > 1e-9 then
          invalid_arg "Markov.of_rows: row does not sum to 1")
    rows;
  (* One single-group row per state, so weights pass through the
     packer's [1 /. groups] scaling unchanged. *)
  let succ_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun c entries -> succ_off.(c + 1) <- succ_off.(c) + List.length entries)
    rows;
  let succ = Array.make succ_off.(n) 0 and succ_w = Array.make succ_off.(n) 0.0 in
  Array.iteri
    (fun c entries ->
      List.iteri
        (fun i (c', w) ->
          succ.(succ_off.(c) + i) <- c';
          succ_w.(succ_off.(c) + i) <- w)
        entries)
    rows;
  pack n ~grp_off:(Array.init (n + 1) Fun.id) ~succ_off ~succ ~succ_w

(* The {!Scc} pass over the positive-probability graph, with every
   component's members sorted ascending in place: components come out
   sinks-first (every edge out of a component lands inside it, in an
   earlier component, or on a state the mask does not decompose), the
   order per-block solves run in, and the sort fixes the order a
   Gauss-Seidel sweep visits a block's states. *)
let decompose chain mask =
  Stabobs.Obs.span "markov.scc" @@ fun () ->
  let scc = Scc.decompose ~off:chain.off ~cols:chain.cols mask in
  for b = 0 to scc.blocks - 1 do
    sort_range scc.order scc.block_off.(b) scc.block_off.(b + 1)
  done;
  scc

let components chain mask =
  let scc = decompose chain mask in
  List.init scc.blocks (fun b ->
      Array.sub scc.order scc.block_off.(b) (scc.block_off.(b + 1) - scc.block_off.(b)))

let bsccs chain =
  let comps = components chain (Bytes.make chain.n Scc.alive) in
  let component = Array.make chain.n (-1) in
  List.iteri (fun i members -> Array.iter (fun c -> component.(c) <- i) members) comps;
  List.filteri
    (fun i members ->
      Array.for_all
        (fun c ->
          let inside = ref true in
          iter_row chain c (fun c' _ -> if component.(c') <> i then inside := false);
          !inside)
        members)
    comps
  |> List.map Array.to_list

let transient_blocks chain ~transient =
  components chain
    (Bytes.init chain.n (fun c -> if transient.(c) then Scc.alive else Scc.outside))

(* Reachability is forward: decompose the states outside [target] and
   read the reach flags, so no reverse adjacency is built. *)
let reaches chain ~target =
  let scc = decompose chain (Scc.avoiding target) in
  Array.init chain.n (fun c -> target.(c) || Scc.reached scc c)

let converges_with_prob_one chain ~legitimate =
  match Scc.first_unreached (decompose chain (Scc.avoiding legitimate)) with
  | None -> Ok ()
  | Some c -> Error c

type sparse_kind = Gauss_seidel | Jacobi

type hitting_method =
  | Exact
  | Sparse of { kind : sparse_kind; tolerance : float; max_sweeps : int }

type solve_stats = { sweeps : int; residual : float; blocks : int }
type solve_outcome = Converged of solve_stats | Max_sweeps of solve_stats

(* Blocked substochastic solve of x = base + P x over the components
   of [scc] (all of them, or with [~reaching_only] those whose states
   reach the decomposition's targets), in place in [x]; other entries
   are boundary values and never written. Components come sinks-first,
   so every out-of-block target read during a block's sweeps is already
   final — acyclic transient parts (self-stabilizing protocols) reduce
   to exact back-substitution, and iteration cost concentrates on the
   recurrent-looking blocks that need it. Blocks are read as slices of
   the flat [order] layout, members ascending. Each equation is
   diagonal-solved: x(c) = (base + sum_{c' <> c} w x(c')) / (1 - w_cc),
   which makes singleton blocks exact in one evaluation. Stops on the
   relative residual ||x_{k+1} - x_k||_inf / max(1, ||x||_inf) <= tol;
   a block exceeding [max_sweeps] aborts the remaining blocks and
   reports [Max_sweeps] with the partial iterate left in [x]. *)
let solve_transient ~kind ~tolerance ~max_sweeps chain (scc : Scc.t) ~reaching_only ~base x =
  Stabobs.Obs.span "markov.solve.sparse" @@ fun () ->
  let { off; cols; w; _ } = chain in
  let { Scc.order; block_off; _ } = scc in
  let kept b = (not reaching_only) || Scc.reached scc order.(block_off.(b)) in
  (* Neighbours are read from [src]: [x] itself for Gauss-Seidel; for
     Jacobi a mirror of [x] that [settle] refreshes over a block before
     each sweep and once the block is solved, so a sweep reads the
     previous iterate inside its block and final values outside it. *)
  let src = match kind with Gauss_seidel -> x | Jacobi -> Array.copy x in
  let settle lo hi =
    if src != x then
      for k = lo to hi - 1 do
        src.(order.(k)) <- x.(order.(k))
      done
  in
  (* One sweep of the block [order.(lo) .. order.(hi - 1)] in place,
     leaving the relative residual in [residual.(0)] (an unboxed float
     cell, so the call returns no boxed float). The sums run in CSR
     order over local float refs that no closure captures, so nothing
     is allocated per sweep, state or edge. Where no mass leaks through
     the diagonal (w_cc = 1 on a transient state violates the
     solvability precondition) the plain fixed-point update keeps the
     sweep finite, so the block times out instead of dividing by zero;
     [Float.max] keeps a NaN iterate unconverged. *)
  let residual = Array.make 1 0.0 in
  let sweep lo hi =
    let delta = ref 0.0 and norm = ref 1.0 (* max(1, ||x||_inf) *) in
    for k = lo to hi - 1 do
      let c = order.(k) in
      let acc = ref base and self = ref 0.0 in
      for i = off.(c) to off.(c + 1) - 1 do
        let c' = cols.(i) in
        if c' = c then self := !self +. w.(i) else acc := !acc +. (w.(i) *. src.(c'))
      done;
      let d = 1.0 -. !self in
      let v = if d > 1e-12 then !acc /. d else !acc +. (!self *. src.(c)) in
      delta := Float.max !delta (Float.abs (v -. x.(c)));
      norm := Float.max !norm (Float.abs v);
      x.(c) <- v
    done;
    residual.(0) <- !delta /. !norm
  in
  let total_sweeps = ref 0 and worst = ref 0.0 and failed = ref false in
  let solve_block lo hi =
    if hi - lo = 1 then begin
      let c = order.(lo) and self = ref 0.0 in
      for i = off.(c) to off.(c + 1) - 1 do
        if cols.(i) = c then self := !self +. w.(i)
      done;
      (* Exact in one sweep, unless absorbing in transient: no finite solution. *)
      if 1.0 -. !self > 1e-12 then sweep lo hi else failed := true
    end
    else
      Stabobs.Obs.span "markov.solve.block" ~args:[ ("size", Stabobs.Json.Int (hi - lo)) ]
      @@ fun () ->
      let sweeps = ref 0 in
      residual.(0) <- infinity;
      while not (residual.(0) <= tolerance || !failed) do
        Cancel.poll ();
        if !sweeps >= max_sweeps then failed := true
        else begin
          incr sweeps;
          settle lo hi;
          sweep lo hi;
          Stabobs.Dist.record Stabobs.Dist.markov_solve_residual residual.(0)
        end
      done;
      Stabobs.Obs.Counter.add Stabobs.Obs.markov_solve_sweeps !sweeps;
      total_sweeps := !total_sweeps + !sweeps;
      worst := Float.max !worst residual.(0)
  in
  let blocks = ref 0 in
  for b = 0 to scc.blocks - 1 do
    if b land 1023 = 0 then Cancel.poll ();
    if kept b then begin
      incr blocks;
      if not !failed then begin
        solve_block block_off.(b) block_off.(b + 1);
        settle block_off.(b) block_off.(b + 1)
      end
    end
  done;
  let stats = { sweeps = !total_sweeps; residual = !worst; blocks = !blocks } in
  if !failed then Max_sweeps { stats with residual = infinity } else Converged stats

let sparse_hitting_times ?(kind = Gauss_seidel) ?(tolerance = 1e-10)
    ?(max_sweeps = 1_000_000) chain ~legitimate =
  let scc = decompose chain (Scc.avoiding legitimate) in
  let x = Array.make chain.n 0.0 in
  let outcome =
    solve_transient ~kind ~tolerance ~max_sweeps chain scc ~reaching_only:false ~base:1.0 x
  in
  (x, outcome)

(* The states that cannot reach L keep 0: only the components whose
   reach flag is set are solved. *)
let sparse_absorption ?(kind = Gauss_seidel) ?(tolerance = 1e-12)
    ?(max_sweeps = 1_000_000) chain ~legitimate =
  let scc = decompose chain (Scc.avoiding legitimate) in
  let x = Array.map (fun l -> if l then 1.0 else 0.0) legitimate in
  let outcome =
    solve_transient ~kind ~tolerance ~max_sweeps chain scc ~reaching_only:true ~base:0.0 x
  in
  (x, outcome)

let no_convergence fn ~tolerance (stats : solve_stats) =
  failwith
    (Printf.sprintf
       "Markov.%s: no convergence after %d sweeps across %d blocks (relative \
        residual %g, tolerance %g)"
       fn stats.sweeps stats.blocks stats.residual tolerance)

let exact_hitting chain ~legitimate ~transient =
  Stabobs.Obs.span "markov.solve.exact" @@ fun () ->
  let t_count = Array.length transient in
  let pos = Array.make (states chain) (-1) in
  Array.iteri (fun i c -> pos.(c) <- i) transient;
  let a = Stablinalg.Matrix.identity t_count in
  Array.iteri
    (fun i c ->
      iter_row chain c (fun c' w ->
          if not legitimate.(c') then begin
            let j = pos.(c') in
            Stablinalg.Matrix.set a i j (Stablinalg.Matrix.get a i j -. w)
          end))
    transient;
  Stablinalg.Matrix.solve a (Array.make t_count 1.0)

(* The states [keep] marks, ascending. *)
let states_where keep =
  let out = Array.make (Array.fold_left (fun k b -> if b then k + 1 else k) 0 keep) 0 in
  let k = ref 0 in
  Array.iteri
    (fun c b ->
      if b then begin
        out.(!k) <- c;
        incr k
      end)
    keep;
  out

(* One decomposition of the states outside L answers both questions:
   the first state without a reach flag is the typed [Error], and the
   components are the sparse solver's blocks. *)
let hitting_times_checked ?method_ chain ~legitimate =
  let scc = decompose chain (Scc.avoiding legitimate) in
  match Scc.first_unreached scc with
  | Some c -> Error c
  | None ->
    let n = states chain in
    let t_count = scc.block_off.(scc.blocks) (* the states outside L *) in
    if t_count = 0 then Ok (Array.make n 0.0, None)
    else begin
      let method_ =
        match method_ with
        | Some m -> m
        | None ->
          if t_count <= 1200 then Exact
          else Sparse { kind = Gauss_seidel; tolerance = 1e-10; max_sweeps = 1_000_000 }
      in
      match method_ with
      | Exact ->
        let transient = states_where (Array.map not legitimate) in
        let solved = exact_hitting chain ~legitimate ~transient in
        let out = Array.make n 0.0 in
        Array.iteri (fun i c -> out.(c) <- solved.(i)) transient;
        Ok (out, None)
      | Sparse { kind; tolerance; max_sweeps } ->
        let x = Array.make n 0.0 in
        let outcome =
          solve_transient ~kind ~tolerance ~max_sweeps chain scc ~reaching_only:false
            ~base:1.0 x
        in
        Ok (x, Some outcome)
    end

let unreachable c =
  invalid_arg
    (Printf.sprintf
       "Markov.expected_hitting_times: state %d cannot reach the legitimate set" c)

let method_tolerance = function
  | Some (Sparse { tolerance; _ }) -> tolerance
  | Some Exact | None -> 1e-10

let expected_hitting_times ?method_ chain ~legitimate =
  match hitting_times_checked ?method_ chain ~legitimate with
  | Error c -> unreachable c
  | Ok (times, (None | Some (Converged _))) -> times
  | Ok (_, Some (Max_sweeps stats)) ->
    no_convergence "sparse_hitting_times" ~tolerance:(method_tolerance method_) stats

(* Dense oracle for absorption: solve (I - Q) p = (one-step mass into
   L) on the transient states that can reach L; everything else is
   pinned at 0 (doomed) or 1 (inside L). *)
let exact_absorption chain ~legitimate =
  let n = states chain in
  let can_reach = reaches chain ~target:legitimate in
  let transient = states_where (Array.mapi (fun c r -> r && not legitimate.(c)) can_reach) in
  let p = Array.init n (fun c -> if legitimate.(c) then 1.0 else 0.0) in
  let t_count = Array.length transient in
  if t_count = 0 then p
  else begin
    Stabobs.Obs.span "markov.solve.exact" @@ fun () ->
    let pos = Array.make n (-1) in
    Array.iteri (fun i c -> pos.(c) <- i) transient;
    let a = Stablinalg.Matrix.identity t_count in
    let b = Array.make t_count 0.0 in
    Array.iteri
      (fun i c ->
        iter_row chain c (fun c' w ->
            if legitimate.(c') then b.(i) <- b.(i) +. w
            else if pos.(c') >= 0 then
              Stablinalg.Matrix.set a i (pos.(c'))
                (Stablinalg.Matrix.get a i (pos.(c')) -. w)))
      transient;
    let solved = Stablinalg.Matrix.solve a b in
    Array.iteri (fun i c -> p.(c) <- solved.(i)) transient;
    p
  end

let absorption_probabilities ?method_ chain ~legitimate =
  Stabobs.Obs.span "markov.absorption" @@ fun () ->
  let method_ =
    Option.value method_
      ~default:(Sparse { kind = Gauss_seidel; tolerance = 1e-12; max_sweeps = 1_000_000 })
  in
  match method_ with
  | Exact -> exact_absorption chain ~legitimate
  | Sparse { kind; tolerance; max_sweeps } -> (
    match sparse_absorption ~kind ~tolerance ~max_sweeps chain ~legitimate with
    | p, Converged _ -> p
    | _, Max_sweeps stats -> no_convergence "sparse_absorption" ~tolerance stats)

let transient_distribution chain ~init ~steps =
  let n = states chain in
  if Array.length init <> n then
    invalid_arg "Markov.transient_distribution: distribution length mismatch";
  let total = Array.fold_left ( +. ) 0.0 init in
  if Array.exists (fun w -> w < 0.0) init || Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg "Markov.transient_distribution: not a distribution";
  let current = ref (Array.copy init) in
  for _ = 1 to steps do
    let next = Array.make n 0.0 in
    Array.iteri
      (fun c mass ->
        if mass > 0.0 then
          iter_row chain c (fun c' w -> next.(c') <- next.(c') +. (mass *. w)))
      !current;
    current := next
  done;
  !current

let mass_in dist set =
  let acc = ref 0.0 in
  Array.iteri (fun c mass -> if set.(c) then acc := !acc +. mass) dist;
  !acc

type hitting_stats = { times : float array; mean : float; max : float }

(* [weights] are per-state multiplicities (orbit sizes of a lumped
   chain): the weighted mean over representatives equals the plain
   mean over the full space, because hitting times are constant on
   orbits. The max needs no weighting. *)
let stats_of_times ?weights times =
  let n = Array.length times in
  let mean =
    match weights with
    | None -> Array.fold_left ( +. ) 0.0 times /. float_of_int n
    | Some w ->
      if Array.length w <> n then
        invalid_arg "Markov.hitting_stats: weights length mismatch";
      let num = ref 0.0 and den = ref 0.0 in
      Array.iteri
        (fun c t ->
          let wc = float_of_int w.(c) in
          num := !num +. (wc *. t);
          den := !den +. wc)
        times;
      !num /. !den
  in
  { times; mean; max = Array.fold_left Float.max 0.0 times }

(* One solve for all summary statistics. *)
let hitting_stats ?method_ ?weights chain ~legitimate =
  stats_of_times ?weights (expected_hitting_times ?method_ chain ~legitimate)

let hitting_stats_checked ?method_ ?weights chain ~legitimate =
  match hitting_times_checked ?method_ chain ~legitimate with
  | Ok (times, outcome) -> (stats_of_times ?weights times, outcome)
  | Error c -> unreachable c

let mean_hitting_time chain ~legitimate = (hitting_stats chain ~legitimate).mean
let max_hitting_time chain ~legitimate = (hitting_stats chain ~legitimate).max
