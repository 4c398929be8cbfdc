type sched_class = Central | Distributed | Synchronous

let sched_classes =
  [ ("central", Central); ("distributed", Distributed); ("synchronous", Synchronous) ]

let sched_class_name cls = fst (List.find (fun (_, c) -> c = cls) sched_classes)
let pp_sched_class fmt cls = Format.pp_print_string fmt (sched_class_name cls)

(* A space is either the full configuration space or a symmetry
   quotient of one: configs of a quotient are orbit representatives and
   transitions are the base transitions with canonicalized targets.
   Both share the representation, so every consumer of ['a t] — the
   checker, the Markov layer, the experiments — works on quotients
   unchanged, keyed by the quotient's own fresh [uid]. *)
type 'a view =
  | Full
  | Quotient of {
      base : 'a t;
      sym : 'a Symmetry.t;
      reps : int array; (* representative index -> full code *)
      rep_of : int array; (* full code -> representative index *)
      sizes : int array; (* representative index -> orbit size *)
    }

and 'a t = {
  protocol : 'a Protocol.t;
  encoding : 'a Encoding.t;
  uid : int;
  view : 'a view;
  mutable quots : ((perm:int array -> int -> 'a -> 'a) option * 'a t) list;
      (* Memoized quotients of a full space, keyed by the physical
         identity of the [relabel] hook: different hooks validate
         different groups, so a quotient cached under one hook must
         never be returned for another (omitting the hook of a
         labeling-dependent protocol yields the trivial group, and
         returning that stale result for a later call that does pass
         the hook — or vice versa — would be silently wrong). A
         freshly allocated but semantically equal closure misses and
         rebuilds: correct, merely unshared. *)
}

let default_max_configs = 2_000_000

(* Every space gets a process-unique id so expansion caches (see
   Checker) can key on identity without retaining the space itself. *)
let next_uid = Atomic.make 0

let build ?(max_configs = default_max_configs) protocol =
  Stabobs.Obs.span "statespace.build" @@ fun () ->
  let encoding = Encoding.of_protocol protocol in
  if Encoding.count encoding > max_configs then
    invalid_arg
      (Printf.sprintf "Statespace.build: %d configurations exceed the %d limit"
         (Encoding.count encoding) max_configs);
  {
    protocol;
    encoding;
    uid = Atomic.fetch_and_add next_uid 1;
    view = Full;
    quots = [];
  }

let try_build ?max_configs protocol =
  match build ?max_configs protocol with
  | space -> Ok space
  | exception Invalid_argument msg -> Error msg

let estimated_configs (p : 'a Protocol.t) =
  let n = Stabgraph.Graph.size p.Protocol.graph in
  let acc = ref 1.0 in
  for i = 0 to n - 1 do
    acc := !acc *. float_of_int (List.length (p.Protocol.domain i))
  done;
  !acc

type 'a strategy = [ `Exact of 'a t | `Onthefly of 'a t | `Montecarlo of string ]

let default_onthefly_configs = 1_000_000_000

let plan ?(max_configs = default_max_configs)
    ?(onthefly_configs = default_onthefly_configs) protocol =
  if max_configs <= 0 then invalid_arg "Statespace.plan: max_configs must be positive";
  let estimate = estimated_configs protocol in
  (* The float estimate guards the encoding itself: past the on-the-fly
     budget even lazy code/decode arithmetic risks overflow, and only
     sampling remains honest. *)
  if estimate > float_of_int onthefly_configs then
    `Montecarlo
      (Printf.sprintf
         "~%.3g configurations exceed the on-the-fly budget of %d; only sampling \
          remains"
         estimate onthefly_configs)
  else
    let space = build ~max_configs:max_int protocol in
    if Encoding.count space.encoding <= max_configs then `Exact space
    else `Onthefly space

let protocol t = t.protocol
let encoding t = t.encoding
let uid t = t.uid

let count t =
  match t.view with
  | Full -> Encoding.count t.encoding
  | Quotient q -> Array.length q.reps

let config t c =
  match t.view with
  | Full -> Encoding.decode t.encoding c
  | Quotient q -> Encoding.decode t.encoding q.reps.(c)

let code t cfg =
  match t.view with
  | Full -> Encoding.encode t.encoding cfg
  | Quotient q -> q.rep_of.(Encoding.encode t.encoding cfg)

let is_quotient t = match t.view with Full -> false | Quotient _ -> true
let base t = match t.view with Full -> t | Quotient q -> q.base

let symmetry_order t =
  match t.view with Full -> 1 | Quotient q -> Symmetry.group_order q.sym

let orbit_sizes t =
  match t.view with Full -> None | Quotient q -> Some (Array.copy q.sizes)

let representative t c = match t.view with Full -> c | Quotient q -> q.reps.(c)

let quotient_view t =
  match t.view with
  | Full -> None
  | Quotient q -> Some (q.base, q.reps, q.rep_of, q.sizes)

let same_hook a b =
  match (a, b) with None, None -> true | Some f, Some g -> f == g | _ -> false

let quotient ?relabel t =
  match t.view with
  | Quotient _ -> t
  | Full -> (
    match List.find_opt (fun (hook, _) -> same_hook hook relabel) t.quots with
    | Some (_, q) -> q
    | None ->
      let q =
        Stabobs.Obs.span "checker.quotient" @@ fun () ->
        let sym = Symmetry.build ?relabel t.protocol t.encoding in
        if Symmetry.is_trivial sym then t
        else begin
          let n = Encoding.count t.encoding in
          let rep_of = Array.make n (-1) in
          let reps_rev = ref [] in
          let nreps = ref 0 in
          (* Pool-parallel canonicalization, then a serial ascending
             sweep over the filled cache: the orbit minimum is its own
             canon, so a code is a representative exactly when
             [canon_value c = c]; the eager fill also makes the cache
             read-only for any later Domain-parallel expansion. *)
          Symmetry.fill_table sym;
          for c = 0 to n - 1 do
            let r = Symmetry.canon_value sym c in
            if r = c then begin
              rep_of.(c) <- !nreps;
              reps_rev := c :: !reps_rev;
              incr nreps
            end
            else rep_of.(c) <- rep_of.(r)
          done;
          let reps = Array.of_list (List.rev !reps_rev) in
          let sizes = Array.make !nreps 0 in
          for c = 0 to n - 1 do
            sizes.(rep_of.(c)) <- sizes.(rep_of.(c)) + 1
          done;
          {
            protocol = t.protocol;
            encoding = t.encoding;
            uid = Atomic.fetch_and_add next_uid 1;
            view = Quotient { base = t; sym; reps; rep_of; sizes };
            quots = [];
          }
        end
      in
      t.quots <- (relabel, q) :: t.quots;
      q)

let enabled t c = Protocol.enabled_processes t.protocol (config t c)

let legitimate_set t spec =
  match t.view with
  | Full ->
    let out = Array.make (count t) false in
    Encoding.iter t.encoding (fun c cfg -> out.(c) <- spec.Spec.legitimate cfg);
    out
  | Quotient q ->
    let out =
      Array.map (fun r -> spec.Spec.legitimate (Encoding.decode t.encoding r)) q.reps
    in
    if Symmetry.paranoid_enabled () then
      (* Lumpability precondition: legitimacy must be orbit-invariant. *)
      Encoding.iter t.encoding (fun c cfg ->
          if spec.Spec.legitimate cfg <> out.(q.rep_of.(c)) then
            invalid_arg
              (Printf.sprintf
                 "Statespace.legitimate_set: spec is not symmetry-invariant at code %d"
                 c));
    out

let subset_count k = (1 lsl k) - 1

(* The expansion kernel: one flat, allocation-free enumeration of the
   steps a class allows, which {!Checker.expand} drives directly and
   {!fold_transitions}, {!transitions} and {!successors} wrap as lists,
   so the group-order contract lives here and nowhere else.

   [load] evaluates every guard of a configuration once, into scratch
   arrays: the enabled processes and, per enabled process, its local
   outcomes as packed-code deltas against the source code with their
   weights. A composite activation is then an integer sum of deltas
   (and, for randomized statements, a product of weights) instead of a
   re-evaluation of every member's guards. [next] advances a cursor
   over the groups: enabled singletons in process order (central), the
   full enabled set (synchronous), or every non-empty subset in
   ascending bitmask order over the enabled processes (distributed).
   Subset [m]'s successor code is subset [m - 1]'s minus the deltas of
   the trailing bits the increment clears, plus the delta of the bit it
   sets, so a deterministic subset costs O(1) amortized.

   A caller that walks the space twice (the checker's count, then its
   fill) splits [load] into [scan] and [reload]: [scan] records which
   action each process enabled in an [enabled_table] — byte
   [c * processes + p] is the action's index + 1, 0 for none — and runs
   statements only for randomized protocols, whose counts need them;
   [reload] reads the table and runs the statements. Every guard and
   statement of a deterministic protocol thus runs once per
   configuration. *)
type enabled_table = Bytes.t

type 'a kernel = {
  space : 'a t;
  cls : sched_class;
  actions : 'a Protocol.action array;
  declared_deterministic : bool; (* [not protocol.randomized] *)
  table : enabled_table; (* empty, or one byte per (configuration, process) *)
  mutable raw : int; (* full-encoding code of the loaded configuration *)
  mutable k : int; (* enabled processes *)
  procs : int array; (* [0, k): enabled process ids, ascending *)
  lstart : int array; (* [0, k]: local outcomes of procs.(i) at lstart.(i) .. *)
  mutable ldelta : int array;
  mutable lw : float array;
  mutable det : bool; (* every local distribution is a singleton *)
  mutable distinct : bool; (* no local distribution repeats a state *)
  mutable sel : int; (* last emitted group: subset mask or group index *)
  mutable sum : int; (* raw + the deltas of [sel] (deterministic subsets) *)
  mutable pmask : int; (* process bitmask of the current group *)
  mutable nout : int;
  mutable ocode : int array; (* [0, nout): the current group's successors *)
  mutable ow : float array;
  mutable tcode : int array; (* product scratch, swapped with ocode/ow *)
  mutable tw : float array;
}

let enabled_table t =
  if List.length t.protocol.Protocol.actions > 255 then
    invalid_arg "Statespace.enabled_table: more than 255 actions";
  Bytes.make (count t * Encoding.processes t.encoding) '\000'

let kernel ?(table = Bytes.empty) t cls =
  let nproc = Encoding.processes t.encoding in
  if nproc > Sys.int_size - 1 then
    invalid_arg "Statespace.kernel: more processes than an int bitmask holds";
  {
    space = t;
    cls;
    actions = Array.of_list t.protocol.Protocol.actions;
    declared_deterministic = not t.protocol.Protocol.randomized;
    table;
    raw = 0;
    k = 0;
    procs = Array.make nproc 0;
    lstart = Array.make (nproc + 1) 0;
    ldelta = Array.make (max 1 nproc) 0;
    lw = Array.make (max 1 nproc) 0.0;
    det = true;
    distinct = true;
    sel = 0;
    sum = 0;
    pmask = 0;
    nout = 0;
    ocode = Array.make 16 0;
    ow = Array.make 16 0.0;
    tcode = Array.make 16 0;
    tw = Array.make 16 0.0;
  }

let grow_locals kn need =
  if need > Array.length kn.ldelta then begin
    let cap = max need (2 * Array.length kn.ldelta) in
    let d = Array.make cap 0 and w = Array.make cap 0.0 in
    Array.blit kn.ldelta 0 d 0 (Array.length kn.ldelta);
    Array.blit kn.lw 0 w 0 (Array.length kn.lw);
    kn.ldelta <- d;
    kn.lw <- w
  end

(* Room for [need] product terms in the write side of the product
   scratch; it is written from the start, so growing needs no copy. *)
let reserve kn need =
  if need > Array.length kn.tcode then begin
    let cap = max need (2 * Array.length kn.tcode) in
    kn.tcode <- Array.make cap 0;
    kn.tw <- Array.make cap 0.0
  end

(* Rewind the group cursor to before the first group. *)
let restart kn =
  kn.sel <- 0;
  kn.sum <- kn.raw;
  kn.pmask <- 0

(* Start loading configuration [c]: decode it and reset the per-
   configuration state. *)
let start kn c =
  let t = kn.space in
  kn.raw <- (match t.view with Full -> c | Quotient q -> q.reps.(c));
  kn.k <- 0;
  kn.det <- true;
  kn.distinct <- true;
  kn.lstart.(0) <- 0;
  restart kn;
  config t c

(* Record process [p] as enabled by action [a]: its local outcomes as
   packed-code deltas against the source code, with their weights. *)
let enable kn cfg p a =
  let enc = kn.space.encoding in
  let i = kn.k in
  let lo = kn.lstart.(i) in
  kn.procs.(i) <- p;
  kn.k <- i + 1;
  let w = Encoding.weight enc p in
  let cur = Encoding.digit enc p kn.raw in
  let len = ref lo in
  let dist = ref (kn.actions.(a).Protocol.result cfg p) in
  while
    match !dist with
    | [] -> false
    | (s, pw) :: rest ->
      grow_locals kn (!len + 1);
      kn.ldelta.(!len) <- (Encoding.index_in_domain enc p s - cur) * w;
      kn.lw.(!len) <- pw;
      incr len;
      dist := rest;
      true
  do
    ()
  done;
  kn.lstart.(i + 1) <- !len;
  if !len - lo > 1 then begin
    kn.det <- false;
    for x = lo to !len - 1 do
      for y = x + 1 to !len - 1 do
        if kn.ldelta.(x) = kn.ldelta.(y) then kn.distinct <- false
      done
    done
  end

let finish kn =
  if kn.cls = Distributed && kn.k > 20 then
    invalid_arg "Statespace: too many enabled processes to enumerate subsets"

(* The first enabled action of process [p], or [Array.length actions]. *)
let enabled_action kn cfg p =
  let a = ref 0 in
  while !a < Array.length kn.actions && not (kn.actions.(!a).Protocol.guard cfg p) do
    incr a
  done;
  !a

let load kn c =
  let cfg = start kn c in
  for p = 0 to Array.length cfg - 1 do
    let a = enabled_action kn cfg p in
    if a < Array.length kn.actions then enable kn cfg p a
  done;
  finish kn

let scan kn c =
  let cfg = start kn c in
  let row = c * Array.length cfg in
  for p = 0 to Array.length cfg - 1 do
    let a = enabled_action kn cfg p in
    let enabled = a < Array.length kn.actions in
    Bytes.set kn.table (row + p) (Char.chr (if enabled then a + 1 else 0));
    if enabled then
      if kn.declared_deterministic then begin
        (* One outcome, which the statement is not needed to count. *)
        let i = kn.k in
        kn.procs.(i) <- p;
        kn.lstart.(i + 1) <- kn.lstart.(i) + 1;
        kn.k <- i + 1
      end
      else enable kn cfg p a
  done;
  finish kn

let reload kn c =
  let cfg = start kn c in
  let row = c * Array.length cfg in
  for p = 0 to Array.length cfg - 1 do
    let a = Char.code (Bytes.get kn.table (row + p)) - 1 in
    if a >= 0 then enable kn cfg p a
  done;
  if kn.declared_deterministic && not kn.det then
    invalid_arg
      (Printf.sprintf
         "Statespace: %s is declared deterministic but a statement returned several \
          outcomes"
         kn.space.protocol.Protocol.name);
  finish kn

let group_count kn =
  match kn.cls with
  | Central -> kn.k
  | Synchronous -> if kn.k > 0 then 1 else 0
  | Distributed -> subset_count kn.k

let to_target kn code =
  match kn.space.view with Full -> code | Quotient q -> q.rep_of.(code)

(* Outcomes of activating the enabled processes whose indexes are the
   bits of [m]: the product of their local distributions, last process
   varying fastest, equal successor codes merged in first-occurrence
   order with weights summed — the contract of
   {!Protocol.step_outcomes}. Merging happens on base codes, before any
   quotient projection. When no local distribution repeats a state,
   distinct choices change distinct digits, so the product has no equal
   codes and the merge is skipped. *)
let product kn m =
  kn.ocode.(0) <- 0;
  kn.ow.(0) <- 1.0;
  kn.nout <- 1;
  let shift = ref kn.raw in
  for i = 0 to kn.k - 1 do
    if (m lsr i) land 1 = 1 then begin
      let lo = kn.lstart.(i) and hi = kn.lstart.(i + 1) in
      if hi - lo = 1 then shift := !shift + kn.ldelta.(lo)
      else begin
        let nout = kn.nout * (hi - lo) in
        reserve kn nout;
        let j' = ref 0 in
        for j = 0 to kn.nout - 1 do
          for l = lo to hi - 1 do
            kn.tcode.(!j') <- kn.ocode.(j) + kn.ldelta.(l);
            kn.tw.(!j') <- kn.ow.(j) *. kn.lw.(l);
            incr j'
          done
        done;
        let c = kn.ocode and w = kn.ow in
        kn.ocode <- kn.tcode;
        kn.ow <- kn.tw;
        kn.tcode <- c;
        kn.tw <- w;
        kn.nout <- nout
      end
    end
  done;
  if kn.distinct then
    for j = 0 to kn.nout - 1 do
      kn.ocode.(j) <- to_target kn (kn.ocode.(j) + !shift)
    done
  else begin
    let merged = ref 0 in
    for j = 0 to kn.nout - 1 do
      let code = kn.ocode.(j) + !shift in
      let i = ref 0 in
      while !i < !merged && kn.ocode.(!i) <> code do
        incr i
      done;
      if !i < !merged then kn.ow.(!i) <- kn.ow.(!i) +. kn.ow.(j)
      else begin
        kn.ocode.(!merged) <- code;
        kn.ow.(!merged) <- kn.ow.(j);
        incr merged
      end
    done;
    kn.nout <- !merged;
    for j = 0 to kn.nout - 1 do
      kn.ocode.(j) <- to_target kn kn.ocode.(j)
    done
  end

let next kn =
  match kn.cls with
  | Central ->
    kn.sel < kn.k
    && begin
         let i = kn.sel in
         kn.sel <- i + 1;
         kn.pmask <- 1 lsl kn.procs.(i);
         product kn (1 lsl i);
         true
       end
  | Synchronous ->
    kn.sel = 0 && kn.k > 0
    && begin
         kn.sel <- 1;
         for i = 0 to kn.k - 1 do
           kn.pmask <- kn.pmask lor (1 lsl kn.procs.(i))
         done;
         product kn (subset_count kn.k);
         true
       end
  | Distributed ->
    let m = kn.sel + 1 in
    m lsr kn.k = 0
    && begin
         (* Leave [m - 1]'s trailing ones, enter [m]'s lowest bit. *)
         let i = ref 0 in
         while (m lsr !i) land 1 = 0 do
           kn.sum <- kn.sum - kn.ldelta.(kn.lstart.(!i));
           kn.pmask <- kn.pmask lxor (1 lsl kn.procs.(!i));
           incr i
         done;
         kn.sum <- kn.sum + kn.ldelta.(kn.lstart.(!i));
         kn.pmask <- kn.pmask lxor (1 lsl kn.procs.(!i));
         kn.sel <- m;
         if kn.det then begin
           kn.ocode.(0) <- to_target kn kn.sum;
           kn.ow.(0) <- 1.0;
           kn.nout <- 1
         end
         else product kn m;
         true
       end

(* Deterministic groups have one successor each; otherwise walk the
   groups once and rewind. *)
let successor_count kn =
  if kn.det then group_count kn
  else begin
    let total = ref 0 in
    while next kn do
      total := !total + kn.nout
    done;
    restart kn;
    !total
  end

let group_mask kn = kn.pmask
let outcome_count kn = kn.nout

let blit_outcomes kn codes weights pos =
  Array.blit kn.ocode 0 codes pos kn.nout;
  Array.blit kn.ow 0 weights pos kn.nout

let processes_of_mask m =
  let top = ref 0 in
  while m lsr !top > 1 do
    incr top
  done;
  let out = ref [] in
  for p = !top downto 0 do
    if (m lsr p) land 1 = 1 then out := p :: !out
  done;
  !out

let fold_transitions t cls c ~init ~f =
  let kn = kernel t cls in
  load kn c;
  let acc = ref init in
  while next kn do
    let outcomes = ref [] in
    for j = kn.nout - 1 downto 0 do
      outcomes := (kn.ocode.(j), kn.ow.(j)) :: !outcomes
    done;
    acc := f !acc (processes_of_mask kn.pmask) !outcomes
  done;
  !acc

let transitions t cls c =
  List.rev
    (fold_transitions t cls c ~init:[] ~f:(fun acc active outcomes ->
         (active, outcomes) :: acc))

let successors t cls c =
  let kn = kernel t cls in
  load kn c;
  let acc = ref [] in
  while next kn do
    for j = 0 to kn.nout - 1 do
      acc := kn.ocode.(j) :: !acc
    done
  done;
  List.sort_uniq Int.compare !acc
