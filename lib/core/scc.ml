(* The one Tarjan decomposition of the engine, iterative and
   allocation-free: the DFS path, the per-node edge cursors, the index
   and low-link arrays and the Tarjan stack are flat [int] arrays, the
   on-stack and reach marks [Bytes], all sized once per pass. Nothing
   is allocated per edge, state or block.

   Reach flags ride along. A node's flag is set by an edge into a
   target, by an edge into a finished component whose flag is set, and
   by a child returning from a finished component whose flag is set.
   Edges into the node's own component (on-stack targets, children that
   stay on the stack) are settled when the component completes: its
   flag is the OR of its members' flags, written back to every member.
   Every member reaches every other, so that OR is exact, and a
   finished component's flag is final before any edge reads it. *)

type mask = Bytes.t

let outside = '\000'
let target = '\001'
let alive = '\002'

let avoiding targets =
  Bytes.init (Array.length targets) (fun c -> if targets.(c) then target else alive)

type t = {
  mask : mask;
  order : int array;
  block_off : int array;
  blocks : int;
  reach : Bytes.t;
  cyclic : bool;
}

let decompose ?via ~off ~cols mask =
  let n = Bytes.length mask in
  (* Row [c] is [off.(r c) .. off.(r (c + 1)) - 1] with [r] the identity
     or [via]: the checker's rows are ranges of group offsets. *)
  let indirect, via = match via with None -> (false, [||]) | Some v -> (true, v) in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let cursor = Array.make n 0 in
  let path = Array.make n 0 in
  let stack = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let reach = Bytes.make n '\000' in
  let order = Array.make n 0 in
  let block_off = Array.make (n + 1) 0 in
  let next_index = ref 0 and sp = ref 0 and depth = ref 0 in
  let emitted = ref 0 and blocks = ref 0 and cyclic = ref false in
  for root = 0 to n - 1 do
    if Bytes.get mask root = alive && index.(root) < 0 then begin
      index.(root) <- !next_index;
      low.(root) <- !next_index;
      incr next_index;
      stack.(!sp) <- root;
      incr sp;
      Bytes.set on_stack root '\001';
      cursor.(root) <- (if indirect then off.(via.(root)) else off.(root));
      path.(0) <- root;
      depth := 1;
      while !depth > 0 do
        let node = path.(!depth - 1) in
        let hi = if indirect then off.(via.(node + 1)) else off.(node + 1) in
        let i = ref cursor.(node) and descended = ref false in
        while (not !descended) && !i < hi do
          let next = cols.(!i) in
          incr i;
          let kind = Bytes.get mask next in
          if kind = alive then begin
            if index.(next) < 0 then begin
              cursor.(node) <- !i;
              index.(next) <- !next_index;
              low.(next) <- !next_index;
              incr next_index;
              stack.(!sp) <- next;
              incr sp;
              Bytes.set on_stack next '\001';
              cursor.(next) <- (if indirect then off.(via.(next)) else off.(next));
              path.(!depth) <- next;
              incr depth;
              descended := true
            end
            else if Bytes.get on_stack next = '\001' then begin
              if next = node then cyclic := true;
              if index.(next) < low.(node) then low.(node) <- index.(next)
            end
            else if Bytes.get reach next = '\001' then Bytes.set reach node '\001'
          end
          else if kind = target then Bytes.set reach node '\001'
        done;
        if not !descended then begin
          decr depth;
          if low.(node) = index.(node) then begin
            (* [node] roots a component: the stack slice from it up. *)
            let top = !sp in
            let bottom = ref (top - 1) in
            while stack.(!bottom) <> node do
              decr bottom
            done;
            if top - !bottom > 1 then cyclic := true;
            let flag = ref '\000' in
            for k = !bottom to top - 1 do
              if Bytes.get reach stack.(k) = '\001' then flag := '\001'
            done;
            for k = !bottom to top - 1 do
              let v = stack.(k) in
              Bytes.set on_stack v '\000';
              Bytes.set reach v !flag;
              order.(!emitted) <- v;
              incr emitted
            done;
            sp := !bottom;
            incr blocks;
            block_off.(!blocks) <- !emitted
          end;
          if !depth > 0 then begin
            let parent = path.(!depth - 1) in
            if low.(node) < low.(parent) then low.(parent) <- low.(node);
            if Bytes.get on_stack node = '\000' && Bytes.get reach node = '\001' then
              Bytes.set reach parent '\001'
          end
        end
      done
    end
  done;
  { mask; order; block_off; blocks = !blocks; reach; cyclic = !cyclic }

let reached t c = Bytes.get t.reach c = '\001'

let first_unreached t =
  let n = Bytes.length t.mask in
  let rec find c =
    if c >= n then None
    else if Bytes.get t.mask c = alive && not (reached t c) then Some c
    else find (c + 1)
  in
  find 0
