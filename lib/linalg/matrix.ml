type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dimensions must be positive";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let identity n =
  let m = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let of_rows arr =
  let r = Array.length arr in
  if r = 0 then invalid_arg "Matrix.of_rows: empty";
  let c = Array.length arr.(0) in
  if c = 0 then invalid_arg "Matrix.of_rows: empty row";
  let m = create ~rows:r ~cols:c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows";
      Array.iteri (fun j v -> set m i j v) row)
    arr;
  m

let copy m = { m with data = Array.copy m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let out = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (get a i j *. v.(j))
      done;
      !acc)

let transpose m =
  let out = create ~rows:m.cols ~cols:m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set out j i (get m i j)
    done
  done;
  out

let pivot_tolerance = 1e-12

(* In-place forward elimination + back substitution on an augmented
   system: [a] square, [b] with the same row count and any column
   count. Both are destroyed; the solution lands in [b]. The inner
   loops index the row-major [data] arrays through row bases, so no
   step goes through a boxed float; the operations and their order are
   those of the textbook [get]/[set] formulation. *)
let solve_in_place a b =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Matrix.solve: matrix not square";
  if b.rows <> n then invalid_arg "Matrix.solve: rhs dimension mismatch";
  let ad = a.data and bd = b.data and m = b.cols in
  let swap_rows (data : float array) cols i j =
    if i <> j then
      for k = 0 to cols - 1 do
        let tmp = data.((i * cols) + k) in
        data.((i * cols) + k) <- data.((j * cols) + k);
        data.((j * cols) + k) <- tmp
      done
  in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest |entry| of the column up. *)
    let pivot_row = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs ad.((r * n) + col) > Float.abs ad.((!pivot_row * n) + col) then
        pivot_row := r
    done;
    (* The pivot threshold scales with the column's largest |entry|
       (over all rows, eliminated ones included), so a well-conditioned
       system expressed in tiny units is not misdiagnosed as singular,
       while a column eliminated down to round-off residue fails at any
       scale. *)
    let pivot_abs = Float.abs ad.((!pivot_row * n) + col) in
    let col_scale = ref pivot_abs in
    for r = 0 to n - 1 do
      col_scale := Float.max !col_scale (Float.abs ad.((r * n) + col))
    done;
    if !col_scale = 0.0 || pivot_abs < pivot_tolerance *. !col_scale then
      failwith
        (Printf.sprintf "Matrix.solve: singular system (column %d, pivot %g)" col
           pivot_abs);
    swap_rows ad n col !pivot_row;
    swap_rows bd m col !pivot_row;
    let pivot = ad.((col * n) + col) in
    let arow = col * n and brow = col * m in
    for r = col + 1 to n - 1 do
      let ar = r * n and br = r * m in
      let factor = ad.(ar + col) /. pivot in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          ad.(ar + k) <- ad.(ar + k) -. (factor *. ad.(arow + k))
        done;
        for k = 0 to m - 1 do
          bd.(br + k) <- bd.(br + k) -. (factor *. bd.(brow + k))
        done
      end
    done
  done;
  for col = n - 1 downto 0 do
    let arow = col * n in
    let pivot = ad.(arow + col) in
    for k = 0 to m - 1 do
      let acc = ref bd.((col * m) + k) in
      for j = col + 1 to n - 1 do
        acc := !acc -. (ad.(arow + j) *. bd.((j * m) + k))
      done;
      bd.((col * m) + k) <- !acc /. pivot
    done
  done

let solve a b =
  let a = copy a in
  let rhs = create ~rows:(Array.length b) ~cols:1 in
  Array.iteri (fun i v -> set rhs i 0 v) b;
  solve_in_place a rhs;
  Array.init (rows rhs) (fun i -> get rhs i 0)

let solve_many a b =
  let a = copy a and b = copy b in
  solve_in_place a b;
  b

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix.max_abs_diff: shape mismatch";
  let best = ref 0.0 in
  Array.iteri (fun i v -> best := Float.max !best (Float.abs (v -. b.data.(i)))) a.data;
  !best

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[<hov 2>[";
    for j = 0 to m.cols - 1 do
      Format.fprintf fmt "@ %.6g" (get m i j)
    done;
    Format.fprintf fmt " ]@]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
