(* Tests for the dense linear algebra used by the Markov analysis. *)

open Stablinalg

let check_float = Alcotest.(check (float 1e-9))

let test_create_get_set () =
  let m = Matrix.create ~rows:2 ~cols:3 in
  Alcotest.(check int) "rows" 2 (Matrix.rows m);
  Alcotest.(check int) "cols" 3 (Matrix.cols m);
  check_float "zero init" 0.0 (Matrix.get m 1 2);
  Matrix.set m 1 2 5.5;
  check_float "set/get" 5.5 (Matrix.get m 1 2)

let test_identity () =
  let i3 = Matrix.identity 3 in
  for r = 0 to 2 do
    for c = 0 to 2 do
      check_float "identity entries" (if r = c then 1.0 else 0.0) (Matrix.get i3 r c)
    done
  done

let test_of_rows_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows")
    (fun () -> ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mul () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_mul_identity () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let prod = Matrix.mul a (Matrix.identity 2) in
  check_float "identity is neutral" 0.0 (Matrix.max_abs_diff a prod)

let test_mul_vec () =
  let a = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 0.0; 1.0; 0.0 |] |] in
  let v = Matrix.mul_vec a [| 1.0; 1.0; 1.0 |] in
  check_float "row 0" 6.0 v.(0);
  check_float "row 1" 1.0 v.(1)

let test_transpose () =
  let a = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  check_float "t21" 6.0 (Matrix.get t 2 1);
  check_float "double transpose" 0.0 (Matrix.max_abs_diff a (Matrix.transpose t))

let test_solve_known_system () =
  (* 2x + y = 5; x - y = 1  =>  x = 2, y = 1 *)
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Matrix.solve a [| 5.0; 1.0 |] in
  check_float "x" 2.0 x.(0);
  check_float "y" 1.0 x.(1)

let test_solve_requires_pivoting () =
  (* Leading zero pivot forces a row swap. *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 3.0; 4.0 |] in
  check_float "x" 4.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_solve_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular"
    (Failure "Matrix.solve: singular system (column 1, pivot 0)") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_solve_tiny_units () =
  (* Well-conditioned but expressed in units far below the absolute
     pivot floor: the scaled test must not call this singular. *)
  let a = Matrix.of_rows [| [| 2e-20; 1e-20 |]; [| 1e-20; -1e-20 |] |] in
  let x = Matrix.solve a [| 5e-20; 1e-20 |] in
  check_float "x" 2.0 x.(0);
  check_float "y" 1.0 x.(1)

let test_solve_zero_column () =
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 0.0; 2.0 |] |] in
  Alcotest.check_raises "zero column"
    (Failure "Matrix.solve: singular system (column 0, pivot 0)") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_solve_does_not_mutate () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let before = Matrix.copy a in
  ignore (Matrix.solve a [| 5.0; 1.0 |]);
  check_float "a unchanged" 0.0 (Matrix.max_abs_diff a before)

let test_solve_random_roundtrip () =
  (* Solve a x = b for random a, b and verify a x = b. *)
  let rng = Stabrng.Rng.create 4242 in
  for _ = 1 to 25 do
    let n = 1 + Stabrng.Rng.int rng 12 in
    let a =
      Matrix.of_rows
        (Array.init n (fun i ->
             Array.init n (fun j ->
                 (* Diagonal dominance keeps the system well-conditioned. *)
                 let v = Stabrng.Rng.float rng -. 0.5 in
                 if i = j then v +. 4.0 else v)))
    in
    let b = Array.init n (fun _ -> Stabrng.Rng.float rng *. 10.0) in
    let x = Matrix.solve a b in
    let b' = Matrix.mul_vec a x in
    Array.iteri
      (fun i bi ->
        if Float.abs (bi -. b'.(i)) > 1e-8 then
          Alcotest.failf "residual too large at %d: %g vs %g" i bi b'.(i))
      b
  done

let test_solve_many () =
  let a = Matrix.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 2.0; 4.0 |]; [| 8.0; 12.0 |] |] in
  let x = Matrix.solve_many a b in
  check_float "x00" 1.0 (Matrix.get x 0 0);
  check_float "x01" 2.0 (Matrix.get x 0 1);
  check_float "x10" 2.0 (Matrix.get x 1 0);
  check_float "x11" 3.0 (Matrix.get x 1 1)

(* The textbook elimination over [get]/[set], partial pivoting on the
   first largest |entry|, then back substitution: the operation order
   [Matrix.solve] must keep, so its results are bit-identical. *)
let reference_solve a b =
  let n = Matrix.rows a in
  let a = Matrix.copy a and b = Array.copy b in
  for col = 0 to n - 1 do
    let p = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (Matrix.get a r col) > Float.abs (Matrix.get a !p col) then p := r
    done;
    for k = 0 to n - 1 do
      let t = Matrix.get a col k in
      Matrix.set a col k (Matrix.get a !p k);
      Matrix.set a !p k t
    done;
    let t = b.(col) in
    b.(col) <- b.(!p);
    b.(!p) <- t;
    let pivot = Matrix.get a col col in
    for r = col + 1 to n - 1 do
      let factor = Matrix.get a r col /. pivot in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          Matrix.set a r k (Matrix.get a r k -. (factor *. Matrix.get a col k))
        done;
        b.(r) <- b.(r) -. (factor *. b.(col))
      end
    done
  done;
  for col = n - 1 downto 0 do
    let acc = ref b.(col) in
    for j = col + 1 to n - 1 do
      acc := !acc -. (Matrix.get a col j *. b.(j))
    done;
    b.(col) <- !acc /. Matrix.get a col col
  done;
  b

let random_system rng n =
  let a =
    Matrix.of_rows
      (Array.init n (fun i ->
           Array.init n (fun j ->
               let v = Stabrng.Rng.float rng -. 0.5 in
               if i = j then v +. 2.0 else v)))
  in
  (a, Array.init n (fun _ -> Stabrng.Rng.float rng *. 10.0))

let test_solve_matches_textbook_bits () =
  let rng = Stabrng.Rng.create 11 in
  List.iter
    (fun n ->
      let a, b = random_system rng n in
      let want = reference_solve a b and got = Matrix.solve a b in
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float got.(i) then
            Alcotest.failf "n=%d, x%d: textbook %h, solve %h" n i v got.(i))
        want)
    [ 1; 2; 5; 17; 64 ]

(* Elimination allocates nothing per step: a 200x200 solve (about 2.7 M
   inner steps) stays within a fixed budget of minor words, which only
   the result and right-hand-side vectors use. *)
let test_solve_allocation_budget () =
  let a, b = random_system (Stabrng.Rng.create 5) 200 in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Matrix.solve a b));
  let words = Gc.minor_words () -. w0 in
  if words > 4096.0 then
    Alcotest.failf "Matrix.solve 200x200: %.0f minor words, budget 4096" words

let qcheck_solve_diag =
  QCheck.Test.make ~count:100 ~name:"diagonal systems solve exactly"
    QCheck.(pair (list_of_size (Gen.int_range 1 8) (float_range 1.0 10.0)) (float_range (-5.0) 5.0))
    (fun (diag, rhs) ->
      QCheck.assume (diag <> []);
      let n = List.length diag in
      let a = Matrix.create ~rows:n ~cols:n in
      List.iteri (fun i d -> Matrix.set a i i d) diag;
      let b = Array.make n rhs in
      let x = Matrix.solve a b in
      List.for_all2
        (fun d xi -> Float.abs ((d *. xi) -. rhs) < 1e-9)
        diag (Array.to_list x))

let suite =
  [
    Alcotest.test_case "create/get/set" `Quick test_create_get_set;
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "of_rows validation" `Quick test_of_rows_validation;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "mul identity" `Quick test_mul_identity;
    Alcotest.test_case "mul_vec" `Quick test_mul_vec;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "solve known" `Quick test_solve_known_system;
    Alcotest.test_case "solve pivoting" `Quick test_solve_requires_pivoting;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "solve tiny units" `Quick test_solve_tiny_units;
    Alcotest.test_case "solve zero column" `Quick test_solve_zero_column;
    Alcotest.test_case "solve pure" `Quick test_solve_does_not_mutate;
    Alcotest.test_case "solve random roundtrip" `Quick test_solve_random_roundtrip;
    Alcotest.test_case "solve_many" `Quick test_solve_many;
    Alcotest.test_case "solve matches textbook bits" `Quick test_solve_matches_textbook_bits;
    Alcotest.test_case "solve allocation budget" `Quick test_solve_allocation_budget;
    QCheck_alcotest.to_alcotest qcheck_solve_diag;
  ]
