(* Reference kernel for perfbench/run.py: a fixed mix of the kinds of work
   the stabsim pipelines do (hash-table interning, short-lived tuples
   promoted to the major heap, sorting, and Gauss-Seidel-like sweeps over
   a sparse float system). Prints its own wall and CPU durations in
   seconds. *)

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 99_999 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (string_of_int i)
  done;
  let l = ref [] in
  for i = 0 to 149_999 do
    l := (i, float_of_int i) :: !l
  done;
  let a = Array.init 150_000 (fun i -> (i * 2654435761) land 0xFFFFFF) in
  Array.sort compare a;
  let n = 4096 and deg = 12 in
  let col = Array.init (n * deg) (fun k -> ((k * 40503) + (k / deg * 7)) land (n - 1)) in
  let x = Array.make n 0.0 in
  for _ = 1 to 250 do
    for i = 0 to n - 1 do
      let s = ref 1.0 in
      for k = i * deg to (i * deg) + deg - 1 do
        s := !s +. (0.9 /. float_of_int deg *. x.(col.(k)))
      done;
      x.(i) <- !s
    done
  done;
  Hashtbl.length h + List.length !l + a.(0) + int_of_float x.(0)

let () =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let r = kernel () in
  Printf.printf "%.9f %.9f %d\n" (Unix.gettimeofday () -. t0) (Sys.time () -. c0) r
