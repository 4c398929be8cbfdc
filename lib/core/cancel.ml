type reason = Timeout | Drained

exception Cancelled of reason

type t = {
  flag : reason option Atomic.t;
  deadline_ns : int option;
  (* Monotonic instant of the last deadline check, 0 before the first
     one. Only deadline-guarded tokens maintain it (they read the
     clock anyway); it is what lets a flight dump distinguish "past
     deadline but nobody polled" from "polling but stuck". *)
  last_poll : int Atomic.t;
}

let create ?deadline_ns () =
  { flag = Atomic.make None; deadline_ns; last_poll = Atomic.make 0 }

let reason_name = function Timeout -> "timeout" | Drained -> "drained"

let cancel ?(reason = Drained) t =
  (* CAS so the first reason latches: a timeout and a drain racing on
     the same token must report one consistent cause. *)
  if Atomic.compare_and_set t.flag None (Some reason) then
    Stabobs.Flight.notef "cancel.latched: %s" (reason_name reason)

let cancelled t =
  match Atomic.get t.flag with
  | Some _ as r -> r
  | None -> (
      match t.deadline_ns with
      | Some d ->
          let now = Stabobs.Obs.now_ns () in
          Atomic.set t.last_poll now;
          if now > d then begin
            cancel ~reason:Timeout t;
            Atomic.get t.flag
          end
          else None
      | None -> None)

let peek t = Atomic.get t.flag

let check t =
  match cancelled t with None -> () | Some r -> raise (Cancelled r)

let deadline_ns t = t.deadline_ns
let last_poll_ns t = Atomic.get t.last_poll

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get key)

let with_current tok f =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  cell := Some tok;
  Fun.protect f ~finally:(fun () -> cell := saved)

let poll () = match current () with None -> () | Some t -> check t

let pp_reason ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Drained -> Format.pp_print_string ppf "drained"
