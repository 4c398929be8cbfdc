module Json = Stabobs.Json
module Obs = Stabobs.Obs
module Registry = Stabobs.Registry

(* {1 Metric rendering} *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let metric_name name = "stabsim_" ^ sanitize name

(* Prometheus label-value escaping: backslash, double quote, newline. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_float f = Printf.sprintf "%.10g" f

(* The [/metrics] body: [# TYPE] lines and samples, names prefixed
   [stabsim_] and sanitized to [[A-Za-z0-9_]]. Counters render as
   [counter], gauges as [gauge], labels as [<name>_info{value="..."} 1],
   distributions as [summary] (quantiles 0.5 / 0.95 / 0.99 plus [_sum]
   / [_count]). *)
let metrics_text () =
  let s = Registry.snapshot () in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      line "# TYPE %s counter" m;
      line "%s %d" m v)
    s.Registry.counters;
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      line "# TYPE %s gauge" m;
      line "%s %d" m v)
    s.Registry.gauges;
  List.iter
    (fun (name, v) ->
      let m = metric_name name ^ "_info" in
      line "# TYPE %s gauge" m;
      line "%s{value=\"%s\"} 1" m (escape_label_value v))
    s.Registry.labels;
  List.iter
    (fun (name, (d : Stabobs.Dist.summary)) ->
      let m = metric_name name in
      line "# TYPE %s summary" m;
      line "%s{quantile=\"0.5\"} %s" m (fmt_float d.Stabobs.Dist.p50);
      line "%s{quantile=\"0.95\"} %s" m (fmt_float d.Stabobs.Dist.p95);
      line "%s{quantile=\"0.99\"} %s" m (fmt_float d.Stabobs.Dist.p99);
      line "%s_sum %s" m
        (fmt_float (d.Stabobs.Dist.mean *. float_of_int d.Stabobs.Dist.count));
      line "%s_count %d" m d.Stabobs.Dist.count)
    s.Registry.dists;
  (match Runner.progress () with
  | None -> ()
  | Some _ ->
    let m = "stabsim_campaign_worker_busy" in
    line "# TYPE %s gauge" m;
    List.iter
      (fun (hb : Runner.heartbeat) ->
        line "%s{worker=\"%d\"} %d" m hb.Runner.hb_worker
          (match hb.Runner.hb_cell with Some _ -> 1 | None -> 0))
      (Runner.heartbeats ()));
  Buffer.contents buf

(* {1 Status document} *)

let eta_ns (p : Runner.progress) ~remaining =
  if p.Runner.p_executed = 0 || remaining = 0 || p.Runner.p_finished_ns <> None
  then None
  else
    let per_cell = p.Runner.p_executed_ns / p.Runner.p_executed in
    Some (remaining * per_cell / max 1 p.Runner.p_workers)

let campaign_json () =
  match Runner.progress () with
  | None -> Json.Null
  | Some p ->
    let settled =
      p.Runner.p_done + p.Runner.p_degraded + p.Runner.p_timed_out
      + p.Runner.p_quarantined + p.Runner.p_skipped
    in
    let remaining = max 0 (p.Runner.p_total - settled) in
    let now = Obs.now_ns () in
    let elapsed =
      (match p.Runner.p_finished_ns with Some t -> t | None -> now)
      - p.Runner.p_started_ns
    in
    let worker_json (hb : Runner.heartbeat) =
      let base =
        [
          ("worker", Json.Int hb.Runner.hb_worker);
          ("domain", Json.Int hb.Runner.hb_domain);
        ]
      in
      match hb.Runner.hb_cell with
      | None -> Json.Obj (base @ [ ("idle", Json.Bool true) ])
      | Some (label, since) ->
        Json.Obj
          (base
          @ [
              ("cell", Json.String label);
              ("elapsed_ns", Json.Int (max 0 (now - since)));
            ])
    in
    Json.Obj
      [
        ("name", Json.String p.Runner.p_name);
        ("elapsed_ns", Json.Int (max 0 elapsed));
        ("finished", Json.Bool (p.Runner.p_finished_ns <> None));
        ("draining", Json.Bool p.Runner.p_draining);
        ( "cells",
          Json.Obj
            [
              ("total", Json.Int p.Runner.p_total);
              ("done", Json.Int p.Runner.p_done);
              ("degraded", Json.Int p.Runner.p_degraded);
              ("timed_out", Json.Int p.Runner.p_timed_out);
              ("quarantined", Json.Int p.Runner.p_quarantined);
              ("skipped", Json.Int p.Runner.p_skipped);
              ("remaining", Json.Int remaining);
            ] );
        ("retries", Json.Int p.Runner.p_retried);
        ( "eta_ns",
          match eta_ns p ~remaining with
          | Some ns -> Json.Int ns
          | None -> Json.Null );
        ("workers", Json.List (List.map worker_json (Runner.heartbeats ())));
      ]

(* The [/status] body; see docs/observability.md for the schema. *)
let status_json () =
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("ts_ns", Json.Int (Obs.now_ns ()));
      ("campaign", campaign_json ());
      ("metrics", Registry.snapshot_json (Registry.snapshot ()));
    ]

(* {1 The HTTP layer}

   Hand-rolled on purpose: one GET per connection, Connection: close,
   requests capped at 8 KiB, no keep-alive, no chunking. Anything a
   scraper or curl needs, nothing more. *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let respond path =
  match path with
  | "/metrics" ->
    http_response ~status:"200 OK"
      ~content_type:"text/plain; version=0.0.4; charset=utf-8" (metrics_text ())
  | "/status" ->
    http_response ~status:"200 OK" ~content_type:"application/json"
      (Json.to_string (status_json ()) ^ "\n")
  | "/" ->
    http_response ~status:"200 OK" ~content_type:"text/plain"
      "stabsim status server\nendpoints: /metrics /status\n"
  | _ ->
    http_response ~status:"404 Not Found" ~content_type:"text/plain"
      "not found\n"

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = Unix.write fd b !off (n - !off) in
    if k <= 0 then off := n else off := !off + k
  done

let request_cap = 8192

(* Read until the end of the request head. The whole request is the
   head (GET, no body), so stopping at the first blank line is enough. *)
let read_request fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf >= request_cap then Buffer.contents buf
    else
      let k = try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0 in
      if k = 0 then Buffer.contents buf
      else begin
        Buffer.add_subbytes buf chunk 0 k;
        let s = Buffer.contents buf in
        let rec has_blank i =
          if i + 3 >= String.length s then false
          else
            (s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
           && s.[i + 3] = '\n')
            || has_blank (i + 1)
        in
        if has_blank 0 then s else go ()
      end
  in
  go ()

let handle_connection fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
  let req = read_request fd in
  let reply =
    match String.split_on_char ' ' (String.trim req) with
    | "GET" :: path :: _ ->
      (* Strip any query string: the endpoints take no parameters. *)
      let path =
        match String.index_opt path '?' with
        | Some i -> String.sub path 0 i
        | None -> path
      in
      respond path
    | _ :: _ :: _ ->
      http_response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "only GET\n"
    | _ ->
      http_response ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n"
  in
  try write_all fd reply with _ -> ()

(* {1 Listeners and lifecycle} *)

type server = {
  stop_flag : bool Atomic.t;
  fds : Unix.file_descr list;
  socket_path : string option;
  tcp_port : int option;
  domains : unit Domain.t list;
  stopped : bool Atomic.t;
}

let accept_loop stop_flag fd =
  let rec loop () =
    if Atomic.get stop_flag then ()
    else
      (* The select tick bounds how long a stop waits; a closed fd makes
         select raise, which also ends the loop. *)
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.accept ~cloexec:true fd with
        | client, _ ->
          (try handle_connection client with _ -> ());
          (try Unix.close client with _ -> ());
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception _ -> if Atomic.get stop_flag then () else loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception _ -> ()
  in
  loop ()

let listen_unix path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 16;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 16
   with e ->
     Unix.close fd;
     raise e);
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

let start ?socket ?port () =
  if socket = None && port = None then
    invalid_arg "Status.start: need a socket path or a TCP port";
  (* Light the metrics path even when no telemetry sink is on: without
     this, counters and gauges stay dark and every scrape reads zeros. *)
  Obs.install (Obs.null_sink ());
  let stop_flag = Atomic.make false in
  let unix_fd = Option.map listen_unix socket in
  let tcp =
    try Option.map listen_tcp port
    with e ->
      Option.iter Unix.close unix_fd;
      raise e
  in
  let fds =
    Option.to_list unix_fd @ List.map fst (Option.to_list tcp)
  in
  let domains =
    List.map (fun fd -> Domain.spawn (fun () -> accept_loop stop_flag fd)) fds
  in
  {
    stop_flag;
    fds;
    socket_path = socket;
    tcp_port = Option.map snd tcp;
    domains;
    stopped = Atomic.make false;
  }

let port t = t.tcp_port

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stop_flag true;
    List.iter (fun fd -> try Unix.close fd with _ -> ()) t.fds;
    List.iter Domain.join t.domains;
    Option.iter (fun p -> try Unix.unlink p with _ -> ()) t.socket_path
  end

(* {1 Client} *)

let parse_target target =
  if String.contains target '/' || Sys.file_exists target then
    Ok (Unix.ADDR_UNIX target)
  else
    match String.rindex_opt target ':' with
    | Some i ->
      let host = String.sub target 0 i in
      let port = String.sub target (i + 1) (String.length target - i - 1) in
      (match int_of_string_opt port with
      | None -> Error (Printf.sprintf "bad port in %S" target)
      | Some p ->
        let addr =
          if host = "" || host = "localhost" then Ok Unix.inet_addr_loopback
          else
            match Unix.inet_addr_of_string host with
            | a -> Ok a
            | exception _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } ->
                Error (Printf.sprintf "unknown host %S" host)
              | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0)
              | exception Not_found ->
                Error (Printf.sprintf "unknown host %S" host))
        in
        Result.map (fun a -> Unix.ADDR_INET (a, p)) addr)
    | None -> (
      match int_of_string_opt target with
      | Some p -> Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, p))
      | None ->
        Error
          (Printf.sprintf
             "cannot interpret %S as a socket path, :PORT or HOST:PORT" target))

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let k = try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0 in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let split_response raw =
  let rec find i =
    if i + 3 >= String.length raw then None
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Error "malformed HTTP response (no header terminator)"
  | Some i ->
    let head = String.sub raw 0 i in
    let body = String.sub raw (i + 4) (String.length raw - i - 4) in
    let status_line =
      match String.index_opt head '\r' with
      | Some j -> String.sub head 0 j
      | None -> head
    in
    Ok (status_line, body)

let client_fetch ~target ~path =
  match parse_target target with
  | Error _ as e -> e
  | Ok addr -> (
    let domain = Unix.domain_of_sockaddr addr in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd addr;
          write_all fd
            (Printf.sprintf
               "GET %s HTTP/1.1\r\nHost: stabsim\r\nConnection: close\r\n\r\n"
               path);
          read_all fd)
    with
    | raw -> (
      match split_response raw with
      | Error _ as e -> e
      | Ok (status_line, body) ->
        (match String.split_on_char ' ' status_line with
        | _ :: "200" :: _ -> Ok body
        | _ -> Error (Printf.sprintf "server answered: %s" status_line)))
    | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s (%s)" target (Unix.error_message err) fn))

(* {1 Human rendering} *)

let render_status json =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  let str = function Some (Json.String s) -> Some s | _ -> None in
  let num = function
    | Some (Json.Int i) -> Some i
    | Some (Json.Float f) -> Some (int_of_float f)
    | _ -> None
  in
  let bool_ = function Some (Json.Bool b) -> Some b | _ -> None in
  (match Json.member "campaign" json with
  | None | Some Json.Null -> line "no campaign has run in this process"
  | Some c ->
    let get k = Json.member k c in
    let name = Option.value ~default:"?" (str (get "name")) in
    let finished = Option.value ~default:false (bool_ (get "finished")) in
    let draining = Option.value ~default:false (bool_ (get "draining")) in
    let state =
      if finished then "finished" else if draining then "draining" else "running"
    in
    let elapsed =
      match num (get "elapsed_ns") with
      | Some ns -> Obs.pretty_ns ns
      | None -> "?"
    in
    line "campaign %s: %s, elapsed %s" name state elapsed;
    (match get "cells" with
    | Some cells ->
      let cnum k = Option.value ~default:0 (num (Json.member k cells)) in
      line
        "  cells: %d total | %d done, %d degraded, %d timed-out, %d \
         quarantined, %d from checkpoint | %d remaining"
        (cnum "total") (cnum "done") (cnum "degraded") (cnum "timed_out")
        (cnum "quarantined") (cnum "skipped") (cnum "remaining")
    | None -> ());
    let retries = Option.value ~default:0 (num (get "retries")) in
    (match num (get "eta_ns") with
    | Some ns -> line "  retries: %d, eta: ~%s" retries (Obs.pretty_ns ns)
    | None -> line "  retries: %d" retries);
    (match get "workers" with
    | Some (Json.List ws) ->
      List.iter
        (fun w ->
          let wnum k = num (Json.member k w) in
          let widx = Option.value ~default:(-1) (wnum "worker") in
          let wdom = Option.value ~default:(-1) (wnum "domain") in
          match str (Json.member "cell" w) with
          | Some cell ->
            let el =
              match wnum "elapsed_ns" with
              | Some ns -> Printf.sprintf " (%s)" (Obs.pretty_ns ns)
              | None -> ""
            in
            line "  worker %d [domain %d]: %s%s" widx wdom cell el
          | None -> line "  worker %d [domain %d]: idle" widx wdom)
        ws
    | _ -> ()));
  Buffer.contents buf
