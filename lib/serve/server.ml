module Json = Wcet_diag.Json
module Diag = Wcet_diag.Diag
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace
module Ledger = Wcet_obs.Ledger
module Clock = Wcet_util.Mono_clock

(* ---- metrics ---------------------------------------------------------- *)

let m_connections =
  Metrics.counter ~name:"serve_connections" ~help:"Connections accepted by the analysis daemon"
    ()

let m_completed =
  Metrics.counter
    ~labels:[ ("outcome", "completed") ]
    ~name:"serve_requests" ~help:"Daemon requests answered with a successful result" ()

let m_failed =
  Metrics.counter
    ~labels:[ ("outcome", "failed") ]
    ~name:"serve_requests" ~help:"Daemon requests answered with a typed error reply" ()

let m_cancelled =
  Metrics.counter
    ~labels:[ ("outcome", "cancelled") ]
    ~name:"serve_requests" ~help:"Daemon requests cancelled at their deadline (D0703)" ()

let m_rejected =
  Metrics.counter
    ~labels:[ ("outcome", "rejected") ]
    ~name:"serve_requests"
    ~help:"Daemon frames rejected before running (malformed, oversized, overload, draining)" ()

let m_undelivered =
  Metrics.counter
    ~labels:[ ("outcome", "undelivered") ]
    ~name:"serve_requests"
    ~help:"Daemon replies dropped because the client disconnected first (W0702)" ()

let m_queue_peak =
  Metrics.gauge ~name:"serve_queue_peak" ~help:"Peak admission-queue occupancy of the daemon" ()

let m_queue_depth =
  Metrics.gauge ~name:"serve_queue_depth"
    ~help:"Current admission-queue occupancy of the daemon" ()

let m_inflight =
  Metrics.gauge ~name:"serve_inflight"
    ~help:"Requests currently being processed by worker threads" ()

let m_subscribers =
  Metrics.gauge ~name:"serve_subscribers" ~help:"Connections subscribed to watch events" ()

let m_latency =
  Metrics.histogram ~name:"serve_request_ms"
    ~help:"Admission-to-reply latency of daemon requests in milliseconds"
    ~buckets:[| 1; 5; 10; 50; 100; 500; 1_000; 5_000 |]
    ()

let m_watch_scans =
  Metrics.counter ~name:"serve_watch_scans" ~help:"Directory scans performed by watch mode" ()

let m_watch_events =
  Metrics.counter ~name:"serve_watch_events" ~help:"Delta events published by watch mode" ()

(* ---- daemon diagnostics ----------------------------------------------- *)

let d_not_json msg =
  Diag.makef Diag.Error Diag.Serve ~code:"D0701" "frame is not valid JSON (%s)" msg

let d_malformed msg = Diag.makef Diag.Error Diag.Serve ~code:"D0702" "malformed request: %s" msg

let d_overloaded retry_ms =
  Diag.makef Diag.Error Diag.Serve ~code:"D0704"
    ~hint:(Printf.sprintf "retry after %d ms" retry_ms)
    "server overloaded: admission queue is full"

let d_oversized bytes max_frame =
  Diag.makef Diag.Error Diag.Serve ~code:"D0705"
    "frame of %d bytes exceeds the %d byte limit (dropped)" bytes max_frame

let d_internal e =
  Diag.makef Diag.Error Diag.Serve ~code:"D0706" "request failed: %s (fault isolated)"
    (Printexc.to_string e)

let d_unknown meth = Diag.makef Diag.Error Diag.Serve ~code:"D0707" "unknown method %s" meth

let d_draining =
  Diag.make Diag.Warning Diag.Serve ~code:"W0703"
    "server is draining for shutdown; request not admitted"

(* ---- configuration ---------------------------------------------------- *)

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  max_frame : int;
  default_timeout_ms : int option;
  retry_after_ms : int;
  classify : exn -> Diag.t option;
  handler : cancel:(unit -> bool) -> meth:string -> params:Json.t -> Json.t option;
  watch : (string * float * float) option;
  log : Json.t -> unit;
  ledger : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 4;
    queue_capacity = 64;
    max_frame = Proto.default_max_frame;
    default_timeout_ms = None;
    retry_after_ms = 50;
    classify = (fun _ -> None);
    handler = (fun ~cancel ~meth ~params -> Handlers.standard ~cancel ~meth ~params);
    watch = None;
    log = (fun _ -> ());
    ledger = None;
  }

(* ---- server ----------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; wmutex : Mutex.t; mutable alive : bool }

type job = {
  job_conn : conn;
  job_req : Proto.request;
  cid : int;  (** correlation id, echoed in this request's log lines *)
  admitted_ns : int64;
  deadline_ns : int64 option;
}

(* Correlation ids are process-global so interleaved log lines from several
   servers (tests run them side by side) stay distinguishable. *)
let cid_counter = Atomic.make 1

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  stop_flag : bool Atomic.t;
  qm : Mutex.t;
  q_nonempty : Condition.t;
  q_idle : Condition.t;
  queue : job Queue.t;
  mutable busy : int;
  mutable workers_done : bool;
  conns_m : Mutex.t;
  mutable conns : conn list;
  mutable conn_threads : Thread.t list;
  mutable subscribers : conn list;
}

let draining t = Atomic.get t.stop_flag
let request_stop t = Atomic.set t.stop_flag true

let create cfg =
  (* A dead client mid-write must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists cfg.socket_path then ( try Unix.unlink cfg.socket_path with _ -> ());
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | lsock -> (
    match
      Unix.bind lsock (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen lsock 64
    with
    | () ->
      Ok
        {
          cfg;
          lsock;
          stop_flag = Atomic.make false;
          qm = Mutex.create ();
          q_nonempty = Condition.create ();
          q_idle = Condition.create ();
          queue = Queue.create ();
          busy = 0;
          workers_done = false;
          conns_m = Mutex.create ();
          conns = [];
          conn_threads = [];
          subscribers = [];
        }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close lsock with _ -> ());
      Error (Printf.sprintf "cannot bind %s: %s" cfg.socket_path (Unix.error_message e)))

let write_all fd data =
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd data !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Send one frame; [false] when the client is gone (the caller accounts the
   W0702). Never raises: any write failure marks the connection dead. *)
let send conn json =
  let data = Bytes.of_string (Proto.frame json) in
  Mutex.lock conn.wmutex;
  let ok =
    conn.alive
    &&
    match write_all conn.fd data with
    | () -> true
    | exception _ ->
      conn.alive <- false;
      false
  in
  Mutex.unlock conn.wmutex;
  ok

let send_or_count conn json = if not (send conn json) then Metrics.incr m_undelivered 1

(* One structured log line per request outcome. [queue_ms]/[elapsed_ms] are
   absent on admission-time rejections, which never reach a worker. *)
let log_request t ~cid ~meth ~outcome ?queue_ms ?elapsed_ms () =
  let opt key = function Some v -> [ (key, Json.Int v) ] | None -> [] in
  t.cfg.log
    (Json.Obj
       ([
          ("event", Json.String "request");
          ("cid", Json.Int cid);
          ("method", Json.String meth);
          ("outcome", Json.String outcome);
        ]
       @ opt "queue_ms" queue_ms
       @ opt "elapsed_ms" elapsed_ms))

let subscribe t conn =
  Mutex.lock t.conns_m;
  if not (List.memq conn t.subscribers) then t.subscribers <- conn :: t.subscribers;
  Metrics.set m_subscribers (List.length t.subscribers);
  Mutex.unlock t.conns_m

let unsubscribe t conn =
  Mutex.lock t.conns_m;
  t.subscribers <- List.filter (fun c -> c != conn) t.subscribers;
  Metrics.set m_subscribers (List.length t.subscribers);
  Mutex.unlock t.conns_m

let publish t json =
  Mutex.lock t.conns_m;
  let subs = t.subscribers in
  Mutex.unlock t.conns_m;
  List.iter (fun conn -> send_or_count conn json) subs

(* ---- request processing (worker threads) ------------------------------ *)

let process t job =
  let id = job.job_req.Proto.id in
  let elapsed_ms () =
    Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) job.admitted_ns) 1_000_000L)
  in
  let cancel () =
    match job.deadline_ns with
    | None -> false
    | Some d -> Int64.compare (Clock.now_ns ()) d > 0
  in
  let deadline () =
    Metrics.incr m_cancelled 1;
    (Proto.deadline_reply ~id ~elapsed_ms:(elapsed_ms ()), "cancelled")
  in
  let queue_ms = elapsed_ms () in
  let reply, outcome =
    match job.job_req.Proto.meth with
    (* Subscription management needs the connection identity, so it is
       served here rather than by the pluggable handler. *)
    | "subscribe" ->
      subscribe t job.job_conn;
      Metrics.incr m_completed 1;
      (Proto.ok_reply ~id (Json.Obj [ ("subscribed", Json.Bool true) ]), "completed")
    | "unsubscribe" ->
      unsubscribe t job.job_conn;
      Metrics.incr m_completed 1;
      (Proto.ok_reply ~id (Json.Obj [ ("subscribed", Json.Bool false) ]), "completed")
    | meth -> (
      (* The deadline covers queue wait: a request admitted under load can
         be expired before it ever runs. *)
      if cancel () then deadline ()
      else
        match
          Trace.with_span ~cat:"serve"
            ~attrs:[ ("method", Trace.Str meth) ]
            "request"
            (fun () -> t.cfg.handler ~cancel ~meth ~params:job.job_req.Proto.params)
        with
        | Some result ->
          Metrics.incr m_completed 1;
          (Proto.ok_reply ~id result, "completed")
        | None ->
          Metrics.incr m_rejected 1;
          (Proto.error_reply ~id (d_unknown meth), "unknown-method")
        | exception Wcet_util.Fixpoint.Cancelled -> deadline ()
        | exception Handlers.Bad_params msg ->
          Metrics.incr m_rejected 1;
          (Proto.error_reply ~id (d_malformed msg), "malformed")
        | exception e -> (
          Metrics.incr m_failed 1;
          match t.cfg.classify e with
          | Some d -> (Proto.error_reply ~id d, "failed")
          | None -> (Proto.error_reply ~id (d_internal e), "failed")))
  in
  let delivered = send job.job_conn reply in
  if not delivered then Metrics.incr m_undelivered 1;
  let total_ms = elapsed_ms () in
  Metrics.observe m_latency total_ms;
  log_request t ~cid:job.cid ~meth:job.job_req.Proto.meth
    ~outcome:(if delivered then outcome else "undelivered")
    ~queue_ms ~elapsed_ms:total_ms ()

let rec worker t =
  Mutex.lock t.qm;
  while Queue.is_empty t.queue && not t.workers_done do
    Condition.wait t.q_nonempty t.qm
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qm
  else begin
    let job = Queue.pop t.queue in
    t.busy <- t.busy + 1;
    Metrics.set m_queue_depth (Queue.length t.queue);
    Metrics.set m_inflight t.busy;
    Mutex.unlock t.qm;
    (* The process step is already exception-proof (classify + D0706
       backstop), but a bug in the reply path itself must not kill the
       worker either. *)
    (try process t job with _ -> ());
    Mutex.lock t.qm;
    t.busy <- t.busy - 1;
    Metrics.set m_inflight t.busy;
    Condition.broadcast t.q_idle;
    Mutex.unlock t.qm;
    worker t
  end

(* ---- admission (connection threads) ----------------------------------- *)

let admit t conn (req : Proto.request) =
  let cid = Atomic.fetch_and_add cid_counter 1 in
  if draining t then begin
    Metrics.incr m_rejected 1;
    log_request t ~cid ~meth:req.Proto.meth ~outcome:"rejected-draining" ();
    send_or_count conn (Proto.error_reply ~id:req.Proto.id d_draining)
  end
  else begin
    let now = Clock.now_ns () in
    let timeout_ms =
      match req.Proto.timeout_ms with Some ms -> Some ms | None -> t.cfg.default_timeout_ms
    in
    let deadline_ns =
      Option.map (fun ms -> Int64.add now (Int64.mul (Int64.of_int ms) 1_000_000L)) timeout_ms
    in
    Mutex.lock t.qm;
    let admitted = Queue.length t.queue < t.cfg.queue_capacity in
    if admitted then begin
      Queue.add { job_conn = conn; job_req = req; cid; admitted_ns = now; deadline_ns } t.queue;
      Metrics.set_max m_queue_peak (Queue.length t.queue);
      Metrics.set m_queue_depth (Queue.length t.queue);
      Condition.signal t.q_nonempty
    end;
    Mutex.unlock t.qm;
    if not admitted then begin
      Metrics.incr m_rejected 1;
      log_request t ~cid ~meth:req.Proto.meth ~outcome:"rejected-overloaded" ();
      send_or_count conn
        (Proto.error_reply ~retry_after_ms:t.cfg.retry_after_ms ~id:req.Proto.id
           (d_overloaded t.cfg.retry_after_ms))
    end
  end

let handle_item t conn = function
  | Proto.Framer.Oversized bytes ->
    Metrics.incr m_rejected 1;
    send_or_count conn (Proto.error_reply ~id:Json.Null (d_oversized bytes t.cfg.max_frame))
  | Proto.Framer.Frame text -> (
    match Proto.decode_request text with
    | Ok req -> admit t conn req
    | Error (Proto.Not_json msg) ->
      Metrics.incr m_rejected 1;
      send_or_count conn (Proto.error_reply ~id:Json.Null (d_not_json msg))
    | Error (Proto.Malformed msg) ->
      Metrics.incr m_rejected 1;
      send_or_count conn (Proto.error_reply ~id:Json.Null (d_malformed msg)))

let conn_loop t conn =
  let framer = Proto.Framer.create ~max_frame:t.cfg.max_frame () in
  let buf = Bytes.create 8192 in
  let rec loop () =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      List.iter (handle_item t conn) (Proto.Framer.feed framer buf n);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception _ -> ()
  in
  (try loop () with _ -> ());
  conn.alive <- false;
  Mutex.lock t.conns_m;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  t.subscribers <- List.filter (fun c -> c != conn) t.subscribers;
  Metrics.set m_subscribers (List.length t.subscribers);
  Mutex.unlock t.conns_m;
  try Unix.close conn.fd with _ -> ()

(* ---- watch thread ----------------------------------------------------- *)

(* Every successful watch re-analysis becomes a bound-ledger snapshot, so a
   long-running daemon accumulates the same drift history `wcet_tool ledger`
   reads. Append failures are swallowed: telemetry must never take down the
   scanner. *)
let ledger_record t path report =
  match t.cfg.ledger with
  | None -> ()
  | Some ledger_path ->
    let entry =
      Handlers.ledger_entry ~program:path ~digest:(Handlers.file_digest path) (Ok report)
    in
    ignore (Ledger.append ~path:ledger_path [ entry ])

let watch_loop t dir period_s debounce_s () =
  let analyze path =
    match Handlers.analyze_source path with
    | Ok report ->
      ledger_record t path report;
      Ok report
    | Error _ as e -> e
    | exception Wcet_util.Fixpoint.Cancelled ->
      Error [ d_internal Wcet_util.Fixpoint.Cancelled ]
    | exception e -> (
      match t.cfg.classify e with Some d -> Error [ d ] | None -> Error [ d_internal e ])
  in
  let w = Watch.create ~dir ~debounce_s ~analyze in
  let rec sleep remaining =
    if remaining > 0. && not (draining t) then begin
      let dt = Float.min remaining 0.2 in
      Thread.delay dt;
      sleep (remaining -. dt)
    end
  in
  let rec loop () =
    if not (draining t) then begin
      Metrics.incr m_watch_scans 1;
      let events = try Watch.poll w with _ -> [] in
      List.iter
        (fun ev ->
          Metrics.incr m_watch_events 1;
          publish t ev)
        events;
      sleep period_s;
      loop ()
    end
  in
  loop ()

(* ---- accept loop and drain -------------------------------------------- *)

let run t =
  let workers = List.init t.cfg.workers (fun _ -> Thread.create worker t) in
  let watcher =
    match t.cfg.watch with
    | Some (dir, period_s, debounce_s) ->
      Some (Thread.create (watch_loop t dir period_s debounce_s) ())
    | None -> None
  in
  let rec accept_loop () =
    if not (draining t) then begin
      (match Unix.select [ t.lsock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.lsock with
        | fd, _ ->
          Metrics.incr m_connections 1;
          let conn = { fd; wmutex = Mutex.create (); alive = true } in
          Mutex.lock t.conns_m;
          t.conns <- conn :: t.conns;
          let th = Thread.create (fun () -> conn_loop t conn) () in
          t.conn_threads <- th :: t.conn_threads;
          Mutex.unlock t.conns_m
        | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: no new connections; frames still arriving on live connections
     are answered W0703 by [admit]; admitted work runs to completion. *)
  (try Unix.close t.lsock with _ -> ());
  Mutex.lock t.qm;
  while (not (Queue.is_empty t.queue)) || t.busy > 0 do
    Condition.wait t.q_idle t.qm
  done;
  t.workers_done <- true;
  Condition.broadcast t.q_nonempty;
  Mutex.unlock t.qm;
  List.iter Thread.join workers;
  (match watcher with Some th -> Thread.join th | None -> ());
  publish t (Proto.event "shutdown" []);
  Mutex.lock t.conns_m;
  let conns = t.conns and threads = t.conn_threads in
  Mutex.unlock t.conns_m;
  List.iter (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ()) conns;
  List.iter Thread.join threads;
  try Unix.unlink t.cfg.socket_path with _ -> ()
