(* Tests for the analysis daemon (lib/serve) and its foundations:

   - the hand-written JSON parser: round-trips, malformed-input fuzz
     (seeded, never raises), escapes, depth cap, trailing garbage;
   - wire framing: split reads (byte-at-a-time), oversized-frame recovery;
   - protocol encode/decode round-trips and typed decode errors;
   - cooperative cancellation: an expired token raises Fixpoint.Cancelled
     out of the analyzer without a partial report escaping;
   - watch mode: debounced change detection with injectable time, bound
     drift and changed-function deltas, vanished files;
   - the server end to end over a real Unix-domain socket: typed replies
     for good, malformed, unknown, oversized and expired requests,
     backpressure under a full queue, subscriber shutdown events, graceful
     drain, and warm-restart bit-identity of cached bounds;
   - fault-injection campaign smokes (store + daemon). *)

module Json = Wcet_diag.Json
module Diag = Wcet_diag.Diag
module Proto = Wcet_serve.Proto
module Server = Wcet_serve.Server
module Client = Wcet_serve.Client
module Handlers = Wcet_serve.Handlers
module Watch = Wcet_serve.Watch
module Analyzer = Wcet_core.Analyzer
module Report_cache = Wcet_core.Report_cache
module Faultinject = Wcet_experiments.Faultinject
module Pcg = Wcet_util.Pcg
module Obs = Wcet_obs.Obs
module Metrics = Wcet_obs.Metrics
module Ledger = Wcet_obs.Ledger

(* --- JSON parser -------------------------------------------------------- *)

let json_testable =
  Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.String "";
      Json.String "plain";
      Json.String "quote\" slash\\ control\n\t end";
      Json.List [];
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("deep", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> Alcotest.check json_testable (Json.to_string j) j j'
      | Error msg -> Alcotest.fail (Json.to_string j ^ ": " ^ msg))
    samples

let test_json_escapes () =
  (match Json.parse {|"Aé€"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "unicode escapes did not parse");
  (match Json.parse {|"😀"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse");
  (* lone high surrogate is malformed *)
  (match Json.parse {|"\ud83d"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lone surrogate accepted");
  match Json.parse "\"raw \x01 control\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unescaped control char accepted"

let test_json_rejects () =
  let bad =
    [
      ""; "  "; "{"; "}"; "[1,"; "[1 2]"; "{\"a\":}"; "{\"a\" 1}"; "{a:1}"; "01"; "1.";
      "+1"; "tru"; "nullx"; "\"unterminated"; "[1] trailing"; "{\"a\":1,}"; "[,]";
      "\xff\xfe"; "1e"; "--1";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok j -> Alcotest.fail (Printf.sprintf "%S parsed as %s" s (Json.to_string j)))
    bad;
  (* the depth cap stops unbounded recursion *)
  let deep = String.make 400 '[' ^ String.make 400 ']' in
  match Json.parse deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "400-deep nesting accepted"

(* Seeded fuzz: mutations of valid documents must parse or fail, never
   raise, and whatever parses must re-serialize to something that parses
   to the same value. *)
let test_json_fuzz () =
  let rng = Pcg.create ~seed:20110318L () in
  let seeds =
    [
      {|{"id":7,"method":"analyze","params":{"source":"p.mc","timeout_ms":50}}|};
      {|[1,-2,3.5,true,false,null,"strA\n",[],{}]|};
      {|{"a":{"b":{"c":[0,1,2]}},"d":"😀"}|};
    ]
  in
  let mutate s =
    let n = String.length s in
    if n = 0 then "x"
    else
      match Pcg.next_int rng 4 with
      | 0 -> String.sub s 0 (Pcg.next_int rng n)
      | 1 ->
        let b = Bytes.of_string s in
        Bytes.set b (Pcg.next_int rng n) (Char.chr (Pcg.next_int rng 256));
        Bytes.to_string b
      | 2 ->
        let i = Pcg.next_int rng (n + 1) in
        String.sub s 0 i ^ String.make 1 (Char.chr (Pcg.next_int rng 256))
        ^ String.sub s i (n - i)
      | _ ->
        let i = Pcg.next_int rng n in
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  in
  for i = 0 to 499 do
    let s = ref (List.nth seeds (i mod List.length seeds)) in
    for _ = 0 to Pcg.next_int rng 4 do
      s := mutate !s
    done;
    match Json.parse !s with
    | Error _ -> ()
    | Ok j -> (
      match Json.parse (Json.to_string j) with
      | Ok j' -> Alcotest.check json_testable "reparse stability" j j'
      | Error msg -> Alcotest.fail ("reparse failed: " ^ msg))
  done

(* --- framing ------------------------------------------------------------ *)

let test_framer_split_reads () =
  let f = Proto.Framer.create ~max_frame:64 () in
  let wire = "{\"id\":1}\n{\"id\":2}\npartial" in
  let items = ref [] in
  String.iter
    (fun c -> items := !items @ Proto.Framer.feed_string f (String.make 1 c))
    wire;
  (match !items with
  | [ Proto.Framer.Frame a; Proto.Framer.Frame b ] ->
    Alcotest.(check string) "first frame" "{\"id\":1}" a;
    Alcotest.(check string) "second frame" "{\"id\":2}" b
  | _ -> Alcotest.fail "expected exactly two frames from split reads");
  match Proto.Framer.feed_string f "-tail\n" with
  | [ Proto.Framer.Frame c ] -> Alcotest.(check string) "spanning frame" "partial-tail" c
  | _ -> Alcotest.fail "expected the spanning frame"

let test_framer_oversized () =
  let f = Proto.Framer.create ~max_frame:16 () in
  let big = String.make 100 'x' in
  let items =
    Proto.Framer.feed_string f (big ^ "\n{\"ok\":1}\n")
  in
  match items with
  | [ Proto.Framer.Oversized n; Proto.Framer.Frame next ] ->
    Alcotest.(check bool) "reported length covers the payload" true (n >= 100);
    Alcotest.(check string) "stream recovers at the next newline" "{\"ok\":1}" next
  | _ -> Alcotest.fail "expected Oversized then a clean frame"

(* --- protocol ----------------------------------------------------------- *)

let test_proto_roundtrip () =
  let text =
    Proto.encode_request ~timeout_ms:250 ~id:(Json.Int 7) ~meth:"analyze"
      (Json.Obj [ ("source", Json.String "p.mc") ])
  in
  Alcotest.(check bool) "framed with newline" true (String.length text > 0 && text.[String.length text - 1] = '\n');
  match Proto.decode_request (String.trim text) with
  | Error _ -> Alcotest.fail "well-formed request did not decode"
  | Ok req ->
    Alcotest.check json_testable "id" (Json.Int 7) req.Proto.id;
    Alcotest.(check string) "method" "analyze" req.Proto.meth;
    Alcotest.(check (option int)) "timeout" (Some 250) req.Proto.timeout_ms

let test_proto_decode_errors () =
  (match Proto.decode_request "not json at all" with
  | Error (Proto.Not_json _) -> ()
  | _ -> Alcotest.fail "garbage should be Not_json");
  (match Proto.decode_request "{\"id\":1}" with
  | Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "missing method should be Malformed");
  (match Proto.decode_request "{\"id\":[1],\"method\":\"ping\"}" with
  | Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "array id should be Malformed");
  match Proto.decode_request "{\"id\":1,\"method\":\"ping\",\"params\":{\"timeout_ms\":-5}}" with
  | Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "negative timeout should be Malformed"

let test_proto_replies () =
  let ok = Proto.ok_reply ~id:(Json.String "a") (Json.Obj [ ("x", Json.Int 1) ]) in
  (match Proto.decode_reply (Json.to_string ok) with
  | Ok r ->
    Alcotest.(check bool) "ok flag" true r.Proto.ok;
    Alcotest.check json_testable "id echo" (Json.String "a") r.Proto.reply_id
  | Error msg -> Alcotest.fail msg);
  let d = Diag.make Diag.Error Diag.Serve ~code:"D0704" "full" in
  let err = Proto.error_reply ~retry_after_ms:40 ~id:(Json.Int 2) d in
  (match Proto.decode_reply (Json.to_string err) with
  | Ok r ->
    Alcotest.(check bool) "not ok" false r.Proto.ok;
    Alcotest.(check (option string)) "code" (Some "D0704") (Proto.error_code r);
    Alcotest.(check (option int)) "retry hint" (Some 40) r.Proto.retry_after_ms
  | Error msg -> Alcotest.fail msg);
  match Proto.decode_reply (Json.to_string (Proto.deadline_reply ~id:(Json.Int 3) ~elapsed_ms:12)) with
  | Ok r -> (
    Alcotest.(check bool) "deadline reply is ok" true r.Proto.ok;
    match r.Proto.result with
    | Some res -> (
      Alcotest.(check (option string)) "partial verdict" (Some "partial")
        (Option.bind (Json.member "verdict" res) Json.to_string_opt);
      match Json.member "holes" res with
      | Some (Json.List [ hole ]) ->
        Alcotest.(check (option string)) "typed hole" (Some "deadline-exceeded")
          (Option.bind (Json.member "kind" hole) Json.to_string_opt)
      | _ -> Alcotest.fail "expected exactly one hole")
    | None -> Alcotest.fail "deadline reply carries no result")
  | Error msg -> Alcotest.fail msg

(* --- cooperative cancellation ------------------------------------------- *)

let loop_src n =
  Printf.sprintf
    "int main() { int i; int s; s = 0; for (i = 0; i < %d; i = i + 1) { s = s + i; } return \
     s; }"
    n

let test_cancellation () =
  let program = Minic.Compile.compile (loop_src 8) in
  (* an already-expired token cancels before any phase completes *)
  (match Analyzer.analyze ~cancel:(fun () -> true) program with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception Wcet_util.Fixpoint.Cancelled -> ());
  (* a live token does not perturb the analysis *)
  let r1 = Analyzer.analyze ~cancel:(fun () -> false) program in
  let r2 = Analyzer.analyze program in
  Alcotest.(check int) "bound unchanged under a live token" r2.Analyzer.wcet r1.Analyzer.wcet

(* --- watch mode --------------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let event_name = function
  | Json.Obj _ as j -> Option.bind (Json.member "event" j) Json.to_string_opt
  | _ -> None

let test_watch_deltas () =
  let dir = temp_dir "wcet-watch" in
  let path = Filename.concat dir "prog.mc" in
  write_file path (loop_src 4);
  let w = Watch.create ~dir ~debounce_s:1.0 ~analyze:Handlers.analyze_source in
  (* first poll: silent baseline *)
  Alcotest.(check int) "baseline poll is silent" 0 (List.length (Watch.poll ~now:0.0 w));
  let small = (Handlers.analyze_source path |> Result.get_ok).Analyzer.wcet in
  write_file path (loop_src 16);
  Alcotest.(check int) "change enters debounce" 0 (List.length (Watch.poll ~now:10.0 w));
  Alcotest.(check int) "still inside debounce" 0 (List.length (Watch.poll ~now:10.5 w));
  (match Watch.poll ~now:11.1 w with
  | [ ev ] ->
    Alcotest.(check (option string)) "change event" (Some "change") (event_name ev);
    let drift =
      match Json.member "drift" ev with Some (Json.Int d) -> d | _ -> min_int
    in
    let wcet = match Json.member "wcet" ev with Some (Json.Int d) -> d | _ -> 0 in
    Alcotest.(check int) "drift = new - old" (wcet - small) drift;
    Alcotest.(check bool) "a bigger loop costs more" true (drift > 0);
    (match Json.member "changed_functions" ev with
    | Some (Json.List fns) ->
      Alcotest.(check bool) "main changed" true (List.mem (Json.String "main") fns)
    | _ -> Alcotest.fail "no changed_functions")
  | evs -> Alcotest.fail (Printf.sprintf "expected one change event, got %d" (List.length evs)));
  Sys.remove path;
  (match Watch.poll ~now:12.0 w with
  | [ ev ] -> Alcotest.(check (option string)) "vanished event" (Some "vanished") (event_name ev)
  | evs -> Alcotest.fail (Printf.sprintf "expected one vanished event, got %d" (List.length evs)));
  Sys.rmdir dir

let test_watch_broken_source () =
  let dir = temp_dir "wcet-watch-broken" in
  let path = Filename.concat dir "bad.mc" in
  write_file path (loop_src 4);
  (* mirror the server's watch loop: frontend exceptions are classified
     into Error, never allowed to escape the scanner *)
  let analyze p =
    match Handlers.analyze_source p with
    | r -> r
    | exception e -> (
      match Faultinject.classify_exn e with Some d -> Error [ d ] | None -> raise e)
  in
  let w = Watch.create ~dir ~debounce_s:0.5 ~analyze in
  ignore (Watch.poll ~now:0.0 w);
  write_file path "int main( { syntax error";
  ignore (Watch.poll ~now:5.0 w);
  (match Watch.poll ~now:6.0 w with
  | [ ev ] ->
    Alcotest.(check (option string)) "analysis-failed event" (Some "analysis-failed")
      (event_name ev)
  | evs ->
    Alcotest.fail (Printf.sprintf "expected one analysis-failed event, got %d" (List.length evs)));
  Sys.remove path;
  ignore (Watch.poll ~now:7.0 w);
  Sys.rmdir dir

(* --- server end to end -------------------------------------------------- *)

let scratch_socket () =
  let p = Filename.temp_file "wcet-test-serve" ".sock" in
  Sys.remove p;
  p

let start_server ?(workers = 2) ?(queue = 8) ?(max_frame = 4096) ?default_timeout_ms ?handler
    ?watch ?log ?ledger () =
  let socket_path = scratch_socket () in
  let base = Server.default_config ~socket_path in
  let cfg =
    {
      base with
      Server.workers;
      Server.queue_capacity = queue;
      Server.max_frame;
      Server.default_timeout_ms;
      Server.retry_after_ms = 10;
      Server.classify = Faultinject.classify_exn;
      Server.handler = Option.value ~default:base.Server.handler handler;
      Server.watch;
      Server.log = Option.value ~default:base.Server.log log;
      Server.ledger;
    }
  in
  match Server.create cfg with
  | Error msg -> Alcotest.fail ("server did not start: " ^ msg)
  | Ok srv -> (srv, Thread.create Server.run srv, socket_path)

let stop_server (srv, th, path) =
  Server.request_stop srv;
  Thread.join th;
  try Sys.remove path with Sys_error _ -> ()

let with_server ?workers ?queue ?max_frame ?default_timeout_ms ?handler ?watch ?log ?ledger f =
  let ((_, _, path) as s) =
    start_server ?workers ?queue ?max_frame ?default_timeout_ms ?handler ?watch ?log ?ledger ()
  in
  Fun.protect ~finally:(fun () -> stop_server s) (fun () -> f path)

let with_client path f =
  match Client.connect path with
  | Error msg -> Alcotest.fail ("connect: " ^ msg)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok_result = function
  | Ok (r : Proto.reply) when r.Proto.ok -> Option.value ~default:Json.Null r.Proto.result
  | Ok r ->
    Alcotest.fail
      ("error reply: " ^ Option.value ~default:"?" (Proto.error_code r))
  | Error msg -> Alcotest.fail msg

let expect_code expected = function
  | Ok (r : Proto.reply) when not r.Proto.ok ->
    Alcotest.(check (option string)) ("reply code " ^ expected) (Some expected)
      (Proto.error_code r)
  | Ok _ -> Alcotest.fail ("expected " ^ expected ^ " error reply, got ok")
  | Error msg -> Alcotest.fail msg

let test_server_basics () =
  let src = Filename.temp_file "wcet-serve-src" ".mc" in
  write_file src (loop_src 8);
  with_server (fun path ->
      with_client path (fun c ->
          (* ping *)
          let pong = ok_result (Client.request c ~id:(Json.Int 1) ~meth:"ping" (Json.Obj [])) in
          Alcotest.(check (option bool)) "pong" (Some true)
            (Option.bind (Json.member "pong" pong) Json.to_bool_opt);
          (* analyze over the wire = the CLI's JSON report *)
          let report =
            ok_result
              (Client.request c ~id:(Json.Int 2) ~meth:"analyze"
                 (Json.Obj [ ("source", Json.String src) ]))
          in
          Alcotest.(check (option string)) "complete verdict" (Some "complete")
            (Option.bind (Json.member "verdict" report) Json.to_string_opt);
          (* fault isolation: unreadable source is a typed reply, and the
             connection keeps working *)
          (match
             Client.request c ~id:(Json.Int 3) ~meth:"analyze"
               (Json.Obj [ ("source", Json.String "/nonexistent/q.mc") ])
           with
          | Ok r when not r.Proto.ok ->
            Alcotest.(check (option string)) "classified input error" (Some "E0101")
              (Proto.error_code r)
          | Ok _ -> Alcotest.fail "expected a typed error for an unreadable source"
          | Error msg -> Alcotest.fail msg);
          (* malformed / unknown / oversized, all on the same connection *)
          (match Client.send_raw c "this is not json\n" with
          | Ok () -> expect_code "D0701" (Client.read_reply c)
          | Error msg -> Alcotest.fail msg);
          expect_code "D0707" (Client.request c ~id:(Json.Int 4) ~meth:"frobnicate" (Json.Obj []));
          (match Client.send_raw c (String.make 8000 'z' ^ "\n") with
          | Ok () -> expect_code "D0705" (Client.read_reply c)
          | Error msg -> Alcotest.fail msg);
          (* still alive after all of that *)
          ignore
            (ok_result (Client.request c ~id:(Json.Int 5) ~meth:"ping" (Json.Obj [])))));
  Sys.remove src

(* Parameters the daemon shares with the CLI's enums: values outside the
   shared tables (an unknown hardware profile) are typed D0702 replies, a
   listed profile still analyzes, and the retired [path_backend] param is
   a D0702 whatever it names. *)
let test_server_rejects_unknown_params () =
  let src = Filename.temp_file "wcet-serve-params" ".mc" in
  write_file src (loop_src 4);
  with_server (fun path ->
      with_client path (fun c ->
          let analyze id params =
            Client.request c ~id:(Json.Int id) ~meth:"analyze"
              (Json.Obj (("source", Json.String src) :: params))
          in
          expect_code "D0702" (analyze 1 [ ("path_backend", Json.String "mc") ]);
          expect_code "D0702" (analyze 2 [ ("path_backend", Json.String "ipet") ]);
          expect_code "D0702" (analyze 3 [ ("hw", Json.String "bogus") ]);
          let report = ok_result (analyze 4 [ ("hw", Json.String "uncached") ]) in
          Alcotest.(check (option string)) "listed values still analyze" (Some "complete")
            (Option.bind (Json.member "verdict" report) Json.to_string_opt)));
  Sys.remove src

let test_server_deadline () =
  let src = Filename.temp_file "wcet-serve-ddl" ".mc" in
  write_file src (loop_src 64);
  with_server (fun path ->
      with_client path (fun c ->
          let res =
            ok_result
              (Client.request ~timeout_ms:0 c ~id:(Json.Int 1) ~meth:"analyze"
                 (Json.Obj [ ("source", Json.String src) ]))
          in
          Alcotest.(check (option string)) "partial verdict" (Some "partial")
            (Option.bind (Json.member "verdict" res) Json.to_string_opt);
          (match Json.member "holes" res with
          | Some (Json.List (hole :: _)) ->
            Alcotest.(check (option string)) "deadline hole" (Some "deadline-exceeded")
              (Option.bind (Json.member "kind" hole) Json.to_string_opt)
          | _ -> Alcotest.fail "expected a deadline-exceeded hole");
          (* the server is not poisoned: the same analysis completes without
             the deadline *)
          let full =
            ok_result
              (Client.request c ~id:(Json.Int 2) ~meth:"analyze"
                 (Json.Obj [ ("source", Json.String src) ]))
          in
          Alcotest.(check (option string)) "subsequent run completes" (Some "complete")
            (Option.bind (Json.member "verdict" full) Json.to_string_opt)));
  Sys.remove src

let test_server_backpressure () =
  (* one worker, queue of one, a handler that blocks: the third concurrent
     request must be refused with D0704 and a retry hint *)
  let gate = Mutex.create () in
  let handler ~cancel ~meth ~params =
    match meth with
    | "slow" ->
      Mutex.lock gate;
      Mutex.unlock gate;
      Some (Json.Obj [ ("slow", Json.Bool true) ])
    | _ -> Handlers.standard ~cancel ~meth ~params
  in
  Mutex.lock gate;
  with_server ~workers:1 ~queue:1 ~handler (fun path ->
      with_client path (fun c1 ->
          with_client path (fun c2 ->
              with_client path (fun c3 ->
                  (match Client.send_raw c1 (Proto.encode_request ~id:(Json.Int 1) ~meth:"slow" (Json.Obj [])) with
                  | Ok () -> ()
                  | Error msg -> Alcotest.fail msg);
                  (* give the worker time to pick up the blocking request *)
                  Thread.delay 0.2;
                  (match Client.send_raw c2 (Proto.encode_request ~id:(Json.Int 2) ~meth:"slow" (Json.Obj [])) with
                  | Ok () -> ()
                  | Error msg -> Alcotest.fail msg);
                  Thread.delay 0.2;
                  (* queue now holds request 2; request 3 must bounce *)
                  (match Client.request c3 ~id:(Json.Int 3) ~meth:"slow" (Json.Obj []) with
                  | Ok r when not r.Proto.ok ->
                    Alcotest.(check (option string)) "overloaded" (Some "D0704")
                      (Proto.error_code r);
                    Alcotest.(check bool) "retry hint present" true
                      (r.Proto.retry_after_ms <> None)
                  | Ok _ -> Alcotest.fail "expected D0704"
                  | Error msg -> Alcotest.fail msg);
                  (* release the gate; both held requests complete *)
                  Mutex.unlock gate;
                  ignore (ok_result (Client.read_reply c1));
                  ignore (ok_result (Client.read_reply c2))))))

let test_server_retry_helper () =
  (* the real D0704 path: a queue of one and a gated worker, retried by the
     jittered-backoff client helper until the gate opens. A semaphore, not a
     mutex: the gate is opened from a different thread. *)
  let gate = Semaphore.Counting.make 0 in
  let gated ~cancel ~meth ~params =
    match meth with
    | "slow" ->
      Semaphore.Counting.acquire gate;
      Semaphore.Counting.release gate;
      Some (Json.Obj [ ("slow", Json.Bool true) ])
    | _ -> Handlers.standard ~cancel ~meth ~params
  in
  with_server ~workers:1 ~queue:1 ~handler:gated (fun path ->
      with_client path (fun c1 ->
          with_client path (fun c2 ->
              with_client path (fun c3 ->
                  ignore
                    (Client.send_raw c1
                       (Proto.encode_request ~id:(Json.Int 1) ~meth:"slow" (Json.Obj [])));
                  Thread.delay 0.2;
                  ignore
                    (Client.send_raw c2
                       (Proto.encode_request ~id:(Json.Int 2) ~meth:"slow" (Json.Obj [])));
                  Thread.delay 0.2;
                  (* open the gate shortly after the first overloaded reply so
                     a backoff retry finds room *)
                  let opener =
                    Thread.create
                      (fun () ->
                        Thread.delay 0.3;
                        Semaphore.Counting.release gate)
                      ()
                  in
                  let rng = Pcg.create ~seed:7L () in
                  (match
                     Client.request_with_retry ~attempts:8 ~rng c3 ~id:(Json.Int 3)
                       ~meth:"ping" (Json.Obj [])
                   with
                  | Ok r -> Alcotest.(check bool) "retry eventually succeeds" true r.Proto.ok
                  | Error msg -> Alcotest.fail msg);
                  Thread.join opener;
                  ignore (ok_result (Client.read_reply c1));
                  ignore (ok_result (Client.read_reply c2))))))

let test_server_subscribe_shutdown () =
  let srv, th, path = start_server () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      (try Thread.join th with _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_client path (fun c ->
          let sub =
            ok_result (Client.request c ~id:(Json.Int 1) ~meth:"subscribe" (Json.Obj []))
          in
          Alcotest.(check (option bool)) "subscribed" (Some true)
            (Option.bind (Json.member "subscribed" sub) Json.to_bool_opt);
          Server.request_stop srv;
          (* the drain publishes a shutdown event before closing us *)
          match Client.read_frame ~timeout_s:10. c with
          | Ok line -> (
            match Json.parse line with
            | Ok ev ->
              Alcotest.(check (option string)) "shutdown event" (Some "shutdown")
                (event_name ev)
            | Error msg -> Alcotest.fail msg)
          | Error msg -> Alcotest.fail ("no shutdown event: " ^ msg)))

let test_server_watch_events () =
  let dir = temp_dir "wcet-serve-watch" in
  let file = Filename.concat dir "w.mc" in
  write_file file (loop_src 4);
  with_server ~watch:(dir, 0.05, 0.05) (fun path ->
      with_client path (fun c ->
          ignore (ok_result (Client.request c ~id:(Json.Int 1) ~meth:"subscribe" (Json.Obj [])));
          (* let the baseline scan pass, then change the source *)
          Thread.delay 0.4;
          write_file file (loop_src 32);
          let deadline = Unix.gettimeofday () +. 15. in
          let rec wait_for_change () =
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "no change event within 15s"
            else
              match Client.read_frame ~timeout_s:15. c with
              | Error msg -> Alcotest.fail ("waiting for change event: " ^ msg)
              | Ok line -> (
                match Json.parse line with
                | Ok ev when event_name ev = Some "change" ->
                  Alcotest.(check (option string)) "changed path" (Some file)
                    (Option.bind (Json.member "path" ev) Json.to_string_opt)
                | Ok _ | Error _ -> wait_for_change ())
          in
          wait_for_change ()));
  Sys.remove file;
  Sys.rmdir dir

let test_server_warm_restart_bit_identity () =
  let cache_dir = temp_dir "wcet-serve-cache" in
  let src = Filename.temp_file "wcet-serve-warm" ".mc" in
  write_file src (loop_src 12);
  let prev_enabled = Report_cache.enabled () in
  let prev_dir = Report_cache.dir () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Report_cache.drain_diags ());
      (match (prev_enabled, prev_dir) with
      | true, Some d -> ignore (Report_cache.set_dir d)
      | _ -> Report_cache.disable ());
      Sys.remove src)
    (fun () ->
      Alcotest.(check bool) "cache dir opens" true (Report_cache.set_dir cache_dir);
      let analyze_once () =
        with_server (fun path ->
            with_client path (fun c ->
                ok_result
                  (Client.request c ~id:(Json.Int 1) ~meth:"analyze"
                     (Json.Obj [ ("source", Json.String src) ]))))
      in
      (* cold server populates the store; a fresh server after a clean stop
         must reproduce the reply bit for bit from the warm store *)
      let cold = analyze_once () in
      let warm = analyze_once () in
      Alcotest.(check string) "warm restart reproduces the cold reply bit for bit"
        (Json.to_string cold) (Json.to_string warm))

(* --- telemetry ---------------------------------------------------------- *)

let with_obs f =
  Obs.enable ();
  Metrics.reset ();
  Fun.protect ~finally:Obs.disable f

let contains hay needle = Astring.String.is_infix ~affix:needle hay

(* The acceptance pin: the daemon's [metrics] method serves the registry
   in Prometheus text exposition format, with the serve-layer families
   present and the request-latency histogram fed by this very session. *)
let test_server_metrics_prometheus () =
  with_obs (fun () ->
      with_server (fun path ->
          with_client path (fun c ->
              ignore (ok_result (Client.request c ~id:(Json.Int 1) ~meth:"ping" (Json.Obj [])));
              (* latency is observed after the reply is sent; give the worker
                 a beat so the ping shows up in the scrape *)
              Thread.delay 0.2;
              let res =
                ok_result
                  (Client.request c ~id:(Json.Int 2) ~meth:"metrics"
                     (Json.Obj [ ("format", Json.String "prometheus") ]))
              in
              Alcotest.(check (option string)) "exposition content type"
                (Some "text/plain; version=0.0.4")
                (Option.bind (Json.member "content_type" res) Json.to_string_opt);
              let body =
                match Option.bind (Json.member "body" res) Json.to_string_opt with
                | Some b -> b
                | None -> Alcotest.fail "no body in prometheus metrics reply"
              in
              List.iter
                (fun needle ->
                  Alcotest.(check bool) ("scrape contains " ^ needle) true
                    (contains body needle))
                [
                  "# TYPE serve_requests counter";
                  "# TYPE serve_request_ms histogram";
                  "# TYPE serve_queue_depth gauge";
                  "serve_requests{outcome=\"completed\"}";
                  "serve_request_ms_bucket{le=\"+Inf\"}";
                ];
              (* the ping we sent was measured end to end *)
              (match Metrics.find "serve_request_ms" with
              | Some (Metrics.Histogram_value { count; _ }) ->
                Alcotest.(check bool) "latency histogram fed" true (count >= 1)
              | _ -> Alcotest.fail "serve_request_ms not registered");
              (* default format stays the JSON registry dump *)
              match
                ok_result (Client.request c ~id:(Json.Int 3) ~meth:"metrics" (Json.Obj []))
              with
              | Json.Obj _ -> ()
              | _ -> Alcotest.fail "json metrics reply is not an object")))

(* The daemon's analysis replies are a function of the report alone: with
   the observability layer on, they embed neither the metric registry nor
   the process's span buffer (which grew with every request), so two
   replies for one source agree once timings are dropped. *)
let rec drop_timing = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k [ "phases"; "wall_us"; "seconds" ] then None
           else Some (k, drop_timing v))
         fields)
  | Json.List items -> Json.List (List.map drop_timing items)
  | j -> j

let standard meth params =
  match Handlers.standard ~cancel:(fun () -> false) ~meth ~params:(Json.Obj params) with
  | Some reply -> reply
  | None -> Alcotest.fail ("no standard method " ^ meth)

let test_analyze_reply_is_pure () =
  let src = Filename.temp_file "wcet-serve-pure" ".mc" in
  write_file src (loop_src 8);
  with_obs (fun () ->
      let params = [ ("source", Json.String src) ] in
      let first = standard "analyze" params in
      let second = standard "analyze" params in
      List.iter
        (fun key ->
          Alcotest.(check bool) ("no " ^ key ^ " key") true
            (Json.member key first = None && Json.member key second = None))
        [ "trace"; "metrics" ];
      Alcotest.check json_testable "replies agree" (drop_timing first) (drop_timing second));
  Sys.remove src

(* The store keeps answers, not states: an [explain] after an [analyze] of
   the same file re-analyzes and returns the whole explain view, the one a
   daemon without a store returns. *)
let test_server_explain_after_analyze () =
  let cache_dir = temp_dir "wcet-serve-explain" in
  let src = Filename.temp_file "wcet-serve-explain" ".mc" in
  write_file src (loop_src 12);
  let params = Json.Obj [ ("source", Json.String src) ] in
  let prev_enabled = Report_cache.enabled () in
  let prev_dir = Report_cache.dir () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Report_cache.drain_diags ());
      (match (prev_enabled, prev_dir) with
      | true, Some d -> ignore (Report_cache.set_dir d)
      | _ -> Report_cache.disable ());
      Sys.remove src)
    (fun () ->
      Report_cache.disable ();
      let expected =
        match Handlers.standard ~cancel:(fun () -> false) ~meth:"explain" ~params with
        | Some j -> j
        | None -> Alcotest.fail "no explain method"
      in
      Alcotest.(check bool) "cache dir opens" true (Report_cache.set_dir cache_dir);
      with_server (fun path ->
          with_client path (fun c ->
              ignore (ok_result (Client.request c ~id:(Json.Int 1) ~meth:"analyze" params));
              ignore (ok_result (Client.request c ~id:(Json.Int 2) ~meth:"analyze" params));
              let explain = ok_result (Client.request c ~id:(Json.Int 3) ~meth:"explain" params) in
              (match Json.member "blocks" explain with
              | Some (Json.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "explain after analyze lost its block rows");
              Alcotest.(check string) "the explain view a storeless daemon returns"
                (Json.to_string (drop_timing expected))
                (Json.to_string (drop_timing explain)))))

let test_server_request_log () =
  let logged = ref [] in
  let log_m = Mutex.create () in
  let log j =
    Mutex.lock log_m;
    logged := j :: !logged;
    Mutex.unlock log_m
  in
  with_server ~log (fun path ->
      with_client path (fun c ->
          ignore (ok_result (Client.request c ~id:(Json.Int 1) ~meth:"ping" (Json.Obj [])));
          expect_code "D0707" (Client.request c ~id:(Json.Int 2) ~meth:"nope" (Json.Obj []));
          (* the completion record is written after the reply; wait for it *)
          let deadline = Unix.gettimeofday () +. 5. in
          let outcomes () =
            Mutex.lock log_m;
            let o =
              List.filter_map
                (fun j -> Option.bind (Json.member "outcome" j) Json.to_string_opt)
                !logged
            in
            Mutex.unlock log_m;
            o
          in
          while List.length (outcomes ()) < 2 && Unix.gettimeofday () < deadline do
            Thread.delay 0.05
          done;
          Alcotest.(check bool) "unknown method logged" true
            (List.mem "unknown-method" (outcomes ()));
          Mutex.lock log_m;
          let lines = List.rev !logged in
          Mutex.unlock log_m;
          let ping =
            List.find_opt
              (fun j -> Option.bind (Json.member "method" j) Json.to_string_opt = Some "ping")
              lines
          in
          match ping with
          | None -> Alcotest.fail "no log line for the ping"
          | Some j ->
            Alcotest.(check (option string)) "event" (Some "request")
              (Option.bind (Json.member "event" j) Json.to_string_opt);
            Alcotest.(check (option string)) "outcome" (Some "completed")
              (Option.bind (Json.member "outcome" j) Json.to_string_opt);
            Alcotest.(check bool) "correlation id present" true
              (Option.bind (Json.member "cid" j) Json.to_int_opt <> None);
            Alcotest.(check bool) "queue latency present" true
              (Option.bind (Json.member "queue_ms" j) Json.to_int_opt <> None);
            Alcotest.(check bool) "total latency present" true
              (Option.bind (Json.member "elapsed_ms" j) Json.to_int_opt <> None)))

let test_server_watch_ledger () =
  let dir = temp_dir "wcet-serve-ledger" in
  let file = Filename.concat dir "l.mc" in
  write_file file (loop_src 4);
  let ledger = Filename.concat dir "bounds.ndjson" in
  with_server ~watch:(dir, 0.05, 0.05) ~ledger (fun path ->
      with_client path (fun c ->
          (* the baseline scan analyzes the file and appends a snapshot *)
          let deadline = Unix.gettimeofday () +. 10. in
          while not (Sys.file_exists ledger) && Unix.gettimeofday () < deadline do
            Thread.delay 0.05
          done;
          ignore (ok_result (Client.request c ~id:(Json.Int 1) ~meth:"ping" (Json.Obj [])))));
  (match Ledger.load ~path:ledger with
  | Error msg -> Alcotest.fail ("ledger did not load: " ^ msg)
  | Ok (entries, skipped) ->
    Alcotest.(check int) "no malformed lines" 0 skipped;
    Alcotest.(check bool) "baseline snapshot recorded" true (List.length entries >= 1);
    let e = List.hd entries in
    Alcotest.(check string) "program is the watched path" file e.Ledger.program;
    Alcotest.(check string) "complete verdict" "complete" e.Ledger.verdict;
    Alcotest.(check bool) "bound recorded" true (e.Ledger.bound <> None));
  Sys.remove file;
  Sys.remove ledger;
  Sys.rmdir dir

(* --- campaigns ---------------------------------------------------------- *)

let test_store_campaign_smoke () =
  let c = Faultinject.store_campaign ~trials:6 () in
  Alcotest.(check int) "trial count" 6 (List.length c.Faultinject.trials);
  Alcotest.(check bool) "no crashes, no drift" true (Faultinject.ok c)

let test_daemon_campaign_smoke () =
  let c = Faultinject.run_daemon ~trials:32 () in
  Alcotest.(check bool) "at least the requested trials ran" true
    (List.length c.Faultinject.trials >= 32);
  Alcotest.(check bool) "no crashes" true (Faultinject.ok c);
  (* every rejection carries a registered code *)
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool) (code ^ " is registered") true (Diag.describe code <> None))
    (Faultinject.rejection_histogram c)

(* The daemon campaign is reproducible from its seed: its frames do not
   depend on the name of the campaign's scratch source (the second run
   makes it in a deeper scratch directory), and a reply to a connection
   that closed is never written to a later connection that got the same
   descriptor number (the campaign's client and server share one process,
   so the overload family would read it). *)
let test_daemon_campaign_reproducible () =
  let outcomes () =
    List.map
      (fun (t : Faultinject.trial) ->
        ( t.Faultinject.family,
          t.Faultinject.index,
          match t.Faultinject.outcome with
          | Faultinject.Ran_complete -> "complete"
          | Faultinject.Ran_partial -> "partial"
          | Faultinject.Rejected d -> d.Diag.code
          | Faultinject.Crashed msg -> "crashed: " ^ msg ))
      (Faultinject.run_daemon ~trials:96 ()).Faultinject.trials
  in
  let first = outcomes () in
  let tmp = Filename.get_temp_dir_name () in
  let deeper = Filename.concat tmp (Printf.sprintf "wcet-campaign-%d" (Unix.getpid ())) in
  Sys.mkdir deeper 0o700;
  let second =
    Fun.protect
      ~finally:(fun () ->
        Filename.set_temp_dir_name tmp;
        Sys.rmdir deeper)
      (fun () ->
        Filename.set_temp_dir_name deeper;
        outcomes ())
  in
  Alcotest.(check (list (triple string int string))) "same per-trial outcomes" first second

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "fuzz" `Quick test_json_fuzz;
        ] );
      ( "framing",
        [
          Alcotest.test_case "split reads" `Quick test_framer_split_reads;
          Alcotest.test_case "oversized recovery" `Quick test_framer_oversized;
        ] );
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_proto_decode_errors;
          Alcotest.test_case "replies" `Quick test_proto_replies;
        ] );
      ("cancel", [ Alcotest.test_case "cooperative cancellation" `Quick test_cancellation ]);
      ( "watch",
        [
          Alcotest.test_case "debounced deltas" `Quick test_watch_deltas;
          Alcotest.test_case "broken source" `Quick test_watch_broken_source;
        ] );
      ( "server",
        [
          Alcotest.test_case "basics and fault isolation" `Quick test_server_basics;
          Alcotest.test_case "unknown params rejected" `Quick test_server_rejects_unknown_params;
          Alcotest.test_case "deadline partial reply" `Quick test_server_deadline;
          Alcotest.test_case "backpressure" `Quick test_server_backpressure;
          Alcotest.test_case "retry helper" `Quick test_server_retry_helper;
          Alcotest.test_case "subscribe + shutdown event" `Quick test_server_subscribe_shutdown;
          Alcotest.test_case "watch events over the wire" `Quick test_server_watch_events;
          Alcotest.test_case "explain after a warm analyze" `Quick
            test_server_explain_after_analyze;
          Alcotest.test_case "warm restart bit identity" `Quick
            test_server_warm_restart_bit_identity;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "prometheus metrics method" `Quick test_server_metrics_prometheus;
          Alcotest.test_case "per-request log lines" `Quick test_server_request_log;
          Alcotest.test_case "watch loop feeds the ledger" `Quick test_server_watch_ledger;
          Alcotest.test_case "analyze reply is pure" `Quick test_analyze_reply_is_pure;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "store corruption" `Quick test_store_campaign_smoke;
          Alcotest.test_case "daemon barrage" `Quick test_daemon_campaign_smoke;
          Alcotest.test_case "daemon barrage reproducible" `Quick
            test_daemon_campaign_reproducible;
        ] );
    ]
