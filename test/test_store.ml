(* Tests for the persistent analysis cache: the content-addressed store
   (lib/util/store), the answer cache built on it (lib/wcet/report_cache)
   and read through the request path (lib/serve/handlers), and the two input-hardening fixes that rode
   along in the same PR (hex literals in the MiniC lexer, the
   LDIVMOD_SAMPLES override in the experiment harness).

   Report_cache configuration is process-global, so every test that
   enables it runs inside [with_cache], which always disables and removes
   the throwaway store afterwards — a failing test must not leak an
   enabled cache into the next one. *)

module Store = Wcet_util.Store
module Report_cache = Wcet_core.Report_cache
module Analyzer = Wcet_core.Analyzer
module Compile = Minic.Compile
module Lexer = Minic.Lexer
module Diag = Wcet_diag.Diag
module Json = Wcet_diag.Json
module Metrics = Wcet_obs.Metrics
module Obs = Wcet_obs.Obs

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wcet_test_store.%d.%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Store.open_store dir with
      | Ok s -> f s
      | Error msg -> Alcotest.failf "open_store: %s" msg)

(* The persistent-cache counters of the metrics registry, which count while
   [with_cache] keeps the observability layer on; [Metrics.reset ()] starts
   a fresh count. *)
type cache_counts = {
  program_hits : int;
  program_misses : int;
  evictions : int;
}

let cache_counts () =
  let metric name =
    match Metrics.find name with Some (Metrics.Counter_value n) -> n | _ -> 0
  in
  {
    program_hits = metric "cache_store_hits{granularity=program}";
    program_misses = metric "cache_store_misses{granularity=program}";
    evictions = metric "cache_store_evictions";
  }

let with_cache f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Metrics.reset ();
      Report_cache.disable ();
      Report_cache.set_version_salt "";
      ignore (Report_cache.drain_diags ());
      rm_rf dir)
    (fun () ->
      if not (Report_cache.set_dir dir) then Alcotest.fail "set_dir refused a fresh temp dir";
      Obs.enable ();
      Metrics.reset ();
      ignore (Report_cache.drain_diags ());
      f dir)

(* Every regular file under [dir], depth-first. *)
let rec files_under dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then files_under p else [ p ])

(* --- the store itself --- *)

let key_a = String.make 32 'a'
let key_b = String.make 32 'b'

let test_store_roundtrip () =
  with_store (fun s ->
      Alcotest.(check bool) "fresh store misses" true (Store.read s ~key:key_a = Store.Miss);
      Alcotest.(check bool) "mem on missing key" false (Store.mem s ~key:key_a);
      (match Store.write s ~key:key_a ~kind:"blob" ~version:"7" "payload bytes" with
      | Ok n -> Alcotest.(check bool) "write counts envelope too" true (n > 13)
      | Error msg -> Alcotest.failf "write: %s" msg);
      (match Store.read s ~key:key_a with
      | Store.Hit { kind; version; payload } ->
        Alcotest.(check string) "kind" "blob" kind;
        Alcotest.(check string) "version" "7" version;
        Alcotest.(check string) "payload" "payload bytes" payload
      | Store.Miss | Store.Corrupt _ -> Alcotest.fail "expected a hit");
      Alcotest.(check bool) "remove" true (Store.remove s ~key:key_a);
      Alcotest.(check bool) "removed key misses" true (Store.read s ~key:key_a = Store.Miss);
      Alcotest.(check bool) "second remove" false (Store.remove s ~key:key_a))

let test_store_rejects_bad_keys () =
  with_store (fun s ->
      List.iter
        (fun key ->
          match Store.write s ~key ~kind:"blob" ~version:"1" "x" with
          | Ok _ -> Alcotest.failf "key %S must be rejected" key
          | Error _ -> ())
        [ ""; "has/slash"; "has space"; ".."; "x" ])

let test_store_detects_corruption () =
  with_store (fun s ->
      (match Store.write s ~key:key_a ~kind:"blob" ~version:"1" "0123456789" with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "write: %s" msg);
      (* truncate the entry: the envelope survives but the checksum breaks *)
      let path = Store.entry_path s key_a in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 (String.length contents - 4)));
      (match Store.read s ~key:key_a with
      | Store.Corrupt _ -> ()
      | Store.Hit _ -> Alcotest.fail "truncated entry read back as a hit"
      | Store.Miss -> Alcotest.fail "truncated entry read back as a miss");
      (* pure garbage is also Corrupt, not a crash *)
      ignore (Store.write s ~key:key_b ~kind:"blob" ~version:"1" "soon garbage");
      Out_channel.with_open_bin (Store.entry_path s key_b) (fun oc ->
          Out_channel.output_string oc "not an envelope at all");
      match Store.read s ~key:key_b with
      | Store.Corrupt _ -> ()
      | _ -> Alcotest.fail "garbage entry must be Corrupt")

let test_store_stats_verify_clear () =
  with_store (fun s ->
      ignore (Store.write s ~key:key_a ~kind:"report" ~version:"1" "aaaa");
      ignore (Store.write s ~key:key_b ~kind:"func" ~version:"0" "bbbb");
      let st = Store.stats s in
      Alcotest.(check int) "entries" 2 st.Store.entries;
      Alcotest.(check bool) "bytes counted" true (st.Store.bytes > 8);
      Alcotest.(check (list (pair string int))) "by kind"
        [ ("func", 1); ("report", 1) ]
        (List.sort compare st.Store.by_kind);
      let r = Store.verify ~expect_version:"1" s in
      Alcotest.(check int) "checked" 2 r.Store.checked;
      Alcotest.(check int) "valid (stale is not valid)" 1 r.Store.valid;
      Alcotest.(check (list string)) "no corruption" [] r.Store.corrupt;
      Alcotest.(check (list string)) "stale version flagged" [ key_b ] r.Store.mismatched;
      Alcotest.(check int) "clear" 2 (Store.clear s);
      Alcotest.(check int) "cleared" 0 (Store.stats s).Store.entries)

let test_store_concurrent_writers () =
  (* Several domains hammering the same store — some racing on the same
     key, some on their own — must never leave a torn entry behind: the
     atomic rename publishes complete files only. *)
  with_store (fun s ->
      let writers = 4 and rounds = 40 in
      let worker w () =
        for i = 0 to rounds - 1 do
          let payload = Printf.sprintf "writer %d round %d %s" w i (String.make 512 'p') in
          (* shared key: all writers collide; private key: per writer *)
          (match Store.write s ~key:key_a ~kind:"blob" ~version:"1" payload with
          | Ok _ -> ()
          | Error msg -> failwith msg);
          let private_key = Printf.sprintf "%028d%02d%02d" 0 w (i mod 8) in
          match Store.write s ~key:private_key ~kind:"blob" ~version:"1" payload with
          | Ok _ -> ()
          | Error msg -> failwith msg
        done
      in
      let domains = List.init writers (fun w -> Domain.spawn (worker w)) in
      List.iter Domain.join domains;
      let r = Store.verify s in
      Alcotest.(check int) "all entries survived intact" r.Store.checked r.Store.valid;
      Alcotest.(check (list string)) "no corrupt entries" [] r.Store.corrupt;
      (* no leftover temp files either: every write finished its rename *)
      let leftovers =
        files_under (Store.root s)
        |> List.filter (fun p -> not (Filename.check_suffix p ".wcache"))
      in
      Alcotest.(check (list string)) "no temp leftovers" [] leftovers)

(* --- answers through the request path --- *)

module Handlers = Wcet_serve.Handlers

let quickstart_like =
  "rom int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n\
   int acc;\n\
   int f(int x) { int i; int s; s = x; for (i = 0; i < 8; i = i + 1) { s = s + table[i]; } \
   return s; }\n\
   int g(int x) { int i; int s; s = x; for (i = 0; i < 6; i = i + 1) { s = s + 7; } return s; \
   }\n\
   int main() { acc = f(2) + g(3); return acc; }\n"

let write_file path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* A source (and annotation) file under the test's store directory, at its
   root, where the store never looks. *)
let source_file ?(name = "prog.mc") dir text =
  let path = Filename.concat dir name in
  write_file path text;
  path

let request ?annot ?(hw = Pred32_hw.Hw_config.default) ?(soft_div = false)
    ?(domain = Wcet_value.Analysis.Interval) ?(verify = false) source =
  { Handlers.source; annot; hw; soft_div; config = { Handlers.domain; verify } }

let answer_of req =
  match Handlers.analyze req with
  | Ok a -> a
  | Error ds -> Alcotest.failf "analysis failed: %a" Diag.pp_list ds

(* The answer JSON without its wall-clock fields. *)
let strip_timing json =
  let rec strip = function
    | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k [ "phases"; "wall_us"; "seconds" ] then None else Some (k, strip v))
           kvs)
    | Json.List vs -> Json.List (List.map strip vs)
    | v -> v
  in
  Json.to_string (strip json)

let answer_json = function
  | Ok a -> Analyzer.report_to_json a
  | Error ds -> Analyzer.failure_to_json ds

let answer_bytes a = Json.to_string (Analyzer.report_to_json a)

let store_kinds dir =
  match Store.open_store dir with
  | Error msg -> Alcotest.failf "open_store: %s" msg
  | Ok s -> (Store.stats s).Store.by_kind

(* The value, octagon and cache fixpoint transfers [f] performs, from the
   metric registry (an answer carries no states to count them from); the
   observability layer must be on. *)
let transfers_during f =
  let counter name = match Metrics.find name with Some (Metrics.Counter_value n) -> n | _ -> 0 in
  let count () =
    List.map
      (fun a -> counter (Printf.sprintf "fixpoint_transfers{analysis=%s}" a))
      [ "value"; "octagon"; "cache" ]
  in
  let before = count () in
  let result = f () in
  (result, List.map2 ( - ) (count ()) before)

let test_program_cold_then_warm () =
  with_cache (fun dir ->
      let req = request (source_file dir quickstart_like) in
      let cold = answer_of req in
      let after_cold = cache_counts () in
      Alcotest.(check int) "cold run misses" 1 after_cold.program_misses;
      Alcotest.(check int) "no hit yet" 0 after_cold.program_hits;
      let warm, warm_transfers = transfers_during (fun () -> answer_of req) in
      let after_warm = cache_counts () in
      Alcotest.(check int) "warm run hits" 1 after_warm.program_hits;
      Alcotest.(check int) "still one miss" 1 after_warm.program_misses;
      Alcotest.(check (list int)) "the hit transfers nothing" [ 0; 0; 0 ] warm_transfers;
      (* the warm answer reproduces the cold one bit for bit *)
      Alcotest.(check string) "byte-identical report" (answer_bytes cold) (answer_bytes warm);
      Alcotest.(check int) "same bound" cold.Analyzer.an_wcet warm.Analyzer.an_wcet)

(* An initialized RAM global: the entry carries the answer, not the
   program's memory image or any per-node state. *)
let initialized_ram_array =
  "int table[4] = {1, 2, 3, 4};\n\
   int main() { int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + table[i]; } \
   return s; }\n"

let test_initialized_ram_entry_is_small () =
  with_cache (fun dir ->
      let req = request (source_file dir initialized_ram_array) in
      let cold = answer_of req in
      let entry_sizes =
        match Store.open_store dir with
        | Error msg -> Alcotest.failf "open_store: %s" msg
        | Ok s ->
          List.filter_map
            (fun path ->
              let key = Filename.remove_extension (Filename.basename path) in
              match Store.read s ~key with
              | Store.Hit { kind = "answer"; _ } -> Some (Unix.stat path).Unix.st_size
              | _ -> None)
            (List.filter (fun p -> Filename.check_suffix p ".wcache") (files_under dir))
      in
      (match entry_sizes with
      | [ n ] ->
        Alcotest.(check bool) (Printf.sprintf "answer entry (%d bytes) under 4 KB" n) true (n < 4096)
      | sizes -> Alcotest.failf "expected one answer entry, found %d" (List.length sizes));
      let warm = answer_of req in
      Alcotest.(check int) "warm run hits" 1 (cache_counts ()).program_hits;
      Alcotest.(check string) "byte-identical report" (answer_bytes cold) (answer_bytes warm))

let test_annotation_change_misses () =
  with_cache (fun dir ->
      let source = source_file dir quickstart_like in
      let annot = source_file ~name:"prog.annot" dir "maxcount f <= 10" in
      ignore (answer_of (request source));
      Metrics.reset ();
      ignore (answer_of (request ~annot source));
      Alcotest.(check int) "different annotations do not hit" 0 (cache_counts ()).program_hits;
      (* the annotation file's bytes are the key, not its path *)
      write_file annot "maxcount f <= 12";
      Metrics.reset ();
      ignore (answer_of (request ~annot source));
      Alcotest.(check int) "rewritten annotations do not hit" 0 (cache_counts ()).program_hits;
      (* and the original key still hits afterwards *)
      Metrics.reset ();
      ignore (answer_of (request source));
      Alcotest.(check int) "original still cached" 1 (cache_counts ()).program_hits)

(* --- one entry per analysis: an answer depends on its key alone --- *)

let read_example name = In_channel.with_open_bin (Examples_dir.file name) In_channel.input_all

let test_cold_analysis_writes_one_entry () =
  with_cache (fun dir ->
      ignore (answer_of (request (source_file dir (read_example "callgraph.mc"))));
      Alcotest.(check (list (pair string int))) "by kind" [ ("answer", 1) ] (store_kinds dir))

(* One constant of the program changed: the last [= N;] becomes [= N+2;].
   [None] when the source has no such assignment. *)
let edit_one_constant source =
  let is_digit c = c >= '0' && c <= '9' in
  let len = String.length source in
  (* [digits_end pos] is the end of the digit run starting at [pos]. *)
  let rec digits_end pos = if pos < len && is_digit source.[pos] then digits_end (pos + 1) else pos in
  let rec from pos =
    if pos < 0 then None
    else if source.[pos] = '=' && pos + 2 < len && source.[pos + 1] = ' ' && is_digit source.[pos + 2]
    then
      let stop = digits_end (pos + 2) in
      if stop < len && source.[stop] = ';' then
        let n = int_of_string (String.sub source (pos + 2) (stop - pos - 2)) in
        Some
          (String.sub source 0 (pos + 2)
          ^ string_of_int (n + 2)
          ^ String.sub source stop (len - stop))
      else from (pos - 1)
    else from (pos - 1)
  in
  from (len - 1)

(* The annotation file of example [f], if it has one. *)
let example_annot f =
  let path = Examples_dir.file (Filename.chop_suffix f ".mc" ^ ".annot") in
  if Sys.file_exists path then Some path else None

let examples () =
  Sys.readdir Examples_dir.dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".mc")

(* The edited program, rewritten in place of the base one, misses, and its
   answer and transfers equal a store-less run's. *)
let test_warm_edit_equals_cold () =
  let edited = ref [] in
  List.iter
    (fun f ->
      match edit_one_constant (read_example f) with
      | None -> ()
      | Some source' ->
        List.iter
          (fun domain ->
            let where = Printf.sprintf "%s (%s)" f (Wcet_value.Analysis.domain_name domain) in
            let comparable (outcome, transfers) =
              (strip_timing (answer_json outcome), transfers)
            in
            let warm, cold =
              with_cache (fun dir ->
                  let path = source_file dir (read_example f) in
                  let req = request ?annot:(example_annot f) ~domain path in
                  ignore (Handlers.analyze req);
                  write_file path source';
                  Metrics.reset ();
                  let warm = transfers_during (fun () -> Handlers.analyze req) in
                  Alcotest.(check int) (where ^ ": the edit misses the answer") 1
                    (cache_counts ()).program_misses;
                  Report_cache.disable ();
                  (warm, transfers_during (fun () -> Handlers.analyze req)))
            in
            match fst cold with
            | Error _ -> ()
            | Ok _ ->
              Alcotest.(check (pair string (list int))) (where ^ ": warm edit = cold run")
                (comparable cold) (comparable warm);
              edited := where :: !edited)
          [ Wcet_value.Analysis.Interval; Wcet_value.Analysis.Auto ])
    (examples ());
  Alcotest.(check bool)
    (Printf.sprintf "examples edited: %s" (String.concat ", " (List.rev !edited)))
    true
    (List.length !edited >= 4)

(* --- degradation: corruption and version drift --- *)

let corrupt_every_entry dir =
  List.iter
    (fun p ->
      if Filename.check_suffix p ".wcache" then begin
        let contents = In_channel.with_open_bin p In_channel.input_all in
        let keep = max 1 (String.length contents / 2) in
        Out_channel.with_open_bin p (fun oc ->
            Out_channel.output_string oc (String.sub contents 0 keep))
      end)
    (files_under dir)

let test_corrupt_entries_degrade () =
  with_cache (fun dir ->
      let req = request (source_file dir quickstart_like) in
      let cold = answer_of req in
      corrupt_every_entry dir;
      Metrics.reset ();
      ignore (Report_cache.drain_diags ());
      let recomputed = answer_of req in
      Alcotest.(check int) "recomputed bound matches" cold.Analyzer.an_wcet
        recomputed.Analyzer.an_wcet;
      let s = cache_counts () in
      Alcotest.(check int) "corrupt answer is a miss" 0 s.program_hits;
      Alcotest.(check bool) "corrupt entries evicted" true (s.evictions >= 1);
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0610 reported" true (List.mem "W0610" codes);
      Alcotest.(check bool) "every store diag is a warning, never fatal" true
        (codes <> []);
      (* the evicted keys were rewritten by the recompute: warm again *)
      Metrics.reset ();
      ignore (answer_of req);
      Alcotest.(check int) "cache healed" 1
        (cache_counts ()).program_hits)

let test_undecodable_report_reclassifies_hit () =
  (* A valid answer envelope (checksum and version pass) whose payload is
     not a marshaled answer: the decode fails, the entry is evicted and the
     lookup must end up counted as a miss in the metrics registry, not as a
     hit plus a miss. *)
  with_cache (fun dir ->
      let req = request (source_file dir quickstart_like) in
      let key =
        Report_cache.answer_key ~source:quickstart_like ~annot:None ~front_end:"minic"
          ~soft_div:false ~hw:Pred32_hw.Hw_config.default ~domain:Wcet_value.Analysis.Interval
      in
      (match Store.open_store dir with
      | Ok s ->
        ignore
          (Store.write s ~key ~kind:"answer" ~version:(Report_cache.version ())
             "not a marshaled answer")
      | Error msg -> Alcotest.failf "open_store: %s" msg);
      let a = answer_of req in
      Alcotest.(check bool) "recomputed a real bound" true (a.Analyzer.an_wcet > 0);
      let s = cache_counts () in
      Alcotest.(check int) "no net hit" 0 s.program_hits;
      Alcotest.(check int) "one miss" 1 s.program_misses;
      Alcotest.(check bool) "entry evicted" true (s.evictions >= 1);
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0610 reported" true (List.mem "W0610" codes);
      (* the recompute rewrote the entry: warm again *)
      Metrics.reset ();
      ignore (answer_of req);
      Alcotest.(check int) "cache healed" 1
        (cache_counts ()).program_hits)

let test_version_bump_invalidates () =
  with_cache (fun dir ->
      let req = request (source_file dir quickstart_like) in
      let cold = answer_of req in
      (* same keys, new tool version: entries are stale, not corrupt *)
      Report_cache.set_version_salt "+next";
      Metrics.reset ();
      ignore (Report_cache.drain_diags ());
      let recomputed = answer_of req in
      Alcotest.(check int) "recomputed bound matches" cold.Analyzer.an_wcet
        recomputed.Analyzer.an_wcet;
      let s = cache_counts () in
      Alcotest.(check int) "stale answer is a miss" 0 s.program_hits;
      Alcotest.(check bool) "stale entries evicted" true (s.evictions >= 1);
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0611 reported" true (List.mem "W0611" codes);
      (* under the new version the rewritten entries hit again *)
      Metrics.reset ();
      ignore (answer_of req);
      Alcotest.(check int) "warm under new version" 1
        (cache_counts ()).program_hits)

let test_verify_skips_report_hit () =
  (* A hit would skip every cross-check, so a verified request neither
     reads nor writes the store: the second verified run on the same bytes
     solves from scratch with the transfers of the first, and leaves the
     store empty for a plain run, which misses. *)
  with_cache (fun dir ->
      let source = source_file dir quickstart_like in
      let first, transfers0 = transfers_during (fun () -> answer_of (request ~verify:true source)) in
      let second, transfers1 = transfers_during (fun () -> answer_of (request ~verify:true source)) in
      Alcotest.(check int) "no answer hit under verify" 0 (cache_counts ()).program_hits;
      Alcotest.(check (list int)) "the second run solved from scratch" transfers0 transfers1;
      Alcotest.(check int) "same bound" first.Analyzer.an_wcet second.Analyzer.an_wcet;
      Alcotest.(check (list (pair string int))) "verify wrote nothing" [] (store_kinds dir);
      ignore (answer_of (request source));
      Alcotest.(check int) "a plain run misses" 0 (cache_counts ()).program_hits;
      Alcotest.(check (list (pair string int))) "and writes its answer" [ ("answer", 1) ]
        (store_kinds dir))

(* --- the source key --- *)

(* Every component of the key, flipped alone, misses; the unflipped
   request still hits afterwards. *)
let test_each_key_component_misses () =
  with_cache (fun dir ->
      let source = source_file dir quickstart_like in
      let annot = source_file ~name:"prog.annot" dir "maxcount f <= 10" in
      let base = request ~annot source in
      let asm =
        (* the same bytes under a [.s] name would not assemble: an [.s]
           source of its own, whose [.mc] twin must miss the [.s] entry *)
        let text = ".func main\n  li r1, 7\n  ret\n" in
        (request (source_file ~name:"tiny.s" dir text), request (source_file ~name:"tiny.mc" dir text))
      in
      let misses what req =
        Metrics.reset ();
        ignore (Handlers.analyze req);
        Alcotest.(check int) (what ^ " misses") 0 (cache_counts ()).program_hits
      in
      let hits what req =
        Metrics.reset ();
        ignore (Handlers.analyze req);
        Alcotest.(check int) (what ^ " hits") 1 (cache_counts ()).program_hits
      in
      ignore (answer_of base);
      hits "the same request" base;
      (* one source byte: the last newline becomes a space *)
      let flipped = String.sub quickstart_like 0 (String.length quickstart_like - 1) ^ " " in
      misses "one source byte"
        (request ~annot (source_file ~name:"flipped.mc" dir flipped));
      write_file annot "maxcount f <= 11";
      misses "the annotation bytes" base;
      write_file annot "maxcount f <= 10";
      hits "the original annotation bytes" base;
      misses "soft_div" { base with Handlers.soft_div = true };
      misses "the hw profile" { base with Handlers.hw = List.assoc "uncached" Pred32_hw.Hw_config.profiles };
      misses "the domain"
        { base with Handlers.config = { Handlers.domain = Wcet_value.Analysis.Auto; verify = false } };
      let asm_req, mc_req = asm in
      ignore (Handlers.analyze asm_req);
      hits "the .s source" asm_req;
      (* served the [.s] answer, the [.mc] request would not raise *)
      Metrics.reset ();
      (match Handlers.analyze mc_req with
      | _ -> Alcotest.fail "the .s text must not compile as MiniC"
      | exception Minic.Compile.Error _ -> ());
      Alcotest.(check int) ".mc under the .s bytes misses" 0 (cache_counts ()).program_hits;
      hits "the unflipped request, at the end" base)

(* Recursion without an annotation is a fatal analysis failure. *)
let failing_source = "int f(int x) { return f(x); }\nint main() { return f(1); }\n"

let test_failed_analysis_not_stored () =
  with_cache (fun dir ->
      let req = request (source_file dir failing_source) in
      (match Handlers.analyze req with
      | Ok _ -> Alcotest.fail "recursion without annotation must fail"
      | Error _ -> ());
      Alcotest.(check (list (pair string int))) "nothing stored" [] (store_kinds dir);
      ignore (Handlers.analyze req);
      Alcotest.(check int) "and nothing hit" 0 (cache_counts ()).program_hits)

let test_rewritten_file_answers_new_bytes () =
  with_cache (fun dir ->
      let no_cache req =
        Report_cache.disable ();
        let a = Handlers.analyze req in
        ignore (Report_cache.set_dir dir);
        a
      in
      let path = source_file dir quickstart_like in
      let req = request path in
      ignore (answer_of req);
      write_file path initialized_ram_array;
      Alcotest.(check string) "a rewritten file answers its new bytes"
        (strip_timing (answer_json (no_cache req)))
        (strip_timing (answer_json (Handlers.analyze req)));
      (* the miss compiles the bytes it hashed: hand it bytes the file does
         not hold, and the stored answer is theirs *)
      write_file path quickstart_like;
      let edited = Option.get (edit_one_constant quickstart_like) in
      let from_text = Handlers.analyze_text req ~source:edited ~annot:None in
      write_file path edited;
      Alcotest.(check string) "the answer of the hashed bytes" (strip_timing (answer_json (no_cache req)))
        (strip_timing (answer_json from_text));
      Metrics.reset ();
      ignore (Handlers.analyze req);
      Alcotest.(check int) "stored under their key" 1 (cache_counts ()).program_hits)

(* The ledger reads the answer: a warm hit's snapshot equals the cold
   run's, precision counters included. *)
let test_warm_ledger_entry_equals_cold () =
  with_cache (fun dir ->
      let source = source_file dir (read_example "relational.mc") in
      let req = request ~annot:(Examples_dir.file "relational.annot") source in
      let entry () =
        let e =
          Handlers.ledger_entry ~program:"relational" ~digest:(Handlers.file_digest source)
            (Handlers.analyze req)
        in
        Wcet_obs.Ledger.entry_to_json { e with Wcet_obs.Ledger.date = "" }
      in
      let cold = entry () in
      let warm = entry () in
      Alcotest.(check int) "the second snapshot is a hit" 1 (cache_counts ()).program_hits;
      Alcotest.(check string) "warm ledger entry = cold" (Json.to_string cold) (Json.to_string warm))

(* The CLI's [analyze --format json] for every example, cold, warm and
   without a store (phase times aside): one answer. *)
let test_examples_cold_warm_no_cache () =
  List.iter
    (fun f ->
      let req = request ?annot:(example_annot f) ~domain:Wcet_value.Analysis.Auto (Examples_dir.file f) in
      let json () = strip_timing (answer_json (Handlers.analyze req)) in
      let cold, warm =
        with_cache (fun _dir ->
            let cold = json () in
            let warm = json () in
            (match Handlers.analyze req with
            | Ok _ -> Alcotest.(check int) (f ^ ": the warm run hits") 2 (cache_counts ()).program_hits
            | Error _ -> ());
            (cold, warm))
      in
      let no_cache = json () in
      Alcotest.(check string) (f ^ ": cold = warm") cold warm;
      Alcotest.(check string) (f ^ ": cold = --no-cache") cold no_cache)
    (examples ())

let test_unusable_dir_disables () =
  (* a path that cannot be a directory: caching stays off, W0612 queued,
     analysis still runs *)
  let blocker = fresh_dir () in
  Out_channel.with_open_bin blocker (fun oc -> Out_channel.output_string oc "file");
  Fun.protect
    ~finally:(fun () ->
      Report_cache.disable ();
      ignore (Report_cache.drain_diags ());
      Sys.remove blocker)
    (fun () ->
      Alcotest.(check bool) "set_dir fails" false
        (Report_cache.set_dir (Filename.concat blocker "sub"));
      Alcotest.(check bool) "caching stays disabled" false (Report_cache.enabled ());
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0612 queued" true (List.mem "W0612" codes);
      let r = Analyzer.analyze (Compile.compile quickstart_like) in
      Alcotest.(check bool) "analysis unaffected" true (r.Analyzer.wcet > 0))

(* --- satellite: lexer literal hardening --- *)

let tokens_of src = List.map fst (Lexer.tokenize src)

let test_lexer_hex_overflow_is_error () =
  (* 0x1FFFFFFFFFFFFFFFF does not fit 63-bit int: must be the lexer's own
     structured error, not an int_of_string Failure backtrace *)
  (match Lexer.tokenize "int x = 0x1FFFFFFFFFFFFFFFF;" with
  | _ -> Alcotest.fail "oversized hex literal must not lex"
  | exception Lexer.Error (msg, _) ->
    Alcotest.(check bool) "names the literal" true
      (Astring.String.is_infix ~affix:"bad integer literal" msg));
  match Lexer.tokenize "int x = 0x;" with
  | _ -> Alcotest.fail "lone 0x must not lex"
  | exception Lexer.Error (msg, _) ->
    Alcotest.(check bool) "lone 0x is the same error" true
      (Astring.String.is_infix ~affix:"bad integer literal" msg)

let test_lexer_literals_mask_to_32_bits () =
  (match tokens_of "0xFFFFFFFF" with
  | [ Lexer.INT v; Lexer.EOF ] -> Alcotest.(check int) "hex all-ones" 0xFFFFFFFF v
  | _ -> Alcotest.fail "expected one INT");
  (* decimal literals get the same 32-bit masking as hex ones *)
  (match tokens_of "4294967296" with
  | [ Lexer.INT v; Lexer.EOF ] -> Alcotest.(check int) "2^32 wraps to 0" 0 v
  | _ -> Alcotest.fail "expected one INT");
  match tokens_of "4294967295" with
  | [ Lexer.INT v; Lexer.EOF ] -> Alcotest.(check int) "2^32-1 survives" 0xFFFFFFFF v
  | _ -> Alcotest.fail "expected one INT"

let test_lexer_errors_classified () =
  (* the CLI's shared classifier turns the lexer error into E0102, so the
     user sees a diagnostic and exit 1, never a backtrace *)
  match Wcet_experiments.Faultinject.classify_exn (Lexer.Error ("bad integer literal 0x", { Minic.Ast.line = 1; col = 9 })) with
  | Some d ->
    Alcotest.(check string) "frontend code" "E0102" d.Diag.code;
    Alcotest.(check int) "usage exit" 1 (Diag.exit_for d)
  | None -> Alcotest.fail "lexer errors must classify"

(* --- satellite: LDIVMOD_SAMPLES hardening --- *)

let test_samples_env () =
  let module Harness = Wcet_experiments.Harness in
  (* run the unset case first: putenv cannot remove a variable *)
  if Sys.getenv_opt "LDIVMOD_SAMPLES" = None then
    Alcotest.(check bool) "default when unset" true
      (Harness.samples_from_env () = Ok 10_000_000);
  Unix.putenv "LDIVMOD_SAMPLES" "5";
  Alcotest.(check bool) "valid override" true (Harness.samples_from_env () = Ok 5);
  Unix.putenv "LDIVMOD_SAMPLES" " 250000 ";
  Alcotest.(check bool) "whitespace tolerated" true (Harness.samples_from_env () = Ok 250_000);
  let rejected value =
    Unix.putenv "LDIVMOD_SAMPLES" value;
    match Harness.samples_from_env () with
    | Ok _ -> Alcotest.failf "%S must be rejected" value
    | Error d ->
      Alcotest.(check string) ("E0110 for " ^ value) "E0110" d.Diag.code;
      Alcotest.(check int) "usage exit" 1 (Diag.exit_for d);
      Alcotest.(check bool) "has a hint" true (d.Diag.hint <> None)
  in
  List.iter rejected [ "abc"; "0"; "-3"; ""; "1e6" ];
  (* the harness raise path classifies to the same diagnostic *)
  Unix.putenv "LDIVMOD_SAMPLES" "abc";
  (match Harness.samples_from_env () with
  | Error d -> (
    match Wcet_experiments.Faultinject.classify_exn (Harness.Invalid_env d) with
    | Some d' -> Alcotest.(check string) "classified" "E0110" d'.Diag.code
    | None -> Alcotest.fail "Invalid_env must classify")
  | Ok _ -> Alcotest.fail "abc accepted");
  Unix.putenv "LDIVMOD_SAMPLES" "100000"

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "bad keys rejected" `Quick test_store_rejects_bad_keys;
          Alcotest.test_case "corruption detected" `Quick test_store_detects_corruption;
          Alcotest.test_case "stats, verify, clear" `Quick test_store_stats_verify_clear;
          Alcotest.test_case "concurrent writers" `Quick test_store_concurrent_writers;
        ] );
      ( "report cache",
        [
          Alcotest.test_case "cold then warm" `Quick test_program_cold_then_warm;
          Alcotest.test_case "initialized RAM array entry is small" `Quick
            test_initialized_ram_entry_is_small;
          Alcotest.test_case "annotation change misses" `Quick test_annotation_change_misses;
          Alcotest.test_case "a cold analysis writes one entry" `Quick
            test_cold_analysis_writes_one_entry;
          Alcotest.test_case "a warm edit equals a cold one" `Quick test_warm_edit_equals_cold;
          Alcotest.test_case "corrupt entries degrade to recompute" `Quick
            test_corrupt_entries_degrade;
          Alcotest.test_case "undecodable report reclassifies the hit" `Quick
            test_undecodable_report_reclassifies_hit;
          Alcotest.test_case "version bump invalidates" `Quick test_version_bump_invalidates;
          Alcotest.test_case "unusable directory disables caching" `Quick
            test_unusable_dir_disables;
          Alcotest.test_case "verify skips the report hit" `Quick test_verify_skips_report_hit;
        ] );
      ( "source key",
        [
          Alcotest.test_case "each component misses alone" `Quick test_each_key_component_misses;
          Alcotest.test_case "a failed analysis is not stored" `Quick
            test_failed_analysis_not_stored;
          Alcotest.test_case "a rewritten file answers its new bytes" `Quick
            test_rewritten_file_answers_new_bytes;
          Alcotest.test_case "examples agree cold, warm and uncached" `Quick
            test_examples_cold_warm_no_cache;
          Alcotest.test_case "a warm ledger entry equals the cold one" `Quick
            test_warm_ledger_entry_equals_cold;
        ] );
      ( "lexer hardening",
        [
          Alcotest.test_case "hex overflow is a lexer error" `Quick
            test_lexer_hex_overflow_is_error;
          Alcotest.test_case "literals mask to 32 bits" `Quick
            test_lexer_literals_mask_to_32_bits;
          Alcotest.test_case "lexer errors classify to E0102" `Quick
            test_lexer_errors_classified;
        ] );
      ( "harness hardening",
        [ Alcotest.test_case "LDIVMOD_SAMPLES validation" `Quick test_samples_env ] );
    ]
