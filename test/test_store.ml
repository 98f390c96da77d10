(* Tests for the persistent analysis cache: the content-addressed store
   (lib/util/store), the report/function cache built on it
   (lib/wcet/report_cache), and the two input-hardening fixes that rode
   along in the same PR (hex literals in the MiniC lexer, the
   LDIVMOD_SAMPLES override in the experiment harness).

   Report_cache configuration is process-global, so every test that
   enables it runs inside [with_cache], which always disables and removes
   the throwaway store afterwards — a failing test must not leak an
   enabled cache into the next one. *)

module Store = Wcet_util.Store
module Report_cache = Wcet_core.Report_cache
module Analyzer = Wcet_core.Analyzer
module Cache_analysis = Wcet_cache.Cache_analysis
module Block_timing = Wcet_pipeline.Block_timing
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
  function_hits : int;
  function_misses : int;
  evictions : int;
}

let cache_counts () =
  let metric name =
    match Metrics.find name with Some (Metrics.Counter_value n) -> n | _ -> 0
  in
  {
    program_hits = metric "cache_store_hits{granularity=program}";
    program_misses = metric "cache_store_misses{granularity=program}";
    function_hits = metric "cache_store_hits{granularity=function}";
    function_misses = metric "cache_store_misses{granularity=function}";
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

(* --- whole-program report caching --- *)

let quickstart_like =
  "rom int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n\
   int acc;\n\
   int f(int x) { int i; int s; s = x; for (i = 0; i < 8; i = i + 1) { s = s + table[i]; } \
   return s; }\n\
   int g(int x) { int i; int s; s = x; for (i = 0; i < 6; i = i + 1) { s = s + 7; } return s; \
   }\n\
   int main() { acc = f(2) + g(3); return acc; }\n"

(* g's loop body adds 9 instead of 7: one immediate changes, instruction
   count and layout stay identical, so f's code (and every block address)
   is byte-for-byte the same in both binaries. *)
let quickstart_like_edited =
  "rom int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n\
   int acc;\n\
   int f(int x) { int i; int s; s = x; for (i = 0; i < 8; i = i + 1) { s = s + table[i]; } \
   return s; }\n\
   int g(int x) { int i; int s; s = x; for (i = 0; i < 6; i = i + 1) { s = s + 9; } return s; \
   }\n\
   int main() { acc = f(2) + g(3); return acc; }\n"

let report_bytes r = Json.to_string (Analyzer.report_to_json r)

let test_program_cold_then_warm () =
  with_cache (fun _dir ->
      let program = Compile.compile quickstart_like in
      let cold = Analyzer.analyze program in
      let after_cold = cache_counts () in
      Alcotest.(check int) "cold run misses" 1 after_cold.program_misses;
      Alcotest.(check int) "no hit yet" 0 after_cold.program_hits;
      let warm = Analyzer.analyze program in
      let after_warm = cache_counts () in
      Alcotest.(check int) "warm run hits" 1 after_warm.program_hits;
      Alcotest.(check int) "still one miss" 1 after_warm.program_misses;
      (* the warm report reproduces the cold one bit for bit *)
      Alcotest.(check string) "byte-identical report" (report_bytes cold) (report_bytes warm);
      Alcotest.(check int) "same bound" cold.Analyzer.wcet warm.Analyzer.wcet)

(* An initialized RAM global: the report entry carries the words the
   program wrote, not the address space they live in. *)
let initialized_ram_array =
  "int table[4] = {1, 2, 3, 4};\n\
   int main() { int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + table[i]; } \
   return s; }\n"

let test_initialized_ram_entry_is_small () =
  with_cache (fun dir ->
      let program = Compile.compile initialized_ram_array in
      let cold = Analyzer.analyze program in
      let report_entry_sizes =
        match Store.open_store dir with
        | Error msg -> Alcotest.failf "open_store: %s" msg
        | Ok s ->
          List.filter_map
            (fun path ->
              let key = Filename.remove_extension (Filename.basename path) in
              match Store.read s ~key with
              | Store.Hit { kind = "report"; _ } -> Some (Unix.stat path).Unix.st_size
              | _ -> None)
            (files_under dir)
      in
      (match report_entry_sizes with
      | [ n ] ->
        Alcotest.(check bool)
          (Printf.sprintf "report entry (%d bytes) under 64 KB" n)
          true (n < 65536)
      | sizes -> Alcotest.failf "expected one report entry, found %d" (List.length sizes));
      let warm = Analyzer.analyze program in
      Alcotest.(check int) "warm run hits" 1 (cache_counts ()).program_hits;
      Alcotest.(check string) "byte-identical report" (report_bytes cold) (report_bytes warm))

let test_annotation_change_misses () =
  with_cache (fun _dir ->
      let program = Compile.compile quickstart_like in
      ignore (Analyzer.analyze program);
      let annot =
        match Wcet_annot.Annot.parse "maxcount f <= 10" with
        | Ok a -> a
        | Error msg -> Alcotest.failf "annot: %s" msg
      in
      Metrics.reset ();
      ignore (Analyzer.analyze ~annot program);
      let s = cache_counts () in
      Alcotest.(check int) "different annotations do not hit" 0 s.program_hits;
      (* and the original key still hits afterwards *)
      Metrics.reset ();
      ignore (Analyzer.analyze program);
      Alcotest.(check int) "original still cached" 1
        (cache_counts ()).program_hits)

(* --- per-function incremental re-analysis --- *)

let test_function_invalidation_on_edit () =
  with_cache (fun _dir ->
      let v1 = Compile.compile quickstart_like in
      let v2 = Compile.compile quickstart_like_edited in
      let cold = Analyzer.analyze v1 in
      Metrics.reset ();
      let seeded = Analyzer.analyze v2 in
      let s = cache_counts () in
      (* the program changed, so the report key misses... *)
      Alcotest.(check int) "edited binary misses the report" 0 s.program_hits;
      (* ...but f is untouched, so at least its slice is restored, while
         g (edited) and main (calls g) re-analyze from scratch *)
      Alcotest.(check bool) "unchanged function restored" true
        (s.function_hits >= 1);
      Alcotest.(check bool) "edited function re-analyzed" true
        (s.function_misses >= 1);
      (* seeding pays: fewer value transfers than the cold run of v1 *)
      Alcotest.(check bool) "seeded run transfers fewer" true
        (seeded.Analyzer.value.Wcet_value.Analysis.transfers
        < cold.Analyzer.value.Wcet_value.Analysis.transfers);
      (* and the seeded result matches a from-scratch analysis of v2 *)
      Report_cache.disable ();
      let scratch = Analyzer.analyze v2 in
      Alcotest.(check int) "seeded bound = scratch bound" scratch.Analyzer.wcet
        seeded.Analyzer.wcet)

(* f's data-access addresses depend on its argument, and main supplies
   that argument — caller dataflow the per-function key deliberately does
   not cover. Editing only the constant in main leaves f's code (and the
   whole layout) byte-identical, so f's slice still matches on the warm
   run while its value (and therefore cache) states converge elsewhere:
   at 16-byte lines table[1] and table[6] live in different cache lines,
   and the trailing table[6] access hits exactly when the loop really
   loaded table[6]'s line. *)
let caller_passes_1 =
  "rom int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n\
   int acc;\n\
   int f(int x) { int i; int s; s = 0; for (i = 0; i < 3; i = i + 1) { s = s + table[x]; } \
   s = s + table[6]; return s; }\n\
   int main() { acc = f(1); return acc; }\n"

let caller_passes_6 =
  "rom int table[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n\
   int acc;\n\
   int f(int x) { int i; int s; s = 0; for (i = 0; i < 3; i = i + 1) { s = s + table[x]; } \
   s = s + table[6]; return s; }\n\
   int main() { acc = f(6); return acc; }\n"

(* A seeded run analyzes under states at least as wide as the scratch
   run's, so it may only be LESS classified: a seeded Always_hit or
   Always_miss where the scratch run concluded otherwise means a stale
   cache state survived seeding. Compared only at nodes both runs
   reached; graph construction is deterministic, so node ids align. *)
let classification_optimism_violations (seeded : Analyzer.report) (scratch : Analyzer.report) =
  let s = seeded.Analyzer.cache and c = scratch.Analyzer.cache in
  let sound_wrt mine precise =
    match mine with
    | Cache_analysis.Always_hit -> precise = Cache_analysis.Always_hit
    | Cache_analysis.Always_miss -> precise = Cache_analysis.Always_miss
    | Cache_analysis.Not_classified | Cache_analysis.Bypass -> true
  in
  let viol = ref [] in
  Array.iteri
    (fun i s_fetch ->
      match (s.Cache_analysis.node_in.(i), c.Cache_analysis.node_in.(i)) with
      | Some _, Some _ ->
        Array.iteri
          (fun j sc ->
            if not (sound_wrt sc c.Cache_analysis.fetch.(i).(j)) then
              viol := Printf.sprintf "fetch at node %d insn %d" i j :: !viol)
          s_fetch;
        List.iter
          (fun (da : Cache_analysis.data_access) ->
            match
              List.find_opt
                (fun (db : Cache_analysis.data_access) ->
                  db.Cache_analysis.insn_index = da.Cache_analysis.insn_index)
                c.Cache_analysis.data.(i)
            with
            | None -> ()
            | Some db ->
              if not (sound_wrt da.Cache_analysis.kind db.Cache_analysis.kind) then
                viol :=
                  Printf.sprintf "data access at node %d insn %d" i
                    da.Cache_analysis.insn_index
                  :: !viol)
          s.Cache_analysis.data.(i)
      | _ -> ())
    s.Cache_analysis.fetch;
  List.rev !viol

let seeded_then_scratch src_cold src_target =
  with_cache (fun _dir ->
      let a = Compile.compile src_cold in
      let b = Compile.compile src_target in
      ignore (Analyzer.analyze a);
      Metrics.reset ();
      let seeded = Analyzer.analyze b in
      let s = cache_counts () in
      Alcotest.(check bool) "f's slice was restored (the test exercises seeding)" true
        (s.function_hits >= 1);
      Report_cache.disable ();
      let scratch = Analyzer.analyze b in
      (seeded, scratch))

let test_caller_dataflow_change_regates_cache_seeds () =
  (* The cache transfer function replays the current run's access sets; a
     cache seed recorded under different value states must not survive a
     caller edit that changes them, or stale must/may-cache contents
     would claim hits (and misses) the new dataflow no longer supports —
     the f(6)-cold → f(1)-seeded direction steals an Always_hit for the
     trailing table[6] access (a WCET underestimate), the reverse
     direction a spurious Always_miss (a BCET overestimate).
     Function-granularity seeding promises soundness, not bit-identity:
     the seeded bound may be wider than scratch, never tighter. *)
  List.iter
    (fun (cold, target) ->
      let seeded, scratch = seeded_then_scratch cold target in
      Alcotest.(check bool) "seeded WCET bound is sound (>= scratch)" true
        (seeded.Analyzer.wcet >= scratch.Analyzer.wcet);
      Alcotest.(check bool) "seeded BCET bound is sound (<= scratch)" true
        (seeded.Analyzer.bcet <= scratch.Analyzer.bcet);
      Alcotest.(check (list string)) "no stale cache classification survived seeding" []
        (classification_optimism_violations seeded scratch))
    [ (caller_passes_1, caller_passes_6); (caller_passes_6, caller_passes_1) ]

let test_function_entries_track_latest_convergence () =
  (* save_function_results must overwrite a slice whose key survives a
     caller edit: the stored states describe the OLD convergence, and
     keeping them would make every later warm run redo the re-widening. *)
  with_cache (fun dir ->
      ignore (Analyzer.analyze (Compile.compile caller_passes_1));
      let before = List.map (fun p -> (p, Digest.file p)) (files_under dir) in
      ignore (Analyzer.analyze (Compile.compile caller_passes_6));
      let rewritten =
        List.exists (fun (p, d) -> Sys.file_exists p && Digest.file p <> d) before
      in
      Alcotest.(check bool) "a surviving slice was rewritten with the new states" true
        rewritten)

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
      let program = Compile.compile quickstart_like in
      let cold = Analyzer.analyze program in
      corrupt_every_entry dir;
      Metrics.reset ();
      ignore (Report_cache.drain_diags ());
      let recomputed = Analyzer.analyze program in
      Alcotest.(check int) "recomputed bound matches" cold.Analyzer.wcet
        recomputed.Analyzer.wcet;
      let s = cache_counts () in
      Alcotest.(check int) "corrupt report is a miss" 0 s.program_hits;
      Alcotest.(check bool) "corrupt entries evicted" true (s.evictions >= 1);
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0610 reported" true (List.mem "W0610" codes);
      Alcotest.(check bool) "every store diag is a warning, never fatal" true
        (codes <> []);
      (* the evicted keys were rewritten by the recompute: warm again *)
      Metrics.reset ();
      ignore (Analyzer.analyze program);
      Alcotest.(check int) "cache healed" 1
        (cache_counts ()).program_hits)

let test_undecodable_report_reclassifies_hit () =
  (* A valid envelope (checksum and version pass) whose payload is not a
     marshaled report: the analyzer's decode fails, the entry is evicted
     and the lookup must end up counted as a miss in the metrics registry,
     not as a hit plus a miss. *)
  with_cache (fun _dir ->
      let program = Compile.compile quickstart_like in
      let hw = Pred32_hw.Hw_config.default in
      let annot = Wcet_annot.Annot.empty in
      let strategy = Wcet_util.Fixpoint.Rpo in
      Report_cache.save_report ~hw ~annot ~strategy
        ~engine:(Analyzer.engine_name Analyzer.Summary)
        ~domain:"interval" ~path:"portfolio" program "not a marshaled report";
      let r = Analyzer.analyze program in
      Alcotest.(check bool) "recomputed a real bound" true (r.Analyzer.wcet > 0);
      let s = cache_counts () in
      Alcotest.(check int) "no net hit" 0 s.program_hits;
      Alcotest.(check int) "one miss" 1 s.program_misses;
      Alcotest.(check bool) "entry evicted" true (s.evictions >= 1);
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0610 reported" true (List.mem "W0610" codes);
      (* the recompute rewrote the entry: warm again *)
      Metrics.reset ();
      ignore (Analyzer.analyze program);
      Alcotest.(check int) "cache healed" 1
        (cache_counts ()).program_hits)

let test_version_bump_invalidates () =
  with_cache (fun _dir ->
      let program = Compile.compile quickstart_like in
      let cold = Analyzer.analyze program in
      (* same keys, new tool version: entries are stale, not corrupt *)
      Report_cache.set_version_salt "+next";
      Metrics.reset ();
      ignore (Report_cache.drain_diags ());
      let recomputed = Analyzer.analyze program in
      Alcotest.(check int) "recomputed bound matches" cold.Analyzer.wcet
        recomputed.Analyzer.wcet;
      let s = cache_counts () in
      Alcotest.(check int) "stale report is a miss" 0 s.program_hits;
      Alcotest.(check bool) "stale entries evicted" true (s.evictions >= 1);
      let codes = List.map (fun d -> d.Diag.code) (Report_cache.drain_diags ()) in
      Alcotest.(check bool) "W0611 reported" true (List.mem "W0611" codes);
      (* under the new version the rewritten entries hit again *)
      Metrics.reset ();
      ignore (Analyzer.analyze program);
      Alcotest.(check int) "warm under new version" 1
        (cache_counts ()).program_hits)

let test_verify_skips_report_hit () =
  (* A report hit would skip every cross-check, so a verified analysis never
     reads one: the second run on a warm store still loads the summary
     slices and runs the whole-program reference solve. It still writes
     its report, which a plain run then hits. *)
  with_cache (fun _dir ->
      let program = Compile.compile quickstart_like in
      let metric name =
        match Metrics.find name with Some (Metrics.Counter_value n) -> n | _ -> 0
      in
      Obs.enable ();
      Fun.protect ~finally:Obs.disable (fun () ->
          let first = Analyzer.analyze ~verify:true program in
          let hits0 = metric "cache_store_hits{granularity=program}" in
          let fn_hits0 = metric "cache_store_hits{granularity=function}" in
          let transfers0 = metric "fixpoint_transfers{analysis=value}" in
          let second = Analyzer.analyze ~verify:true program in
          Alcotest.(check int) "no report hit under verify" hits0
            (metric "cache_store_hits{granularity=program}");
          Alcotest.(check bool) "summary slices still load" true
            (metric "cache_store_hits{granularity=function}" > fn_hits0);
          let warm = second.Analyzer.value.Wcet_value.Analysis.transfers in
          Alcotest.(check bool) "the summary run applied its slices" true
            (warm < first.Analyzer.value.Wcet_value.Analysis.transfers);
          Alcotest.(check bool) "the reference solve still ran" true
            (metric "fixpoint_transfers{analysis=value}" - transfers0 > warm);
          Alcotest.(check int) "same bound" first.Analyzer.wcet second.Analyzer.wcet;
          ignore (Analyzer.analyze program);
          Alcotest.(check int) "a plain run hits the verified report" (hits0 + 1)
            (metric "cache_store_hits{granularity=program}")))

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
          Alcotest.test_case "one-function edit invalidates one function" `Quick
            test_function_invalidation_on_edit;
          Alcotest.test_case "caller dataflow change re-gates cache seeds" `Quick
            test_caller_dataflow_change_regates_cache_seeds;
          Alcotest.test_case "function entries track the latest convergence" `Quick
            test_function_entries_track_latest_convergence;
          Alcotest.test_case "corrupt entries degrade to recompute" `Quick
            test_corrupt_entries_degrade;
          Alcotest.test_case "undecodable report reclassifies the hit" `Quick
            test_undecodable_report_reclassifies_hit;
          Alcotest.test_case "version bump invalidates" `Quick test_version_bump_invalidates;
          Alcotest.test_case "unusable directory disables caching" `Quick
            test_unusable_dir_disables;
          Alcotest.test_case "verify skips the report hit" `Quick test_verify_skips_report_hit;
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
