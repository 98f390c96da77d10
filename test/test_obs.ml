(* Tests for the observability layer (lib/obs) and its consumers:

   - span nesting, balancing (including through exceptions), and the
     disabled-mode no-op guarantee, measured down to allocation counts;
   - histogram bucket-edge placement (inclusive upper bounds, overflow);
   - determinism of the ldivmod_iterations metric across domain counts;
   - the registry pin: the full set of metric names, so a rename or removal
     is a deliberate, test-visible act (wcet_tool metrics shows this list);
   - explain: the per-block decomposition covers the IPET bound exactly,
     and the dominating loop is reported. *)

module Obs = Wcet_obs.Obs
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace
module Json = Wcet_diag.Json
module Analyzer = Wcet_core.Analyzer
module Explain = Wcet_core.Explain
module Report_cache = Wcet_core.Report_cache
module Harness = Wcet_experiments.Harness

(* Metric registration happens at module-initialization time; reference
   every instrumented module so the registry this binary sees is the one
   wcet_tool links (the analyzer pulls in the rest transitively). *)
let () = ignore Softarith.Ldivmod.udivmod
let () = ignore Pred32_sim.Simulator.create
let () = ignore Misra.Audit.grade_name
let () = ignore Wcet_serve.Server.default_config
let () = ignore Wcet_core.Attribution.source_name

let with_obs f =
  Obs.enable ();
  Trace.reset ();
  Metrics.reset ();
  Fun.protect ~finally:Obs.disable f

(* --- spans --- *)

let test_span_nesting () =
  with_obs (fun () ->
      let inner_depth = ref (-1) in
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> inner_depth := Trace.depth ()));
      Alcotest.(check int) "depth inside inner" 2 !inner_depth;
      Alcotest.(check int) "balanced after exit" 0 (Trace.depth ());
      let events = Trace.events () in
      Alcotest.(check (list string)) "completion order: inner closes first"
        [ "inner"; "outer" ]
        (List.map (fun (e : Trace.event) -> e.Trace.name) events);
      let by_name n = List.find (fun (e : Trace.event) -> e.Trace.name = n) events in
      Alcotest.(check int) "outer at depth 0" 0 (by_name "outer").Trace.depth;
      Alcotest.(check int) "inner at depth 1" 1 (by_name "inner").Trace.depth;
      let outer = by_name "outer" and inner = by_name "inner" in
      Alcotest.(check bool) "inner within outer" true
        (inner.Trace.start_ns >= outer.Trace.start_ns
        && Int64.add inner.Trace.start_ns inner.Trace.dur_ns
           <= Int64.add outer.Trace.start_ns outer.Trace.dur_ns))

let test_span_balances_on_exception () =
  with_obs (fun () ->
      (try Trace.with_span "fails" (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "stack balanced" 0 (Trace.depth ());
      Alcotest.(check (list string)) "span still recorded" [ "fails" ]
        (List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ())))

let test_span_attrs () =
  with_obs (fun () ->
      Trace.with_span ~attrs:[ ("at_entry", Trace.Int 1) ] "s" (fun () ->
          Trace.add_attr "inside" (Trace.Str "yes"));
      match Trace.events () with
      | [ e ] ->
        Alcotest.(check int) "attr count" 2 (List.length e.Trace.attrs);
        Alcotest.(check bool) "entry attr first" true
          (List.assoc "at_entry" e.Trace.attrs = Trace.Int 1)
      | evs -> Alcotest.failf "expected one event, got %d" (List.length evs))

(* --- disabled mode --- *)

let test_disabled_no_op () =
  Obs.disable ();
  Trace.reset ();
  Metrics.reset ();
  let c = Metrics.counter ~name:"test_disabled_counter" ~help:"test" () in
  let h =
    Metrics.histogram ~name:"test_disabled_hist" ~help:"test" ~buckets:[| 1; 2 |] ()
  in
  Metrics.incr c 5;
  Metrics.observe h 1;
  Trace.with_span "ignored" (fun () -> ());
  Alcotest.(check (option bool)) "counter untouched" (Some true)
    (Option.map (fun v -> v = Metrics.Counter_value 0) (Metrics.find "test_disabled_counter"));
  (match Metrics.find "test_disabled_hist" with
  | Some (Metrics.Histogram_value { count; _ }) -> Alcotest.(check int) "hist untouched" 0 count
  | _ -> Alcotest.fail "histogram not found");
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.events ()))

let test_disabled_allocation_free () =
  Obs.disable ();
  let c = Metrics.counter ~name:"test_alloc_counter" ~help:"test" () in
  let h = Metrics.histogram ~name:"test_alloc_hist" ~help:"test" ~buckets:[| 1; 2 |] () in
  let body () = () in
  let iterations = 10_000 in
  (* Warm up so any one-time allocation is out of the measured window. *)
  Metrics.incr c 1;
  Metrics.observe h 1;
  Trace.with_span "warm" body;
  let w0 = Gc.minor_words () in
  for _ = 1 to iterations do
    Metrics.incr c 1;
    Metrics.observe h 1;
    Metrics.observe_n h 1 ~n:3;
    Trace.with_span "off" body;
    Trace.add_attr "solver" (Trace.Str "forest")
  done;
  let delta = Gc.minor_words () -. w0 in
  (* Allow a few words for the measurement itself; anything per-iteration
     would show up as >= [iterations] words. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled ops allocate nothing (delta %.0f words)" delta)
    true
    (delta < float_of_int iterations)

(* --- histogram buckets --- *)

(* Returns (buckets, overflow, sum, count); the inline record can't escape
   its match. *)
let hist_value name =
  match Metrics.find name with
  | Some (Metrics.Histogram_value { buckets; overflow; sum; count }) ->
    (buckets, overflow, sum, count)
  | _ -> Alcotest.failf "histogram %s not found" name

let test_histogram_bucket_edges () =
  with_obs (fun () ->
      let h =
        Metrics.histogram ~name:"test_edges" ~help:"test" ~buckets:[| 0; 10; 20 |] ()
      in
      (* Inclusive upper bounds: 0 -> bucket le=0; 1 and 10 -> le=10;
         11 and 20 -> le=20; 21 -> overflow. *)
      List.iter (Metrics.observe h) [ 0; 1; 10; 11; 20; 21 ];
      let buckets, overflow, sum, count = hist_value "test_edges" in
      Alcotest.(check (list (pair int int)))
        "bucket placement"
        [ (0, 1); (10, 2); (20, 2) ]
        (Array.to_list buckets);
      Alcotest.(check int) "overflow" 1 overflow;
      Alcotest.(check int) "count" 6 count;
      Alcotest.(check int) "sum" 63 sum)

let test_histogram_rejects_bad_buckets () =
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Metrics.histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Metrics.histogram ~name:"test_bad" ~help:"t" ~buckets:[| 1; 1 |] ()))

(* --- determinism across domain counts --- *)

let test_ldivmod_metric_deterministic () =
  let snapshot domains =
    with_obs (fun () ->
        ignore (Softarith.Ldivmod.histogram ~domains ~samples:200_000 ~seed:7L ());
        hist_value "ldivmod_iterations")
  in
  let s_buckets, s_overflow, s_sum, s_count = snapshot 1 in
  let p_buckets, p_overflow, p_sum, p_count = snapshot 4 in
  Alcotest.(check (list (pair int int)))
    "bucket counts identical for 1 vs 4 domains"
    (Array.to_list s_buckets) (Array.to_list p_buckets);
  Alcotest.(check int) "overflow identical" s_overflow p_overflow;
  Alcotest.(check int) "sum identical" s_sum p_sum;
  Alcotest.(check int) "count identical" s_count p_count

(* --- registry pin --- *)

(* The full metric name set, as listed by `wcet_tool metrics`. Adding a
   metric means adding it here; renaming or dropping one is an interface
   change this test makes deliberate. Locally-registered test_* metrics are
   filtered out. *)
let pinned_names =
  [
    "analyzer_failures";
    "analyzer_runs{verdict=complete}";
    "analyzer_runs{verdict=partial}";
    "audit_findings{code=A0501}";
    "audit_findings{code=A0502}";
    "audit_findings{code=A0503}";
    "audit_findings{code=A0504}";
    "audit_findings{code=A0505}";
    "audit_findings{code=A0506}";
    "audit_findings{code=A0507}";
    "audit_findings{code=A0508}";
    "audit_findings{code=A0509}";
    "audit_findings{code=A0510}";
    "audit_findings{code=A0511}";
    "audit_findings{code=A0512}";
    "audit_findings{code=A0513}";
    "cache_data_class{class=always_hit}";
    "cache_data_class{class=always_miss}";
    "cache_data_class{class=bypass}";
    "cache_data_class{class=not_classified}";
    "cache_fetch_class{class=always_hit}";
    "cache_fetch_class{class=always_miss}";
    "cache_fetch_class{class=bypass}";
    "cache_fetch_class{class=not_classified}";
    "cache_persistence_promotions{cache=data}";
    "cache_persistence_promotions{cache=fetch}";
    "cache_store_bytes_read";
    "cache_store_bytes_written";
    "cache_store_evictions";
    "cache_store_hits{granularity=function}";
    "cache_store_hits{granularity=program}";
    "cache_store_misses{granularity=function}";
    "cache_store_misses{granularity=program}";
    "fixpoint_joins{analysis=cache}";
    "fixpoint_joins{analysis=value}";
    "fixpoint_transfers{analysis=cache}";
    "fixpoint_transfers{analysis=octagon}";
    "fixpoint_transfers{analysis=value}";
    "fixpoint_widenings{analysis=cache}";
    "fixpoint_widenings{analysis=value}";
    "fixpoint_worklist_peak{analysis=cache}";
    "fixpoint_worklist_peak{analysis=value}";
    "ipet_constraints";
    "ipet_solves";
    "ipet_variables";
    "ldivmod_iterations";
    "path_disagreements";
    "path_mc_intractable";
    "path_portfolio_wins{backend=ipet}";
    "path_portfolio_wins{backend=mc}";
    "path_solve_us{backend=csolve}";
    "path_solve_us{backend=ipet}";
    "path_solve_us{backend=mc}";
    "path_solve_us{backend=simplex}";
    "path_solves{backend=csolve}";
    "path_solves{backend=ipet}";
    "path_solves{backend=mc}";
    "path_solves{backend=simplex}";
    "pipeline_block_wcet_cycles";
    "pipeline_blocks";
    "scc_count";
    "serve_connections";
    "serve_inflight";
    "serve_queue_depth";
    "serve_queue_peak";
    "serve_request_ms";
    "serve_requests{outcome=cancelled}";
    "serve_requests{outcome=completed}";
    "serve_requests{outcome=failed}";
    "serve_requests{outcome=rejected}";
    "serve_requests{outcome=undelivered}";
    "serve_subscribers";
    "serve_watch_events";
    "serve_watch_scans";
    "sim_cache_hits{cache=d}";
    "sim_cache_hits{cache=i}";
    "sim_cache_misses{cache=d}";
    "sim_cache_misses{cache=i}";
    "sim_cycles";
    "sim_instructions";
    "sim_stall_cycles";
    "simplex_pivots";
    "summary_computes{analysis=cache}";
    "summary_computes{analysis=value}";
    "summary_hits{analysis=cache}";
    "summary_hits{analysis=value}";
    "summary_scc_transfers{analysis=cache}";
    "summary_scc_transfers{analysis=value}";
    "trace_events_dropped";
    "value_accesses{precision=exact}";
    "value_accesses{precision=interval}";
    "value_accesses{precision=unknown}";
    "value_escalated_functions";
    "wcet_slack_cycles{source=cache_unclassified}";
    "wcet_slack_cycles{source=dynamic_residual}";
    "wcet_slack_cycles{source=flow_count}";
    "wcet_slack_cycles{source=pipeline_stall}";
    "wcet_slack_cycles{source=value_multi_region}";
  ]

let test_registry_pinned () =
  let registered =
    Metrics.all ()
    |> List.map fst
    |> List.filter (fun n -> not (String.length n >= 5 && String.sub n 0 5 = "test_"))
  in
  Alcotest.(check (list string)) "registry matches the pinned name list" pinned_names registered;
  List.iter
    (fun (name, help) ->
      Alcotest.(check bool) (name ^ " has a description") true (String.length help > 0))
    (Metrics.all ())

(* --- metrics populate during an observed analysis --- *)

let counter_value name =
  match Metrics.find name with
  | Some (Metrics.Counter_value v) -> v
  | Some (Metrics.Gauge_value v) -> v
  | _ -> Alcotest.failf "metric %s not found" name

(* The [solver] attribute of every [path.ipet] span. *)
let ipet_solvers () =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.name <> "path.ipet" then None
      else
        match List.assoc_opt "solver" e.Trace.attrs with
        | Some (Trace.Str s) -> Some s
        | _ -> Some "?")
    (Trace.events ())

let test_analysis_populates_metrics () =
  let program = Minic.Compile.compile Harness.quickstart_source in
  with_obs (fun () ->
      ignore (Analyzer.analyze program);
      Alcotest.(check bool) "value transfers recorded" true
        (counter_value "fixpoint_transfers{analysis=value}" > 0);
      Alcotest.(check bool) "cache transfers recorded" true
        (counter_value "fixpoint_transfers{analysis=cache}" > 0);
      Alcotest.(check bool) "fetch classifications recorded" true
        (counter_value "cache_fetch_class{class=always_hit}"
         + counter_value "cache_fetch_class{class=always_miss}"
         + counter_value "cache_fetch_class{class=not_classified}"
         + counter_value "cache_fetch_class{class=bypass}"
        > 0);
      (* Quickstart is fact-free: IPET answers from the loop forest and
         hands nothing to the ILP solver. *)
      Alcotest.(check int) "no simplex pivot" 0 (counter_value "simplex_pivots");
      Alcotest.(check int) "no ipet solve" 0 (counter_value "ipet_solves");
      (* Quickstart has no mode guard, so the default portfolio runs IPET
         alone; csolve, the simplex and the gated-off model checker run
         only as verify's oracles. *)
      Alcotest.(check int) "one ipet path solve" 1 (counter_value "path_solves{backend=ipet}");
      Alcotest.(check int) "no csolve path solve" 0
        (counter_value "path_solves{backend=csolve}");
      Alcotest.(check int) "no mc path solve: gated" 0 (counter_value "path_solves{backend=mc}");
      Alcotest.(check int) "one complete run" 1 (counter_value "analyzer_runs{verdict=complete}");
      let spans = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
      List.iter
        (fun phase ->
          Alcotest.(check bool) (phase ^ " span present") true (List.mem phase spans))
        [ "analyze"; "decode"; "value"; "cache"; "persistence"; "pipeline"; "path"; "path.ipet" ];
      Alcotest.(check bool) "no path.mc span" false (List.mem "path.mc" spans);
      Alcotest.(check (list string)) "the forest answered" [ "forest" ] (ipet_solvers ());
      ignore (Analyzer.analyze ~verify:true program);
      Alcotest.(check int) "one csolve path solve under verify" 1
        (counter_value "path_solves{backend=csolve}");
      Alcotest.(check int) "one simplex path solve under verify" 1
        (counter_value "path_solves{backend=simplex}");
      Alcotest.(check int) "the gated-off mc runs under verify" 1
        (counter_value "path_solves{backend=mc}");
      (* verify's simplex oracle is the one ILP problem *)
      Alcotest.(check int) "one ipet solve under verify" 1 (counter_value "ipet_solves");
      Alcotest.(check bool) "simplex pivoted under verify" true
        (counter_value "simplex_pivots" > 0);
      Alcotest.(check bool) "the profile names the solver" true
        (Astring.String.is_infix ~affix:"{solver=forest}"
           (Format.asprintf "@[<v>%a@]" Trace.pp_profile ())))

(* A spec with flow facts goes to the simplex: the irreducible goto cycle
   is bounded only through its synthetic facts. *)
let goto_cycle =
  "int flag; int acc; int main() { int i; i = 0; acc = 0; \
   if (flag) { goto inside; } top: acc = acc + 1; inside: acc = acc + 2; i = i + 1; \
   if (i < 50) { goto top; } return acc; }"

let test_facts_reach_the_simplex () =
  let program = Minic.Compile.compile goto_cycle in
  with_obs (fun () ->
      ignore (Analyzer.analyze ~path_backend:Wcet_path.Path_analysis.Ipet program);
      Alcotest.(check bool) "simplex pivoted" true (counter_value "simplex_pivots" > 0);
      Alcotest.(check int) "one ipet solve" 1 (counter_value "ipet_solves");
      Alcotest.(check int) "one ipet path solve" 1 (counter_value "path_solves{backend=ipet}");
      Alcotest.(check (list string)) "the simplex answered" [ "simplex" ] (ipet_solvers ()))

(* With a store, the store work inside analyze shows in the profile: a
   cold run derives the key once, reads (a miss) and writes the report; a warm
   run reads and decodes it and runs no phase. *)
let test_store_spans () =
  let program = Minic.Compile.compile Harness.quickstart_source in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wcet_test_obs.%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let spans () = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
  let check_spans what expected =
    List.iter
      (fun (name, present) ->
        Alcotest.(check bool) (Printf.sprintf "%s: %s span present" what name) present
          (List.mem name (spans ())))
      expected
  in
  with_obs (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Report_cache.disable ();
          ignore (Report_cache.drain_diags ());
          rm_rf dir)
        (fun () ->
          if not (Report_cache.set_dir dir) then Alcotest.fail "set_dir refused a fresh temp dir";
          ignore (Analyzer.analyze program);
          check_spans "cold"
            [ ("analyze", true); ("store.key", true); ("store.read", true); ("store.write", true);
              ("store.decode", false); ("value", true) ];
          (* the report key is derived once, for the read and the write *)
          Alcotest.(check int) "cold: one store.key span" 1
            (List.length (List.filter (String.equal "store.key") (spans ())));
          Trace.reset ();
          ignore (Analyzer.analyze program);
          check_spans "warm"
            [ ("analyze", true); ("store.key", true); ("store.read", true); ("store.decode", true);
              ("store.write", false); ("value", false) ]))

(* The corpus audit runs the path backend it is given: IPET alone never
   starts the model checker. *)
let test_audit_corpus_path_backend () =
  with_obs (fun () ->
      ignore
        (Wcet_experiments.Audit_corpus.run
           ~config:
             {
               Wcet_serve.Handlers.domain = Wcet_value.Analysis.Interval;
               path_backend = Wcet_path.Path_analysis.Ipet;
               verify = false;
             }
           ());
      Alcotest.(check bool) "ipet path solves recorded" true
        (counter_value "path_solves{backend=ipet}" > 0);
      Alcotest.(check int) "no mc path solve" 0 (counter_value "path_solves{backend=mc}"))

(* --- Prometheus exposition --- *)

let contains hay needle = Astring.String.is_infix ~affix:needle hay

let check_contains rendered needle =
  Alcotest.(check bool) ("exposition contains " ^ needle) true (contains rendered needle)

let test_prometheus_exposition () =
  with_obs (fun () ->
      let c =
        Metrics.counter ~labels:[ ("kind", "x") ] ~name:"test_prom_requests" ~help:"test" ()
      in
      let h = Metrics.histogram ~name:"test_prom_ms" ~help:"test" ~buckets:[| 1; 5 |] () in
      Metrics.incr c 3;
      List.iter (Metrics.observe h) [ 0; 2; 7 ];
      let s = Metrics.to_prometheus () in
      (* family headers appear once per base name, then labeled series *)
      check_contains s "# HELP test_prom_requests test\n# TYPE test_prom_requests counter\n";
      check_contains s "test_prom_requests{kind=\"x\"} 3\n";
      (* histogram: inclusive per-bucket counts become cumulative, closed by
         +Inf (= total observations incl. overflow), plus _sum and _count *)
      check_contains s "# TYPE test_prom_ms histogram\n";
      check_contains s "test_prom_ms_bucket{le=\"1\"} 1\n";
      check_contains s "test_prom_ms_bucket{le=\"5\"} 2\n";
      check_contains s "test_prom_ms_bucket{le=\"+Inf\"} 3\n";
      check_contains s "test_prom_ms_sum 9\n";
      check_contains s "test_prom_ms_count 3\n";
      (* registry-wide gauges render as gauge families *)
      check_contains s "# TYPE serve_queue_depth gauge\n")

let test_prometheus_escaping () =
  (* split_name must invert render_name, and label values must be escaped
     per the exposition format *)
  let base, labels = Metrics.split_name "name{k=v,k2=w}" in
  Alcotest.(check string) "base" "name" base;
  Alcotest.(check (list (pair string string))) "labels" [ ("k", "v"); ("k2", "w") ] labels;
  let base2, labels2 = Metrics.split_name "plain" in
  Alcotest.(check string) "plain base" "plain" base2;
  Alcotest.(check int) "no labels" 0 (List.length labels2)

(* --- trace file validity --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_trace_tmp f =
  let path = Filename.temp_file "wcet-trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let parse_trace path =
  match Json.parse (read_file path) with
  | Error msg -> Alcotest.failf "trace file is not valid JSON: %s" msg
  | Ok (Json.List evs) -> evs
  | Ok _ -> Alcotest.fail "trace file is not a JSON array"

let event_field ev key = Json.member key ev

let test_trace_chrome_valid () =
  with_obs (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span ~attrs:[ ("n", Trace.Int 7) ] "inner" (fun () -> ()));
      Trace.with_span "second" (fun () -> ());
      with_trace_tmp (fun path ->
          Trace.write_chrome path;
          let evs = parse_trace path in
          Alcotest.(check int) "every completed span is an event" 3 (List.length evs);
          List.iter
            (fun ev ->
              Alcotest.(check (option string)) "complete event" (Some "X")
                (Option.bind (event_field ev "ph") Json.to_string_opt);
              Alcotest.(check bool) "has a name" true
                (Option.bind (event_field ev "name") Json.to_string_opt <> None))
            evs;
          (* span balance: inner's [ts, ts+dur] nests inside outer's *)
          let span name =
            let ev =
              List.find
                (fun ev -> Option.bind (event_field ev "name") Json.to_string_opt = Some name)
                evs
            in
            let num k =
              match event_field ev k with
              | Some (Json.Float f) -> f
              | Some (Json.Int i) -> float_of_int i
              | _ -> Alcotest.failf "event %s has no numeric %s" name k
            in
            (num "ts", num "ts" +. num "dur")
          in
          let o0, o1 = span "outer" and i0, i1 = span "inner" in
          Alcotest.(check bool) "inner nests inside outer" true (i0 >= o0 && i1 <= o1)))

let test_trace_flush_with_open_span () =
  (* the SIGTERM-flush path: write_chrome while a span is still open must
     produce a well-formed file holding only the completed spans *)
  with_obs (fun () ->
      Trace.with_span "done" (fun () -> ());
      with_trace_tmp (fun path ->
          Trace.with_span "open" (fun () -> Trace.write_chrome path);
          let evs = parse_trace path in
          let names =
            List.filter_map (fun ev -> Option.bind (event_field ev "name") Json.to_string_opt) evs
          in
          Alcotest.(check (list string)) "only completed spans flushed" [ "done" ] names);
      Alcotest.(check int) "stack balanced after flush" 0 (Trace.depth ()))

let test_trace_drop_counted () =
  with_obs (fun () ->
      let cap = Trace.buffer_capacity () in
      Fun.protect
        ~finally:(fun () -> Trace.set_buffer_capacity cap)
        (fun () ->
          Trace.set_buffer_capacity 8;
          for _ = 1 to 20 do
            Trace.with_span "burst" (fun () -> ())
          done;
          Alcotest.(check int) "12 spans dropped" 12 (Trace.dropped ());
          (match Metrics.find "trace_events_dropped" with
          | Some (Metrics.Counter_value v) ->
            Alcotest.(check int) "trace_events_dropped counts them" 12 v
          | _ -> Alcotest.fail "trace_events_dropped not registered");
          (* a trace written while dropping is still valid, just incomplete *)
          with_trace_tmp (fun path ->
              Trace.write_chrome path;
              Alcotest.(check int) "capacity events survive" 8
                (List.length (parse_trace path)))))

let test_profile_aggregation () =
  with_obs (fun () ->
      for _ = 1 to 3 do
        Trace.with_span "work" (fun () -> Trace.with_span "sub" (fun () -> ()))
      done;
      let rendered = Format.asprintf "@[<v>%a@]" Trace.pp_profile () in
      Alcotest.(check bool) "repeats aggregate to one row with x3" true
        (contains rendered "x3");
      (* merged: "work" appears once, not three times *)
      let count_occurrences needle hay =
        let n = String.length needle in
        let rec go i acc =
          if i + n > String.length hay then acc
          else if String.sub hay i n = needle then go (i + 1) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      Alcotest.(check int) "one aggregated work row" 1 (count_occurrences "work" rendered);
      let r2 = Format.asprintf "@[<v>%a@]" Trace.pp_profile () in
      Alcotest.(check string) "re-rendering is deterministic" rendered r2;
      (* a merged row keeps the attributes all its spans agree on *)
      List.iter
        (fun v -> Trace.with_span ~attrs:[ ("k", Trace.Str v) ] "same" (fun () -> ()))
        [ "a"; "a" ];
      List.iter
        (fun v -> Trace.with_span ~attrs:[ ("k", Trace.Str v) ] "mixed" (fun () -> ()))
        [ "a"; "b"; "a" ];
      let rendered = Format.asprintf "@[<v>%a@]" Trace.pp_profile () in
      Alcotest.(check bool) "agreeing attributes shown" true (contains rendered "x2  {k=a}");
      Alcotest.(check bool) "disagreeing attributes hidden" false (contains rendered "x3  {"))

(* --- explain --- *)

let test_explain_covers_bound () =
  let program = Minic.Compile.compile Harness.quickstart_source in
  let report = Analyzer.analyze program in
  let ex = Explain.of_report report in
  Alcotest.(check int) "decomposition covers the bound exactly" report.Analyzer.wcet
    ex.Explain.covered;
  Alcotest.(check int) "wcet echoed" report.Analyzer.wcet ex.Explain.wcet;
  Alcotest.(check bool) "per-block totals are count*cycles" true
    (List.for_all
       (fun (r : Explain.block_row) -> r.Explain.total = r.Explain.count * r.Explain.cycles)
       ex.Explain.blocks);
  Alcotest.(check bool) "rows sorted by total descending" true
    (let rec sorted = function
       | (a : Explain.block_row) :: (b :: _ as rest) ->
         a.Explain.total >= b.Explain.total && sorted rest
       | _ -> true
     in
     sorted ex.Explain.blocks);
  match ex.Explain.dominating with
  | None -> Alcotest.fail "quickstart has a loop; expected a dominating loop"
  | Some row ->
    Alcotest.(check string) "dominating loop in main" "main" row.Explain.loop_func;
    let rendered = Format.asprintf "%a" (Explain.pp ~top:5) ex in
    Alcotest.(check bool) "pp names the dominating loop" true
      (Astring.String.is_infix ~affix:"dominating loop:" rendered)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "balances on exception" `Quick test_span_balances_on_exception;
          Alcotest.test_case "span attributes" `Quick test_span_attrs;
          Alcotest.test_case "store spans inside analyze" `Quick test_store_spans;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "recording is a no-op" `Quick test_disabled_no_op;
          Alcotest.test_case "allocation-free" `Quick test_disabled_allocation_free;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "bad buckets rejected" `Quick test_histogram_rejects_bad_buckets;
          Alcotest.test_case "ldivmod metric domain-count independent" `Quick
            test_ldivmod_metric_deterministic;
          Alcotest.test_case "registry pinned" `Quick test_registry_pinned;
          Alcotest.test_case "analysis populates metrics" `Quick test_analysis_populates_metrics;
          Alcotest.test_case "facts reach the simplex" `Quick test_facts_reach_the_simplex;
          Alcotest.test_case "audit corpus honours the path backend" `Quick
            test_audit_corpus_path_backend;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "name round-trip" `Quick test_prometheus_escaping;
        ] );
      ( "chrome trace",
        [
          Alcotest.test_case "written file re-parses" `Quick test_trace_chrome_valid;
          Alcotest.test_case "flush with open span" `Quick test_trace_flush_with_open_span;
          Alcotest.test_case "drops counted" `Quick test_trace_drop_counted;
          Alcotest.test_case "profile aggregation deterministic" `Quick test_profile_aggregation;
        ] );
      ( "explain",
        [ Alcotest.test_case "covers the bound exactly" `Quick test_explain_covers_bound ] );
    ]
