(* Benchmark and table harness: regenerates every table and figure of the
   paper (see DESIGN.md section 4 for the experiment index):

   - T1: the lDivMod iteration histogram (Table 1),
   - F1: the analysis phase breakdown (Figure 1),
   - E1: the MISRA-rule study (Section 4.2, quantified),
   - E2: the design-level-information study (Section 4.3, quantified).

   LDIVMOD_SAMPLES=100000000 reproduces the paper's full 10^8-sample
   Table 1; PAR_DOMAINS caps the domain pool used for the histogram shards
   and the corpus fan-out.

   T1 runs first at top level so the histogram shards own the whole pool;
   the remaining tables are then fanned out across domains (each worker
   runs its table's corpus entries serially — the pool refuses to nest).
   Every run also writes machine-readable BENCH_results.json — table
   wall-clock, histogram throughput, the fixpoint engine's cold and
   warm-edit transfer counts, the E4/E5 blocks and every metric — so the performance
   trajectory is trackable across PRs. *)

module Harness = Wcet_experiments.Harness
module Parallel = Wcet_util.Parallel
module Clock = Wcet_util.Mono_clock
module Analyzer = Wcet_core.Analyzer

let timed f =
  let t0 = Clock.now () in
  let result = f () in
  (result, Clock.now () -. t0)

(* Render a table into a string so tables can be generated concurrently and
   printed in order. *)
let render table =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  table ppf ();
  Format.pp_print_flush ppf ();
  Buffer.contents buf

module Handlers = Wcet_serve.Handlers
module Metrics = Wcet_obs.Metrics

(* [f path] with [source] written to a throwaway file at [path]. *)
let with_source source f =
  let path = Filename.temp_file "wcet_bench" ".mc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc source);
      f path)

(* The store-backed request path: a daemon [analyze] of the file at
   [path], under the library defaults (interval domain). *)
let handlers_analyze path =
  match Handlers.analyze (Handlers.bare_request path) with
  | Ok a -> a
  | Error _ -> failwith "bench: a store-backed analysis failed"

(* The (value, cache) fixpoint transfers [f] performs, read from the metric
   registry: a store hit returns an answer, which carries no state to count
   them from. The registry counts while observability is on, as it is for
   everything after T1. *)
let transfers_during f =
  let counter name = match Metrics.find name with Some (Metrics.Counter_value n) -> n | _ -> 0 in
  let count () =
    (counter "fixpoint_transfers{analysis=value}", counter "fixpoint_transfers{analysis=cache}")
  in
  let v0, c0 = count () in
  let result = f () in
  let v1, c1 = count () in
  (result, (v1 - v0, c1 - c0))

(* Run [f] with the persistent store at a throwaway directory, so the
   benchmark never touches (or is skewed by) a user's _wcet_cache. *)
let with_store name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wcet_bench_%s.%d" name (Unix.getpid ()))
  in
  if not (Wcet_core.Report_cache.set_dir dir) then failwith ("cannot open a store at " ^ dir);
  Fun.protect
    ~finally:(fun () ->
      Wcet_core.Report_cache.disable ();
      match Wcet_util.Store.open_store dir with
      | Ok s -> ignore (Wcet_util.Store.clear s)
      | Error _ -> ())
    f

(* Cold-vs-warm wall clock of the persistent analysis cache on the
   quickstart program, through the request path: the warm request must hit
   the answer before compiling and transfer nothing. *)
let cache_comparison () =
  with_source Harness.quickstart_source (fun path ->
      with_store "cache" (fun () ->
          let a_cold, cold = timed (fun () -> handlers_analyze path) in
          let (a_warm, warm), warm_transfers =
            transfers_during (fun () -> timed (fun () -> handlers_analyze path))
          in
          if a_cold.Analyzer.an_wcet <> a_warm.Analyzer.an_wcet then
            failwith "cache benchmark: warm bound differs from cold bound";
          if warm_transfers <> (0, 0) then
            failwith "cache benchmark: the warm request transferred";
          (cold, warm)))

(* The fixpoint engine on the quickstart program, cold (no store):
   transfer totals and wall time of one analysis. *)
let fixpoint_cold () =
  let program = Minic.Compile.compile Harness.quickstart_source in
  let (value, cache), secs =
    timed (fun () ->
        let r = Analyzer.analyze program in
        ( r.Analyzer.value.Wcet_value.Analysis.transfers,
          r.Analyzer.cache.Wcet_cache.Cache_analysis.transfers ))
  in
  (value, cache, secs)

let incremental_source edited =
  (* The edit changes leaf_a's code bytes but not its output interval (t is
     clamped back to 1 on both sides of the edit). *)
  Printf.sprintf
    "int leaf_a(int x) { int t; t = %d; if (t > 0) { t = 1; } return x + t; }\n\
     int leaf_b(int x) { return x * 2; }\n\
     int mid_a(int x) { return leaf_a(x); }\n\
     int mid_b(int x) { return leaf_b(x); }\n\
     int main() { return mid_a(3) + mid_b(4); }\n"
    (if edited then 2 else 1)

(* One-function edit under a warm store, through the request path:
   analyze the base program, then a variant whose only change is leaf_a's
   constant. The store keys answers by source bytes, so the edit must miss
   and transfer exactly as much as a store-less run of the edited source;
   anything else means an answer depends on what the store held, and the
   bench fails. Returns the edited program's (value, cache) transfers. *)
let incremental_check () =
  let analyze edited = with_source (incremental_source edited) handlers_analyze in
  let _, warm =
    with_store "edit" (fun () ->
        ignore (analyze false);
        transfers_during (fun () -> analyze true))
  in
  let _, cold = transfers_during (fun () -> analyze true) in
  if warm <> cold then begin
    Format.eprintf
      "incremental edit: warm transfers (value %d, cache %d) differ from a cold run (value %d, \
       cache %d)@."
      (fst warm) (snd warm) (fst cold) (snd cold);
    exit 1
  end;
  cold

module Json = Wcet_diag.Json
module Ledger = Wcet_obs.Ledger

(* Provenance stamps (shared with the bound ledger), so BENCH_results.json
   files from different checkouts compare meaningfully. *)
let git_commit = Ledger.git_commit
let iso_date = Ledger.iso_date

(* One bound-drift snapshot per benchmarked program, appended to the NDJSON
   ledger so successive bench runs form a time series readable by
   [wcet_tool ledger report] and gated by [wcet_tool ledger diff]. *)
let ledger_snapshot ~program source =
  Wcet_serve.Handlers.ledger_entry ~program
    ~digest:(Digest.to_hex (Digest.string source))
    (Ok (Analyzer.answer (Analyzer.analyze (Minic.Compile.compile source))))

let write_ledger ~path =
  let entries =
    [
      ledger_snapshot ~program:"bench/quickstart" Wcet_experiments.Harness.quickstart_source;
      ledger_snapshot ~program:"bench/diamond" (incremental_source false);
    ]
  in
  match Ledger.append ~path entries with
  | Ok () -> Format.printf "  bound snapshots appended to %s@.@." path
  | Error msg -> Format.eprintf "W0802: bench ledger not written: %s@." msg

(* The E4 rows rendered as the machine-readable [value_domain] block:
   per-entry interval-vs-auto bounds plus the two precision counters the
   CI gate watches (non-exact access addresses, unclassified cache
   accesses). *)
let verdict_json = function
  | Harness.Bound b -> Json.Obj [ ("verdict", Json.String "complete"); ("bound", Json.Int b) ]
  | Harness.Partial (b, _) ->
    Json.Obj [ ("verdict", Json.String "partial"); ("bound", Json.Int b) ]
  | Harness.Fails _ -> Json.Obj [ ("verdict", Json.String "failed"); ("bound", Json.Null) ]

let value_domain_json e4 =
  let pair name (i, a) = (name, Json.Obj [ ("interval", Json.Int i); ("auto", Json.Int a) ]) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 e4 in
  Json.Obj
    [
      ("corpus", Json.String "conforming scenarios, assisted annotations");
      ( "entries",
        Json.List
          (List.map
             (fun (r : Harness.e4_row) ->
               Json.Obj
                 [
                   ("entry", Json.String r.Harness.e4_entry);
                   ("interval", verdict_json r.Harness.e4_interval);
                   ("auto", verdict_json r.Harness.e4_auto);
                   ("interval_seconds", Json.Float r.Harness.e4_interval_secs);
                   ("auto_seconds", Json.Float r.Harness.e4_auto_secs);
                   ("escalated_functions", Json.Int r.Harness.e4_escalated);
                   ("octagon_transfers", Json.Int r.Harness.e4_transfers);
                   ("discharged_loops", Json.Int r.Harness.e4_loops);
                   ("tightened_accesses", Json.Int r.Harness.e4_accesses);
                   pair "nonexact_value_accesses" r.Harness.e4_value_nonexact;
                   pair "not_classified_cache_accesses" r.Harness.e4_cache_nc;
                 ])
             e4) );
      ("escalated_functions", Json.Int (sum (fun r -> r.Harness.e4_escalated)));
      ("octagon_transfers", Json.Int (sum (fun r -> r.Harness.e4_transfers)));
      ("discharged_loops", Json.Int (sum (fun r -> r.Harness.e4_loops)));
      ("tightened_accesses", Json.Int (sum (fun r -> r.Harness.e4_accesses)));
      pair "nonexact_value_accesses"
        ( sum (fun r -> fst r.Harness.e4_value_nonexact),
          sum (fun r -> snd r.Harness.e4_value_nonexact) );
      pair "not_classified_cache_accesses"
        (sum (fun r -> fst r.Harness.e4_cache_nc), sum (fun r -> snd r.Harness.e4_cache_nc));
    ]

(* The E5 rows rendered as the machine-readable [path_portfolio] block:
   per-entry per-backend bounds and wall times plus the winner tallies the
   CI gate watches (the portfolio bound must never exceed IPET's). *)
let path_portfolio_json e5 =
  let backend_json (b : Wcet_core.Analyzer.backend_run) =
    Json.Obj
      [
        ("name", Json.String b.Wcet_core.Analyzer.br_name);
        ( "bound",
          match b.Wcet_core.Analyzer.br_bound with Some x -> Json.Int x | None -> Json.Null );
        ( "error",
          match b.Wcet_core.Analyzer.br_error with
          | Some (code, _) -> Json.String code
          | None -> Json.Null );
        ("wall_us", Json.Int b.Wcet_core.Analyzer.br_wall_us);
        ("winner", Json.Bool b.Wcet_core.Analyzer.br_winner);
      ]
  in
  let wins name =
    List.length (List.filter (fun (r : Harness.e5_row) -> r.Harness.e5_winner = name) e5)
  in
  Json.Obj
    [
      ("corpus", Json.String "conforming scenarios, assisted annotations");
      ( "entries",
        Json.List
          (List.map
             (fun (r : Harness.e5_row) ->
               Json.Obj
                 [
                   ("entry", Json.String r.Harness.e5_entry);
                   ("portfolio", verdict_json r.Harness.e5_verdict);
                   ("winner", Json.String r.Harness.e5_winner);
                   ("backends", Json.List (List.map backend_json r.Harness.e5_backends));
                   ( "mc_gate",
                     match r.Harness.e5_mc_gate with
                     | Some g -> Json.String (Wcet_core.Analyzer.mc_gate_decision g)
                     | None -> Json.Null );
                 ])
             e5) );
      ("winners", Json.Obj [ ("ipet", Json.Int (wins "ipet")); ("mc", Json.Int (wins "mc")) ]);
    ]

let write_json ~path ~domains ~samples ~tables ~samples_per_sec ~store:(store_cold, store_warm)
    ~fixpoint:(fp_value, fp_cache, fp_secs) ~incr ~e4 ~e5 =
  let transfers (v, c) =
    Json.Obj [ ("value", Json.Int v); ("cache", Json.Int c); ("total", Json.Int (v + c)) ]
  in
  let json =
    Json.Obj
      [
        ("commit", Json.String (git_commit ()));
        ("date", Json.String (iso_date ()));
        ("domains", Json.Int domains);
        ("ldivmod_samples", Json.Int samples);
        ("histogram_samples_per_sec", Json.Float samples_per_sec);
        ( "tables",
          Json.List
            (List.map
               (fun (name, seconds) ->
                 Json.Obj [ ("name", Json.String name); ("seconds", Json.Float seconds) ])
               tables) );
        ( "fixpoint",
          Json.Obj
            [
              ("program", Json.String "quickstart");
              ( "cold",
                Json.Obj
                  [
                    ("value", Json.Int fp_value);
                    ("cache", Json.Int fp_cache);
                    ("total", Json.Int (fp_value + fp_cache));
                    ("seconds", Json.Float fp_secs);
                  ] );
              ( "incremental_edit",
                Json.Obj
                  [
                    ("program", Json.String "five-function diamond, one leaf edited");
                    ("warm_equals_cold", transfers incr);
                  ] );
            ] );
        ( "analysis_cache",
          Json.Obj
            [
              ("program", Json.String "quickstart");
              ("cold_seconds", Json.Float store_cold);
              ("warm_seconds", Json.Float store_warm);
              ( "speedup",
                if store_warm > 0. then Json.Float (store_cold /. store_warm) else Json.Null );
            ] );
        ("value_domain", value_domain_json e4);
        ("path_portfolio", path_portfolio_json e5);
        (* Snapshot of every observability metric populated by the tables
           above (analyzer counters, cache classifications, …). *)
        ("metrics", Wcet_obs.Metrics.to_json ());
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let () =
  let domains = Parallel.default_domains () in
  let samples =
    match Harness.samples_from_env () with
    | Ok s -> s
    | Error d ->
      Format.eprintf "%a@." Wcet_diag.Diag.pp d;
      exit (Wcet_diag.Diag.exit_for d)
  in
  (* T1 first, alone at top level: the histogram shards get all domains.
     The observability switch is still off here, so the sampling loop is
     measured at its uninstrumented speed — enabling tracing must never
     skew the headline throughput number. *)
  let t1_out, t1_seconds = timed (fun () -> render (Harness.table_t1 ~samples)) in
  print_string t1_out;
  print_newline ();
  (* Everything after the timed histogram runs observed, so the JSON report
     below can snapshot the metric registry. The small re-run populates the
     ldivmod_iterations histogram metric (T1 itself ran unobserved). *)
  Wcet_obs.Obs.enable ();
  ignore (Softarith.Ldivmod.histogram ~samples:100_000 ~seed:1L ());
  (* The remaining tables fan out across the pool; each is rendered to its
     own buffer and printed in the fixed order below. *)
  let tables =
    [|
      ("F1", fun ppf () -> Harness.table_f1 ppf ());
      ("E1", fun ppf () -> Harness.table_rules ppf ());
      ("E2", fun ppf () -> Harness.table_tier_two ppf ());
      ("A1/A2", fun ppf () -> Harness.table_ablations ppf ());
    |]
  in
  let rendered =
    Parallel.map (Array.length tables) (fun i ->
        let name, table = tables.(i) in
        let out, seconds = timed (fun () -> render table) in
        (name, out, seconds))
  in
  Array.iter
    (fun (_, out, _) ->
      print_string out;
      print_newline ())
    rendered;
  (* E4 runs the corpus twice (interval, then auto) so its rows feed both
     the printed table and the value_domain JSON block without a re-run;
     the entries themselves fan out across the pool. *)
  let e4, e4_seconds = timed (fun () -> Harness.e4_rows ()) in
  print_string (render (fun ppf () -> Harness.pp_e4 ppf e4));
  print_newline ();
  (* E5 runs the corpus once under the portfolio so its rows feed both the
     printed table and the path_portfolio JSON block without a re-run. *)
  let e5, e5_seconds = timed (fun () -> Harness.e5_rows ()) in
  print_string (render (fun ppf () -> Harness.pp_e5 ppf e5));
  print_newline ();
  let ((fp_value, fp_cache, fp_secs) as fixpoint) = fixpoint_cold () in
  Format.printf
    "== fixpoint engine (quickstart program, cold) ==@.  whole program: value %d + cache %d = %d \
     transfers   %.4f s@.@."
    fp_value fp_cache (fp_value + fp_cache) fp_secs;
  let ((incr_v, incr_c) as incr) = incremental_check () in
  Format.printf
    "== incremental one-function edit (warm store) ==@.  warm = cold: value %d + cache %d = %d \
     transfers@.@."
    incr_v incr_c (incr_v + incr_c);
  let (store_cold, store_warm) = cache_comparison () in
  Format.printf
    "== analysis cache (quickstart program) ==@.  cold: %.4f s   warm: %.4f s   speedup: %.1fx@.@."
    store_cold store_warm
    (if store_warm > 0. then store_cold /. store_warm else 0.);
  let samples_per_sec = float_of_int samples /. t1_seconds in
  let table_times =
    ("T1", t1_seconds)
    :: (Array.to_list rendered |> List.map (fun (name, _, seconds) -> (name, seconds)))
    @ [ ("E4", e4_seconds); ("E5", e5_seconds) ]
  in
  write_json ~path:"BENCH_results.json" ~domains ~samples ~tables:table_times ~samples_per_sec
    ~store:(store_cold, store_warm) ~fixpoint ~incr ~e4 ~e5;
  Format.printf "== timings (%d domains) ==@." domains;
  List.iter
    (fun (name, seconds) -> Format.printf "  %-6s %8.3f s@." name seconds)
    table_times;
  Format.printf "  T1 throughput: %.2e samples/s@." samples_per_sec;
  Format.printf "  (machine-readable copy in BENCH_results.json)@.";
  write_ledger ~path:"BENCH_ledger.ndjson"
