(* The command-line front end of the analyzer suite:

     wcet_tool analyze  prog.mc [--annot a.ann] [--hw default|uncached|no-hw-div]
                        [--soft-div] [--verbose] [--format text|json]
                        [--profile] [--trace FILE]
     wcet_tool explain  prog.mc [--annot a.ann] [--hw ...] [--soft-div]
                        [--top N] [--dot FILE] [--format text|json]
     wcet_tool simulate prog.mc [--poke sym=value]... [--hw ...]
     wcet_tool misra    prog.mc [--format text|json]
     wcet_tool audit    prog.mc [--annot a.ann] [--hw ...] [--soft-div]
                        [--format text|json] [--dot FILE]
     wcet_tool audit    --corpus [--seed N] [--grades] [--format text|json]
     wcet_tool disasm   prog.mc
     wcet_tool suggest  prog.mc
     wcet_tool check    [--seed N] [--random N] [--faults N] [--format text|json]
                        [--trace FILE]
     wcet_tool cache    stats|clear|verify [--cache-dir DIR] [--format text|json]
     wcet_tool serve    [--socket PATH] [--watch DIR] [--workers N] [--queue N]
                        [--timeout-ms MS] [--max-frame BYTES]
     wcet_tool call     METHOD [PROGRAM] [--socket PATH] [--timeout-ms MS]
                        [--raw BYTES] [--retry]
     wcet_tool metrics
     wcet_tool codes

   The analysis commands (analyze, explain, audit, suggest, check) keep a
   persistent result cache in _wcet_cache/ (override with --cache-dir or
   WCET_CACHE_DIR, disable with --no-cache); warm reruns of an unchanged
   program reproduce the cold report bit for bit without re-running the
   analysis phases.

   Programs are MiniC translation units; annotations use the textual syntax
   of Wcet_annot.Annot.

   Exit codes (stable, documented in README.md):
     0   success (complete bound / simulation ran / no violations)
     1   usage or input problem (unreadable file, parse/type error, bad poke)
     2   analysis failed (fatal diagnostics; no bound)
     3   MISRA violations found
     4   partial WCET: a bound was computed but is conditional on analysis holes
     5   check failed (soundness violation or fault-injection crash)
     70  internal error (uncaught exception - a bug, please report)

   Every failure path prints structured diagnostics (severity[code] phase:
   message), never a backtrace. *)

open Cmdliner
module Diag = Wcet_diag.Diag
module Json = Wcet_diag.Json
module Analyzer = Wcet_core.Analyzer
module Explain = Wcet_core.Explain
module Faultinject = Wcet_experiments.Faultinject
module Check = Wcet_experiments.Check
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace
module Ledger = Wcet_obs.Ledger
module Attribution = Wcet_core.Attribution
module Report_cache = Wcet_core.Report_cache
module Store = Wcet_util.Store
module Server = Wcet_serve.Server
module Client = Wcet_serve.Client
module Proto = Wcet_serve.Proto
module Handlers = Wcet_serve.Handlers

(* [wcet_tool metrics] lists every registered metric. Registration happens
   in the module initializers of the instrumented libraries, which only run
   for modules the executable links; reference the ones no subcommand pulls
   in otherwise. *)
let () = ignore Softarith.Ldivmod.udivmod

let print_diag d = Format.eprintf "@[<v>%a@]@." Diag.pp d

let fail_with d =
  print_diag d;
  exit (Diag.exit_for d)

(* One shared classification of expected failures (Faultinject.classify_exn,
   the same mapping the fault-injection campaign holds the toolchain to);
   anything unclassified is an internal error: code E0901, exit 70. *)
let handle_errors f =
  try f () with
  | e -> (
    match Faultinject.classify_exn e with
    | Some d -> fail_with d
    | None ->
      fail_with
        (Diag.makef Diag.Error Diag.Internal ~code:"E0901" "uncaught exception: %s"
           (Printexc.to_string e)))

let profile_conv = Arg.enum Pred32_hw.Hw_config.profiles

type format = Text | Json_format

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json_format) ]) Text
    & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json)")

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.mc" ~doc:"MiniC source file")

let hw_arg =
  Arg.(
    value
    & opt profile_conv Pred32_hw.Hw_config.default
    & info [ "hw" ] ~doc:"Hardware profile: $(b,default), $(b,uncached) or $(b,no-hw-div)")

(* Observability: both flags flip the global switch on, so spans and metric
   cells populate during the run; with neither, instrumentation stays a
   disabled-branch no-op. *)
let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ] ~doc:"Print a phase profile (nested spans with wall-clock times) to stderr")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event file (load in Perfetto or chrome://tracing)")

(* One-shot runs with --trace=FILE install SIGINT/SIGTERM handlers so an
   interrupted run still flushes its span buffer; Trace.write_chrome is
   temp+rename, so the trace on disk is complete or absent, never torn.
   The flag is cleared before flushing (and by the normal exit path) so
   the buffer is written at most once. *)
let trace_flush_target = ref None

let install_trace_signal_handlers () =
  let handle signal code =
    try
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             (match !trace_flush_target with
             | Some path -> (
               trace_flush_target := None;
               try Trace.write_chrome path with _ -> ())
             | None -> ());
             exit code))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  handle Sys.sigint 130;
  handle Sys.sigterm 143

let obs_setup ~profile ~trace =
  if profile || trace <> None then Wcet_obs.Obs.enable ();
  match trace with
  | Some path ->
    trace_flush_target := Some path;
    install_trace_signal_handlers ()
  | None -> ()

let obs_finish ~profile ~trace =
  (match trace with
  | Some path ->
    trace_flush_target := None;
    Trace.write_chrome path;
    let dropped = Trace.dropped () in
    if dropped > 0 then
      print_diag
        (Diag.makef Diag.Warning Diag.Obs ~code:"W0801"
           "trace buffer overflowed: %s is missing %d dropped span(s)" path dropped)
  | None -> ());
  if profile then Format.eprintf "@[<v>%a@]@?" Trace.pp_profile ()

let soft_div_arg =
  Arg.(value & flag & info [ "soft-div" ] ~doc:"Lower division to the software lDivMod routine")

(* The persistent analysis cache. Resolution order: --cache-dir, then
   WCET_CACHE_DIR, then ./_wcet_cache. Opening is best-effort — an
   unusable directory queues W0612 and the run proceeds uncached. Store
   warnings are drained at exit so they reach stderr on every path
   (including the cached-report path, whose output must stay bit-identical
   to the cold run's). *)
let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Analysis result cache directory (default $(b,_wcet_cache); the \
           $(b,WCET_CACHE_DIR) environment variable overrides the default)")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the persistent analysis result cache")

let resolve_cache_dir cache_dir =
  match cache_dir with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "WCET_CACHE_DIR" with
    | Some d when d <> "" -> d
    | Some _ | None -> "_wcet_cache")

(* Entry envelopes are checked against format_version plus this salt
   before their payload reaches Marshal.from_string, which is not type
   safe: stale marshaled layouts must be stopped by the version check,
   not by manual bump discipline. Deriving the salt from the executable's
   own digest makes every rebuild a distinct version — conservative (a
   rebuild that changes no layout also invalidates, under W0611) but a
   drifted layout can never reach the unmarshaller. *)
let () =
  Report_cache.set_version_salt
    (match Digest.file Sys.executable_name with
    | d -> "+" ^ Digest.to_hex d
    | exception _ -> "")

let cache_setup ~cache_dir ~no_cache =
  if no_cache then Report_cache.disable ()
  else ignore (Report_cache.set_dir (resolve_cache_dir cache_dir));
  at_exit (fun () -> List.iter print_diag (Report_cache.drain_diags ()))

let annot_arg =
  Arg.(value & opt (some file) None & info [ "annot" ] ~doc:"Annotation file")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Re-run the reference configuration and abort on any divergence: octagon-refined vs \
           interval states and bound (E0503), and the path backends against certified witness \
           paths with csolve as the structural witness and the simplex as the oracle of \
           fact-free IPET (E0303), the model checker on programs its gate kept IPET-only \
           (an Info W0306 when it would have tightened the bound), and, under $(b,auto), the \
           octagon on functions its trigger skipped (an Info W0502 when it would have \
           tightened an access or loop bound). Never reads a cached report")

let domain_arg =
  Arg.(
    value
    & opt (enum Wcet_value.Analysis.all_domains) Wcet_value.Analysis.Auto
    & info [ "domain" ]
        ~doc:
          "Value-analysis abstract domain: $(b,interval) (non-relational baseline) or \
           $(b,auto) (the default: interval first, then an octagon escalation of exactly the \
           functions whose interval results left an access that may touch two or more memory \
           regions, or a loop unbounded for an input-dependent or aliased counter)")

(* The one place the CLI passes its --domain and --verify values to the
   analysis commands (analyze, explain, audit). *)
let config_term =
  Term.(const (fun domain verify -> { Handlers.domain; verify }) $ domain_arg $ verify_arg)

(* The bound-drift ledger: `analyze --ledger` and `check --ledger` append
   one snapshot per run; `ledger report`/`ledger diff` read the series
   back. A ledger write failure is a W0802 warning, never a run failure. *)
let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Append a bound-drift snapshot for this run to FILE (NDJSON, append-only)")

let ledger_append ~ledger ~source report =
  match ledger with
  | None -> ()
  | Some path -> (
    let entry =
      Handlers.ledger_entry ~program:source ~digest:(Handlers.file_digest source) (Ok report)
    in
    match Ledger.append ~path [ entry ] with
    | Ok () -> ()
    | Error msg ->
      print_diag
        (Diag.makef Diag.Warning Diag.Obs ~code:"W0802" "bound ledger %s not written: %s" path
           msg))

(* With --profile or --trace, the one-shot report JSON also carries the
   run's metric snapshot and span trace. The daemon never embeds them: its
   [metrics] method serves the registry. *)
let with_obs_fields = function
  | Json.Obj fields when Wcet_obs.Obs.on () ->
    Json.Obj (fields @ [ ("metrics", Metrics.to_json ()); ("trace", Trace.to_json ()) ])
  | json -> json

let print_failure format ds =
  match format with
  | Json_format -> print_endline (Json.to_string (Analyzer.failure_to_json ds))
  | Text -> Format.eprintf "@[<v>%a@]@." Diag.pp_list ds

(* --dot FILE, where "-" is stdout. *)
let write_dot dot emit =
  match dot with
  | None -> ()
  | Some "-" -> emit Format.std_formatter
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let ppf = Format.formatter_of_out_channel oc in
        emit ppf;
        Format.pp_print_flush ppf ())

let analyze_cmd =
  let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full report") in
  let run source annot hw soft_div verbose format profile trace cache_dir no_cache config ledger =
    handle_errors (fun () ->
        obs_setup ~profile ~trace;
        cache_setup ~cache_dir ~no_cache;
        match Handlers.analyze { Handlers.source; annot; hw; soft_div; config } with
        | Ok report -> (
          ledger_append ~ledger ~source report;
          (match format with
          | Json_format ->
            print_endline (Json.to_string (with_obs_fields (Analyzer.report_to_json report)))
          | Text ->
            if verbose then Format.printf "%a@." Analyzer.pp_report report
            else begin
              (match report.Analyzer.verdict with
              | Analyzer.Complete ->
                Format.printf "WCET bound: %d cycles@." report.Analyzer.wcet
              | Analyzer.Partial ->
                Format.printf
                  "WCET bound: %d cycles — PARTIAL: conditional on %d analysis hole(s)@."
                  report.Analyzer.wcet
                  (List.length report.Analyzer.holes));
              if report.Analyzer.diagnostics <> [] then
                Format.eprintf "@[<v>%a@]@." Diag.pp_list report.Analyzer.diagnostics
            end);
          obs_finish ~profile ~trace;
          match report.Analyzer.verdict with
          | Analyzer.Complete -> ()
          | Analyzer.Partial -> exit Diag.Exit.partial)
        | Error ds ->
          print_failure format ds;
          obs_finish ~profile ~trace;
          exit Diag.Exit.analysis)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Compute a WCET bound for a MiniC program")
    Term.(
      const run $ source_arg $ annot_arg $ hw_arg $ soft_div_arg $ verbose_arg $ format_arg
      $ profile_flag $ trace_arg $ cache_dir_arg $ no_cache_arg $ config_term $ ledger_arg)

let poke_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let sym = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      (try Ok (sym, int_of_string v) with Failure _ -> Error (`Msg "bad poke value"))
    | None -> Error (`Msg "expected sym=value")
  in
  let print ppf (sym, v) = Format.fprintf ppf "%s=%d" sym v in
  Arg.conv (parse, print)

let simulate_cmd =
  let pokes_arg =
    Arg.(value & opt_all poke_conv [] & info [ "poke" ] ~doc:"Set a global before running")
  in
  let run source hw soft_div pokes =
    handle_errors (fun () ->
        let program = Handlers.compile_file ~soft_div source in
        let sim = Pred32_sim.Simulator.create hw program in
        List.iter
          (fun (sym, v) ->
            if Pred32_asm.Program.symbol_opt program sym = None then
              fail_with
                (Diag.makef Diag.Error Diag.Simulation ~code:"E0604"
                   "--poke names unknown symbol %s" sym);
            try Pred32_sim.Simulator.poke_symbol sim sym 0 v
            with Not_found ->
              fail_with
                (Diag.makef Diag.Error Diag.Simulation ~code:"E0604"
                   "--poke names unknown data symbol %s" sym))
          pokes;
        Format.printf "%a@." Pred32_sim.Simulator.pp_outcome (Pred32_sim.Simulator.run sim))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a MiniC program in the cycle-level simulator")
    Term.(const run $ source_arg $ hw_arg $ soft_div_arg $ pokes_arg)

let misra_cmd =
  let run source format =
    handle_errors (fun () ->
        let violations =
          Misra.Checker.check_user (Minic.Compile.frontend_with_runtime (Handlers.read_file source))
        in
        (match format with
        | Json_format ->
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ( "violations",
                      Json.List
                        (List.map
                           (fun v -> Diag.to_json (Misra.Audit.violation_to_diag v))
                           violations) );
                    ("count", Json.Int (List.length violations));
                  ]))
        | Text ->
          if violations = [] then Format.printf "no MISRA-C violations found@."
          else begin
            List.iter (fun v -> Format.printf "%a@." Misra.Checker.pp_violation v) violations;
            Format.printf "%d violation(s)@." (List.length violations)
          end);
        if violations <> [] then exit Diag.Exit.misra)
  in
  Cmd.v (Cmd.info "misra" ~doc:"Check a MiniC program against the studied MISRA-C rules")
    Term.(const run $ source_arg $ format_arg)

let audit_cmd =
  let source_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"PROGRAM.mc" ~doc:"MiniC source (or .s assembly) to audit")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the supergraph with findings overlaid as Graphviz dot ($(b,-) for stdout)")
  in
  let corpus_arg =
    Arg.(value & flag & info [ "corpus" ] ~doc:"Audit every corpus scenario instead of one program")
  in
  let grades_arg =
    Arg.(
      value & flag
      & info [ "grades" ]
          ~doc:"With $(b,--corpus): print one stable grade line per scenario (golden-file format)")
  in
  let seed_arg =
    Arg.(
      value & opt int64 20110318L
      & info [ "seed" ]
          ~doc:"With $(b,--corpus): selects each scenario's nominal coverage input set \
                (deterministic)")
  in
  let run source annot hw soft_div format dot corpus grades seed cache_dir no_cache config =
    handle_errors (fun () ->
        cache_setup ~cache_dir ~no_cache;
        if corpus then begin
          let rows = Wcet_experiments.Audit_corpus.run ~config ~seed () in
          (if grades then
             List.iter print_endline (Wcet_experiments.Audit_corpus.grades_lines rows)
           else
             match format with
             | Json_format ->
               print_endline (Json.to_string (Wcet_experiments.Audit_corpus.to_json rows))
             | Text -> Format.printf "%a@." Wcet_experiments.Audit_corpus.pp rows)
        end
        else
          match source with
          | None ->
            fail_with
              (Diag.make Diag.Error Diag.Frontend ~code:"E0101"
                 "audit needs a PROGRAM.mc argument (or --corpus)")
          | Some source ->
            let outcome, audit = Handlers.audit { Handlers.source; annot; hw; soft_div; config } in
            (match outcome with
            | Ok report -> write_dot dot (fun ppf -> Misra.Audit.emit_dot ppf report audit)
            | Error _ -> ());
            (match format with
            | Json_format -> print_endline (Json.to_string (Misra.Audit.to_json audit))
            | Text -> Format.printf "%a@?" Misra.Audit.pp audit);
            if audit.Misra.Audit.grade <> Misra.Audit.Analyzable then exit Diag.Exit.misra)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Audit a binary for the paper's analyzability challenges (tier-1/tier-2) and grade \
          its predictability")
    Term.(
      const run $ source_opt_arg $ annot_arg $ hw_arg $ soft_div_arg $ format_arg $ dot_arg
      $ corpus_arg $ grades_arg $ seed_arg $ cache_dir_arg $ no_cache_arg $ config_term)

let disasm_cmd =
  let run source soft_div =
    handle_errors (fun () ->
        let program = Handlers.compile_file ~soft_div source in
        List.iter
          (fun f ->
            Format.printf "%a@.@."
              (fun ppf () -> Pred32_asm.Program.pp_disassembly program ppf f)
              ())
          program.Pred32_asm.Program.functions)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble the compiled program")
    Term.(const run $ source_arg $ soft_div_arg)

let cfg_cmd =
  let run source soft_div =
    handle_errors (fun () ->
        let program = Handlers.compile_file ~soft_div source in
        let graph = Wcet_value.Resolve_iter.build_graceful program in
        let loops = Wcet_cfg.Loops.analyze graph in
        Wcet_cfg.Dot.emit ~loops Format.std_formatter graph)
  in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Dump the reconstructed control-flow supergraph as Graphviz dot")
    Term.(const run $ source_arg $ soft_div_arg)

(* aiT-style workflow aid: the graceful analyzer already localizes every
   piece of missing knowledge as a diagnostic with an annotation-template
   hint; suggest just prints those hints. *)
let suggest_cmd =
  let run source hw soft_div cache_dir no_cache =
    handle_errors (fun () ->
        cache_setup ~cache_dir ~no_cache;
        (* suggest takes no analysis flags: it runs the library defaults. *)
        let config = { Handlers.domain = Wcet_value.Analysis.Interval; verify = false } in
        match Handlers.analyze { Handlers.source; annot = None; hw; soft_div; config } with
        | Ok report -> (
          match report.Analyzer.verdict with
          | Analyzer.Complete ->
            Format.printf
              "analysis succeeds without annotations (bound %d cycles); nothing to suggest@."
              report.Analyzer.wcet
          | Analyzer.Partial ->
            Format.printf
              "# partial analysis (bound %d cycles is conditional); annotation templates:@."
              report.Analyzer.wcet;
            List.iter
              (fun d ->
                match d.Diag.hint with
                | Some hint -> Format.printf "%s   # [%s] %s@." hint d.Diag.code d.Diag.message
                | None -> ())
              report.Analyzer.diagnostics)
        | Error ds ->
          Format.printf "# analysis failed; diagnostics and templates:@.";
          List.iter
            (fun d ->
              Format.printf "# [%s] %s@." d.Diag.code d.Diag.message;
              match d.Diag.hint with
              | Some hint -> Format.printf "%s@." hint
              | None -> ())
            ds)
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:"Print annotation templates for whatever knowledge the analysis is missing")
    Term.(const run $ source_arg $ hw_arg $ soft_div_arg $ cache_dir_arg $ no_cache_arg)

let explain_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Block rows to print (text format)")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the supergraph with the worst-case path highlighted as Graphviz dot \
                ($(b,-) for stdout)")
  in
  let attribute_flag =
    Arg.(
      value & flag
      & info [ "attribute" ]
          ~doc:
            "Attribute the slack: simulate the program and decompose $(b,bound − observed \
             cycles) into typed pessimism sources (cache, value, pipeline, flow, residual); \
             the per-source totals sum exactly to the slack")
  in
  let pokes_arg =
    Arg.(
      value & opt_all poke_conv []
      & info [ "poke" ]
          ~doc:"With $(b,--attribute): set a global before the observed simulation run")
  in
  let run source annot hw soft_div top dot format attribute pokes cache_dir no_cache config =
    handle_errors (fun () ->
        cache_setup ~cache_dir ~no_cache;
        match Handlers.analyze { Handlers.source; annot; hw; soft_div; config } with
        | Ok report when attribute -> (
          match
            Attribution.of_report ~pokes:(List.map (fun (sym, v) -> (sym, 0, v)) pokes) report
          with
          | Ok a -> (
            match format with
            | Json_format -> print_endline (Json.to_string (Attribution.to_json a))
            | Text -> Format.printf "%a@." (Attribution.pp ~top) a)
          | Error d -> fail_with d)
        | Ok report ->
          let ex = Explain.of_report report in
          (match format with
          | Json_format -> print_endline (Json.to_string (Explain.to_json ex))
          | Text -> Format.printf "%a@." (Explain.pp ~top) ex);
          write_dot dot (fun ppf -> Explain.emit_dot ppf report ex)
        | Error ds ->
          print_failure format ds;
          exit Diag.Exit.analysis)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Decode the worst-case path: rank basic blocks and loops by their cycle contribution \
          to the WCET bound; with $(b,--attribute), decompose the slack over the observed run \
          into typed pessimism sources")
    Term.(
      const run $ source_arg $ annot_arg $ hw_arg $ soft_div_arg $ top_arg $ dot_arg $ format_arg
      $ attribute_flag $ pokes_arg $ cache_dir_arg $ no_cache_arg $ config_term)

let check_cmd =
  let seed_arg =
    Arg.(value & opt int64 20110318L & info [ "seed" ] ~doc:"PCG32 seed (deterministic)")
  in
  let random_arg =
    Arg.(
      value & opt int 8
      & info [ "random" ] ~doc:"Random input sets per corpus scenario (soundness check)")
  in
  let faults_arg =
    Arg.(
      value & opt int 240
      & info [ "faults" ] ~doc:"Fault-injection trial count (0 disables the campaign)")
  in
  let store_faults_arg =
    Arg.(
      value & opt int 48
      & info [ "store-faults" ]
          ~doc:"Cache-store corruption trial count (0 disables the store campaign)")
  in
  let daemon_faults_arg =
    Arg.(
      value & opt int 200
      & info [ "daemon-faults" ]
          ~doc:"Daemon wire-level fault-injection trial count (0 disables the daemon campaign)")
  in
  let run seed random faults store_faults daemon_faults format trace cache_dir no_cache domain
      verify ledger =
    handle_errors (fun () ->
        obs_setup ~profile:false ~trace;
        cache_setup ~cache_dir ~no_cache;
        let stats =
          Check.run ~seed ~domain ~verify ~random_per_scenario:random ?ledger ()
        in
        let campaign =
          let minic = faults / 2 in
          let annots = faults / 4 in
          let asm = faults / 8 in
          let binary = faults - minic - annots - asm in
          Faultinject.run ~seed ~minic ~annots ~asm ~binary ~memmap:(faults > 0) ()
        in
        let store_campaign =
          if store_faults > 0 then
            Some (Faultinject.store_campaign ~seed ~trials:store_faults ())
          else None
        in
        let daemon_campaign =
          if daemon_faults > 0 then Some (Faultinject.run_daemon ~seed ~trials:daemon_faults ())
          else None
        in
        let ok_opt = function Some c -> Faultinject.ok c | None -> true in
        let passed =
          Check.ok stats && Faultinject.ok campaign && ok_opt store_campaign
          && ok_opt daemon_campaign
        in
        (match format with
        | Json_format ->
          print_endline
            (Json.to_string
               (Json.Obj
                  ([
                     ("soundness", Check.to_json stats);
                     ("faults", Faultinject.to_json campaign);
                   ]
                  @ (match store_campaign with
                    | Some c -> [ ("store_faults", Faultinject.to_json c) ]
                    | None -> [])
                  @ (match daemon_campaign with
                    | Some c -> [ ("daemon_faults", Faultinject.to_json c) ]
                    | None -> [])
                  @ [ ("ok", Json.Bool passed) ])))
        | Text ->
          Format.printf "%a@." Check.pp_stats stats;
          Format.printf "%a@." Faultinject.pp_campaign campaign;
          (match store_campaign with
          | Some c -> Format.printf "store %a@." Faultinject.pp_campaign c
          | None -> ());
          match daemon_campaign with
          | Some c -> Format.printf "daemon %a@." Faultinject.pp_campaign c
          | None -> ());
        obs_finish ~profile:false ~trace;
        if not passed then exit Diag.Exit.check_failed)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Cross-validate analyzer soundness over the corpus (simulated cycles vs bounds) and \
          run the fault-injection robustness campaigns (toolchain inputs, on-disk cache store, \
          and the analysis daemon's wire protocol). With $(b,--verify), every complete \
          scenario's portfolio bound is checked against its own IPET run (it may never \
          exceed it, E0303) and the per-backend bounds join the $(b,--ledger) metrics")
    Term.(const run $ seed_arg $ random_arg $ faults_arg $ store_faults_arg $ daemon_faults_arg
          $ format_arg $ trace_arg $ cache_dir_arg $ no_cache_arg $ domain_arg $ verify_arg
          $ ledger_arg)

(* --- the analysis daemon ------------------------------------------------ *)

let socket_arg =
  Arg.(
    value & opt string "wcet.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon")

let serve_cmd =
  let watch_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "watch" ] ~docv:"DIR"
          ~doc:
            "Watch DIR for changed $(b,.mc)/$(b,.s) sources, re-analyze on change and stream \
             delta events (bound drift, changed functions, new/discharged findings) to \
             clients subscribed with the $(b,subscribe) method")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Request worker threads")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue capacity; excess requests are refused with D0704 + retry hint")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline (requests may override with params.timeout_ms); an \
             expired analysis is answered with a partial-verdict reply (D0703)")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Proto.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Per-frame size ceiling (oversized → D0705)")
  in
  let watch_period_arg =
    Arg.(
      value & opt float 0.5
      & info [ "watch-period" ] ~docv:"SECONDS" ~doc:"Watch-mode scan period")
  in
  let debounce_arg =
    Arg.(
      value & opt float 0.5
      & info [ "debounce" ] ~docv:"SECONDS"
          ~doc:"Watch-mode debounce: a change is analyzed once its content is stable this long")
  in
  let log_arg =
    Arg.(
      value & flag
      & info [ "log" ]
          ~doc:
            "Write one structured NDJSON log line per request to stderr (correlation id, \
             method, outcome, queue and total latency)")
  in
  let run socket watch workers queue timeout_ms max_frame watch_period debounce profile trace
      cache_dir no_cache log ledger =
    handle_errors (fun () ->
        obs_setup ~profile ~trace;
        cache_setup ~cache_dir ~no_cache;
        (* NDJSON to stderr; the sink is shared by worker and connection
           threads, so serialize the writes. *)
        let log_mutex = Mutex.create () in
        let log_sink j =
          Mutex.lock log_mutex;
          (try
             prerr_endline (Json.to_string j);
             flush stderr
           with _ -> ());
          Mutex.unlock log_mutex
        in
        let cfg =
          {
            (Server.default_config ~socket_path:socket) with
            Server.workers;
            Server.queue_capacity = queue;
            Server.max_frame;
            Server.default_timeout_ms = timeout_ms;
            Server.classify = Faultinject.classify_exn;
            Server.watch = Option.map (fun d -> (d, watch_period, debounce)) watch;
            Server.log = (if log then log_sink else fun _ -> ());
            Server.ledger;
          }
        in
        match Server.create cfg with
        | Error msg -> fail_with (Diag.make Diag.Error Diag.Serve ~code:"D0708" msg)
        | Ok server ->
          (* SIGTERM/SIGINT start the drain; run returns once in-flight
             work is answered, then the normal path flushes trace sinks. *)
          let stop _ = Server.request_stop server in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Format.eprintf "wcet_tool serve: listening on %s (%d workers, queue %d)@." socket
            workers queue;
          Server.run server;
          Format.eprintf "wcet_tool serve: drained@.";
          obs_finish ~profile ~trace)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resilient analysis daemon: concurrent analyze/explain/audit/metrics/cache \
          requests over a Unix-domain socket, with per-request deadlines, backpressure, fault \
          isolation (D07xx replies) and graceful drain on SIGTERM")
    Term.(
      const run $ socket_arg $ watch_arg $ workers_arg $ queue_arg $ timeout_arg $ max_frame_arg
      $ watch_period_arg $ debounce_arg $ profile_flag $ trace_arg $ cache_dir_arg $ no_cache_arg
      $ log_arg $ ledger_arg)

let call_cmd =
  let meth_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"METHOD"
          ~doc:"Method to call (analyze, explain, audit, metrics, cache, codes, ping, ...)")
  in
  let source_pos_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PROGRAM" ~doc:"Source path for the analysis methods")
  in
  let hw_str_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "hw" ] ~doc:"Hardware profile name passed to the daemon")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-request deadline (server-side)")
  in
  let raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"BYTES"
          ~doc:
            "Send BYTES verbatim (a newline is appended) and print the first reply; for wire \
             protocol testing")
  in
  let retry_arg =
    Arg.(
      value & flag
      & info [ "retry" ]
          ~doc:"Retry overloaded (D0704) replies with jittered exponential backoff")
  in
  let run socket meth source annot_file hw_str soft_div timeout_ms raw retry =
    handle_errors (fun () ->
        let c =
          match Client.connect socket with
          | Ok c -> c
          | Error msg -> fail_with (Diag.make Diag.Error Diag.Serve ~code:"D0708" msg)
        in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let reply =
              match raw with
              | Some bytes -> (
                match Client.send_raw c (bytes ^ "\n") with
                | Error msg -> Error msg
                | Ok () -> Client.read_reply c)
              | None -> (
                match meth with
                | None ->
                  fail_with
                    (Diag.make Diag.Error Diag.Serve ~code:"D0702"
                       "a METHOD argument (or --raw) is required")
                | Some meth ->
                  let params =
                    List.concat
                      [
                        (match source with
                        | Some s -> [ ("source", Json.String s) ]
                        | None -> []);
                        (match annot_file with
                        | Some a -> [ ("annot", Json.String a) ]
                        | None -> []);
                        (match hw_str with
                        | Some h -> [ ("hw", Json.String h) ]
                        | None -> []);
                        (if soft_div then [ ("soft_div", Json.Bool true) ] else []);
                      ]
                  in
                  let id = Json.Int 1 in
                  if retry then
                    Client.request_with_retry
                      ~rng:(Wcet_util.Pcg.create ~seed:(Wcet_util.Mono_clock.now_ns ()) ())
                      ?timeout_ms c ~id ~meth (Json.Obj params)
                  else Client.request ?timeout_ms c ~id ~meth (Json.Obj params))
            in
            match reply with
            | Error msg -> fail_with (Diag.make Diag.Error Diag.Serve ~code:"D0708" msg)
            | Ok r ->
              if r.Proto.ok then begin
                let res = Option.value ~default:Json.Null r.Proto.result in
                print_endline (Json.to_string res);
                match Json.member "verdict" res with
                | Some (Json.String "partial") -> exit Diag.Exit.partial
                | Some (Json.String "failed") -> exit Diag.Exit.analysis
                | _ -> ()
              end
              else begin
                print_endline (Json.to_string (Option.value ~default:Json.Null r.Proto.error));
                exit Diag.Exit.usage
              end))
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one request to a running daemon and print the JSON reply (exit 0 complete, 4 \
          partial, 2 failed analysis, 1 error reply)")
    Term.(
      const run $ socket_arg $ meth_arg $ source_pos_arg $ annot_arg $ hw_str_arg $ soft_div_arg
      $ timeout_arg $ raw_arg $ retry_arg)

(* Cache maintenance. These open the store directly (no analysis runs), so
   an unusable directory is a hard usage error here, unlike during analyze
   where it degrades to an uncached run. *)
let open_cache_store cache_dir =
  let dir = resolve_cache_dir cache_dir in
  match Store.open_store dir with
  | Ok s -> s
  | Error msg ->
    fail_with
      (Diag.makef Diag.Error Diag.Store ~code:"W0612" "cannot open cache directory %s: %s" dir
         msg)

let cache_cmd =
  let stats_cmd =
    let run cache_dir format =
      handle_errors (fun () ->
          let s = open_cache_store cache_dir in
          match format with
          | Json_format -> print_endline (Json.to_string (Json.Obj (Handlers.store_stats_fields s)))
          | Text ->
            let st = Store.stats s in
            Format.printf "cache %s: %d entr%s, %d bytes@." (Store.root s) st.Store.entries
              (if st.Store.entries = 1 then "y" else "ies")
              st.Store.bytes;
            List.iter (fun (k, n) -> Format.printf "  %-10s %d@." k n) st.Store.by_kind)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print entry counts and on-disk size of the analysis cache")
      Term.(const run $ cache_dir_arg $ format_arg)
  in
  let clear_cmd =
    let run cache_dir =
      handle_errors (fun () ->
          let s = open_cache_store cache_dir in
          let n = Store.clear s in
          Format.printf "removed %d entr%s from %s@." n
            (if n = 1 then "y" else "ies")
            (Store.root s))
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every entry from the analysis cache")
      Term.(const run $ cache_dir_arg)
  in
  let verify_cmd =
    let run cache_dir format =
      handle_errors (fun () ->
          let s = open_cache_store cache_dir in
          let r = Store.verify ~expect_version:(Report_cache.version ()) s in
          (match format with
          | Json_format ->
            print_endline
              (Json.to_string
                 (Json.Obj
                    [
                      ("root", Json.String (Store.root s));
                      ("checked", Json.Int r.Store.checked);
                      ("valid", Json.Int r.Store.valid);
                      ("corrupt", Json.List (List.map (fun k -> Json.String k) r.Store.corrupt));
                      ( "stale",
                        Json.List (List.map (fun k -> Json.String k) r.Store.mismatched) );
                    ]))
          | Text ->
            Format.printf "checked %d entr%s: %d valid, %d corrupt, %d stale@." r.Store.checked
              (if r.Store.checked = 1 then "y" else "ies")
              r.Store.valid
              (List.length r.Store.corrupt)
              (List.length r.Store.mismatched);
            List.iter (fun k -> Format.printf "  corrupt: %s@." k) r.Store.corrupt;
            List.iter (fun k -> Format.printf "  stale:   %s@." k) r.Store.mismatched);
          if r.Store.corrupt <> [] then exit Diag.Exit.usage)
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-read every cache entry end to end, checking envelopes, checksums and the tool \
            version (exit 1 if corrupt entries are found)")
      Term.(const run $ cache_dir_arg $ format_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clean the persistent analysis result cache ($(b,_wcet_cache) by default; \
          see $(b,--cache-dir)/$(b,WCET_CACHE_DIR))")
    [ stats_cmd; clear_cmd; verify_cmd ]

let codes_cmd =
  let run () =
    List.iter (fun (code, descr) -> Format.printf "%s  %s@." code descr) Diag.all_codes
  in
  Cmd.v
    (Cmd.info "codes" ~doc:"List every stable diagnostic code the tool can emit")
    Term.(const run $ const ())

(* docs/METRICS.md is generated from this table; CI diffs the committed
   file against a fresh render so it can never drift from the registry. *)
let metrics_markdown () =
  let b = Buffer.create 8192 in
  Buffer.add_string b "# Metrics\n\n";
  Buffer.add_string b
    "<!-- Generated by `wcet_tool metrics --markdown`. Do not edit by hand. -->\n\n";
  Buffer.add_string b
    "Every metric the observability layer registers, one row per labeled\n\
     series. Values populate while observability is on (`--profile`,\n\
     `--trace`, or the daemon); `wcet_tool metrics --prometheus` renders\n\
     the same registry in Prometheus text exposition format, and the\n\
     daemon serves it via the `metrics` method with\n\
     `params.format = \"prometheus\"`.\n\n";
  Buffer.add_string b "| Name | Type | Labels | Meaning |\n";
  Buffer.add_string b "|------|------|--------|---------|\n";
  List.iter
    (fun (full, help, v) ->
      let base, labels = Metrics.split_name full in
      let labels_s =
        match labels with
        | [] -> "—"
        | l -> String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "`%s=%s`" k v) l)
      in
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s | %s |\n" base (Metrics.kind_name v) labels_s help))
    (Metrics.snapshot ());
  Buffer.contents b

let metrics_cmd =
  let prometheus_flag =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Render the registry in Prometheus text exposition format (version 0.0.4)")
  in
  let markdown_flag =
    Arg.(
      value & flag
      & info [ "markdown" ]
          ~doc:"Render the registry as the generated $(b,docs/METRICS.md) reference table")
  in
  let run prometheus markdown =
    if prometheus then print_string (Metrics.to_prometheus ())
    else if markdown then print_string (metrics_markdown ())
    else List.iter (fun (name, help) -> Format.printf "%s  %s@." name help) (Metrics.all ())
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "List every metric the observability layer registers, with a one-line description \
          (populate them with analyze --profile/--trace and --format json); $(b,--prometheus) \
          and $(b,--markdown) render the registry for scraping and documentation")
    Term.(const run $ prometheus_flag $ markdown_flag)

(* --- the bound-drift ledger --------------------------------------------- *)

let ledger_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"LEDGER.ndjson" ~doc:"Bound-drift ledger file (NDJSON)")

let load_ledger path =
  match Ledger.load ~path with
  | Error msg ->
    fail_with (Diag.makef Diag.Error Diag.Obs ~code:"E0803" "bound ledger %s: %s" path msg)
  | Ok (entries, skipped) ->
    if skipped > 0 then
      print_diag
        (Diag.makef Diag.Warning Diag.Obs ~code:"W0802"
           "bound ledger %s: %d unreadable entr%s skipped" path skipped
           (if skipped = 1 then "y" else "ies"));
    if entries = [] then
      fail_with
        (Diag.makef Diag.Error Diag.Obs ~code:"E0803" "bound ledger %s holds no snapshots" path);
    entries

let ledger_cmd =
  let report_cmd =
    let run path format =
      handle_errors (fun () ->
          let entries = load_ledger path in
          let groups = Ledger.group entries in
          match format with
          | Json_format ->
            print_endline
              (Json.to_string
                 (Json.Obj
                    [
                      ( "programs",
                        Json.List
                          (List.map
                             (fun (program, es) ->
                               let first = List.hd es in
                               let last = List.nth es (List.length es - 1) in
                               Json.Obj
                                 [
                                   ("program", Json.String program);
                                   ("snapshots", Json.Int (List.length es));
                                   ("first", Ledger.entry_to_json first);
                                   ("last", Ledger.entry_to_json last);
                                   ( "bound_delta",
                                     match (first.Ledger.bound, last.Ledger.bound) with
                                     | Some a, Some b -> Json.Int (b - a)
                                     | _ -> Json.Null );
                                 ])
                             groups) );
                    ]))
          | Text ->
            List.iter
              (fun (program, es) ->
                let first = List.hd es in
                let last = List.nth es (List.length es - 1) in
                let pp_bound ppf = function
                  | Some b -> Format.fprintf ppf "%d" b
                  | None -> Format.pp_print_string ppf "-"
                in
                Format.printf "%-40s %3d snapshot%s  bound %a -> %a  (%s, %s)@." program
                  (List.length es)
                  (if List.length es = 1 then " " else "s")
                  pp_bound first.Ledger.bound pp_bound last.Ledger.bound last.Ledger.verdict
                  last.Ledger.date)
              groups)
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:"Summarize a bound-drift ledger: per-program snapshot counts and bound trajectory")
      Term.(const run $ ledger_file_arg $ format_arg)
  in
  let diff_cmd =
    let from_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "from" ] ~docv:"SEL"
            ~doc:
              "Baseline snapshot selector: a prefix of a commit, digest or date (default: the \
               second-to-last snapshot per program)")
    in
    let to_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "to" ] ~docv:"SEL"
            ~doc:"Comparison snapshot selector (default: the last snapshot per program)")
    in
    let run path sel_from sel_to format =
      handle_errors (fun () ->
          let entries = load_ledger path in
          let drifts = Ledger.diff ?sel_from ?sel_to entries in
          if drifts = [] then
            fail_with
              (Diag.makef Diag.Error Diag.Obs ~code:"E0803"
                 "bound ledger %s: no program has two snapshots matching the selectors" path);
          let regressions = List.filter Ledger.regressed drifts in
          (match format with
          | Json_format ->
            print_endline
              (Json.to_string
                 (Json.Obj
                    [
                      ("drifts", Json.List (List.map Ledger.drift_to_json drifts));
                      ("regressions", Json.Int (List.length regressions));
                      ("ok", Json.Bool (regressions = []));
                    ]))
          | Text ->
            List.iter
              (fun (d : Ledger.drift) ->
                Format.printf "%-40s bound %a -> %a  delta %a  %s@." d.Ledger.d_program
                  (fun ppf -> function
                    | Some b -> Format.fprintf ppf "%d" b
                    | None -> Format.pp_print_string ppf "-")
                  d.Ledger.d_from.Ledger.bound
                  (fun ppf -> function
                    | Some b -> Format.fprintf ppf "%d" b
                    | None -> Format.pp_print_string ppf "-")
                  d.Ledger.d_to.Ledger.bound
                  (fun ppf -> function
                    | Some delta -> Format.fprintf ppf "%+d" delta
                    | None -> Format.pp_print_string ppf "-")
                  d.Ledger.d_bound_delta
                  (if Ledger.regressed d then
                     "REGRESSED: " ^ String.concat "; " d.Ledger.d_regressions
                   else "ok");
                ())
              drifts);
          if regressions <> [] then
            fail_with
              (Diag.makef Diag.Error Diag.Check ~code:"E0806"
                 "bound or precision regression in %d program(s) between snapshots"
                 (List.length regressions)))
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two ledger snapshots per program and flag regressions (bound increase, \
            verdict degrade, precision-counter increase); exit 5 on regression — the CI \
            bound-drift gate")
      Term.(const run $ ledger_file_arg $ from_arg $ to_arg $ format_arg)
  in
  Cmd.group
    (Cmd.info "ledger"
       ~doc:
         "Inspect a bound-drift ledger (append-only NDJSON written by analyze/check/serve \
          $(b,--ledger)): per-program history and machine-readable drift verdicts")
    [ report_cmd; diff_cmd ]

let () =
  let info =
    Cmd.info "wcet_tool" ~doc:"Static WCET analysis for PRED32 MiniC programs"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "A reproduction of the analyzer studied in 'Software Structure and WCET \
             Predictability' (PPES 2011): MiniC compiler, cycle-level simulator, and a \
             static WCET analyzer with value, cache, pipeline and IPET path analyses.";
          `S "EXIT STATUS";
          `P "0: success; 1: usage or input problem; 2: analysis failed; 3: MISRA \
              violations; 4: partial WCET (bound conditional on analysis holes); 5: check \
              failed; 70: internal error.";
        ]
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd; explain_cmd; simulate_cmd; misra_cmd; audit_cmd; disasm_cmd;
            suggest_cmd; cfg_cmd; check_cmd; serve_cmd; call_cmd; cache_cmd; ledger_cmd;
            metrics_cmd; codes_cmd;
          ]))
