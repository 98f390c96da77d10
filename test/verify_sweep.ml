(* The analyzer's [verify] mode over the whole corpus, shared by three
   tests that each assert one of its cross-checks: summary vs whole-program
   states (E0204, test_callgraph), octagon vs interval (E0503,
   test_octagon) and the path witness with the portfolio never worse than
   IPET (E0303, test_path). Every scenario is analyzed once plain and once
   verified; verifying must pass and change nothing a user observes. *)

module Compile = Minic.Compile
module Analyzer = Wcet_core.Analyzer
module Report_cache = Wcet_core.Report_cache
module Analysis = Wcet_value.Analysis
module Cache_analysis = Wcet_cache.Cache_analysis
module Corpus = Wcet_corpus.Corpus
module Diag = Wcet_diag.Diag
module Metrics = Wcet_obs.Metrics
module Obs = Wcet_obs.Obs

let value_transfers () =
  match Metrics.find "fixpoint_transfers{analysis=value}" with
  | Some (Metrics.Counter_value n) -> n
  | _ -> 0

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

(* What a user observes of one analysis: bound, verdict, transfer counts,
   path backends and diagnostic codes — or the codes of a fatal failure. *)
let observable = function
  | Error ds -> Error (codes ds)
  | Ok (r : Analyzer.report) ->
    Ok
      ( (r.Analyzer.wcet, r.Analyzer.bcet, r.Analyzer.verdict = Analyzer.Complete),
        ( r.Analyzer.value.Analysis.transfers,
          r.Analyzer.cache.Cache_analysis.transfers,
          Option.map (fun e -> e.Analyzer.ei_transfers) r.Analyzer.escalation ),
        List.map
          (fun b -> (b.Analyzer.br_name, b.Analyzer.br_bound, b.Analyzer.br_winner))
          r.Analyzer.backend_runs,
        codes r.Analyzer.diagnostics )

(* One verified scenario that analyzed successfully. [reference_ran] says
   the whole-program reference solve ran beside the summary engine, i.e.
   the E0204 state comparison took place. *)
type outcome = { where : string; report : Analyzer.report; reference_ran : bool }

let check_one ~where ~hw ~annot ~domain program =
  let run verify =
    match Analyzer.analyze ~hw ~annot ~domain ~verify program with
    | r -> Ok r
    | exception Analyzer.Analysis_failed ds -> Error ds
  in
  let plain = run false in
  let t0 = value_transfers () in
  let verified = run true in
  if observable plain <> observable verified then
    Alcotest.failf "%s: verify changed the result%s" where
      (match verified with
      | Error ds -> " (failed with " ^ String.concat "," (codes ds) ^ ")"
      | Ok _ -> "");
  match verified with
  | Error _ -> None
  | Ok r ->
    let reference_ran = value_transfers () - t0 > r.Analyzer.value.Analysis.transfers in
    Some { where; report = r; reference_ran }

(* Both variants of every entry, with automatic and assisted annotations,
   under [domain]; [f] sees every scenario that analyzed. Runs uncached so
   the summary engine actually solves. *)
let sweep ~domain f =
  Report_cache.disable ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      List.iter
        (fun (e : Corpus.entry) ->
          List.iter
            (fun (variant, (s : Corpus.scenario)) ->
              let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
              List.iter
                (fun (mode, annot) ->
                  let where =
                    Printf.sprintf "%s %s/%s %s" (Analysis.domain_name domain) e.Corpus.id
                      variant mode
                  in
                  Option.iter f (check_one ~where ~hw:s.Corpus.hw ~annot ~domain program))
                [ ("automatic", Wcet_annot.Annot.empty); ("assisted", s.Corpus.annotations program) ])
            [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
        Corpus.all)
