(* Portfolio path-analysis tests: backend agreement as a soundness oracle,
   the injected-bug detector, the mode-guard gate that admits the model
   checker and its strict win on mode-guarded programs, the --verify
   oracle that catches a gate miss, csolve's place as an oracle that never
   wins, and the intractability escape hatches. *)

module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Hw_config = Pred32_hw.Hw_config
module Analyzer = Wcet_core.Analyzer
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Path_analysis = Wcet_path.Path_analysis
module Portfolio = Wcet_path.Portfolio
module Ipet = Wcet_ipet.Ipet
module Corpus = Wcet_corpus.Corpus
module Block_timing = Wcet_pipeline.Block_timing

let report ?(annot = Annot.empty) source = Analyzer.analyze ~annot (Compile.compile source)

let observed ?(pokes = []) program =
  let sim = Sim.create Hw_config.default program in
  List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
  Sim.halted_cycles (Sim.run sim)

(* Rebuild the fact-free path spec the analyzer fed its backends. *)
let spec_of_report (r : Analyzer.report) =
  ( {
      Path_analysis.value = r.Analyzer.value;
      times = r.Analyzer.timing.Block_timing.wcet;
      loop_bounds = r.Analyzer.effective_bounds;
      facts = [];
    },
    r.Analyzer.loops )

let loopy =
  "int a[8]; int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + a[i]; \
   } return s; }"

let branchy = "int g; int main() { int x; if (g) { x = g * 3; } else { x = 7; } return x; }"

let nested =
  "int main() { int i; int j; int s; s = 0; for (i = 0; i < 4; i = i + 1) { for (j = 0; j < \
   6; j = j + 1) { s = s + i + j; } } return s; }"

(* Two heavyweight handlers behind mutually exclusive mode tests: the model
   checker proves at most one runs per activation, IPET and the structural
   solver cannot. *)
let modal =
  "int mode; int buf[8]; \
   int rd() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + buf[i]; } return s; } \
   int wr() { int i; for (i = 0; i < 8; i = i + 1) { buf[i] = i; } return 8; } \
   int main() { int r; r = 0; if (mode == 0) { r = r + rd(); } if (mode == 1) { r = r + wr(); } \
   return r; }"

(* The same exclusion through a derived local: [m] is [mode + 1], so the
   branches read a stack slot, not the never-written global, and no mode
   guard shows. The model checker still prunes through the slot. *)
let derived_modal =
  "int mode; int buf[8]; \
   int rd() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + buf[i]; } return s; } \
   int wr() { int i; for (i = 0; i < 8; i = i + 1) { buf[i] = i; } return 8; } \
   int main() { int m; int r; m = mode + 1; r = 0; if (m == 1) { r = r + rd(); } \
   if (m == 2) { r = r + wr(); } return r; }"

let gated (r : Analyzer.report) = r.Analyzer.mc_gate = Analyzer.Mc_gated

(* A backend's bound on the spec, solved directly. *)
let solve_bound (module B : Path_analysis.BACKEND) (spec, loops) =
  match B.solve spec loops with
  | Ok sol -> sol.Path_analysis.wcet
  | Error e -> Alcotest.failf "%s failed: %s" B.name e.Path_analysis.err_code

let bound_of name (r : Analyzer.report) =
  match List.find_opt (fun b -> b.Analyzer.br_name = name) r.Analyzer.backend_runs with
  | Some { Analyzer.br_bound = Some b; _ } -> b
  | _ -> Alcotest.failf "backend %s has no bound" name

(* --- agreement on straight-line and loop programs --- *)

let test_backends_agree () =
  List.iter
    (fun source ->
      let r = report source in
      (* No mode guard: the gate keeps IPET alone, so one run is recorded
         and none of it is mc. *)
      Alcotest.(check bool) "mc gated: no mode guard" true (gated r);
      Alcotest.(check (list string)) "one run recorded, no mc" [ "ipet" ]
        (List.map (fun b -> b.Analyzer.br_name) r.Analyzer.backend_runs);
      let ipet = bound_of "ipet" r in
      let mc = solve_bound (module Wcet_path.Mc) (spec_of_report r) in
      let csolve = solve_bound (module Wcet_path.Csolve) (spec_of_report r) in
      (* Fact-free reducible programs: the structural solve is exactly the
         ILP optimum, and path pruning can only tighten. *)
      Alcotest.(check int) "csolve = ipet" ipet csolve;
      Alcotest.(check bool) (Printf.sprintf "mc <= csolve (%d <= %d)" mc csolve) true
        (mc <= csolve);
      (* The gate lost nothing: the report carries the tightest bound. *)
      Alcotest.(check int) "report carries the tightest bound" (min ipet mc) r.Analyzer.wcet;
      let winner =
        List.filter (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs
      in
      Alcotest.(check int) "exactly one winner" 1 (List.length winner);
      (match Path_analysis.check_identity r.Analyzer.solution
               r.Analyzer.timing.Block_timing.wcet
       with
      | Ok () -> ()
      | Error d -> Alcotest.failf "count/time identity off by %d" d);
      Alcotest.(check bool) "bound dominates simulation" true
        (observed r.Analyzer.program <= r.Analyzer.wcet))
    [ loopy; branchy; nested ]

(* --- every backend's solution satisfies the count/time identity --- *)

let test_identity_per_backend () =
  let r = report nested in
  let spec, loops = spec_of_report r in
  List.iter
    (fun ((module B : Path_analysis.BACKEND) as _b) ->
      match B.solve spec loops with
      | Error e -> Alcotest.failf "%s failed: %s %s" B.name e.Path_analysis.err_code e.err_detail
      | Ok sol -> (
        match Path_analysis.check_identity sol spec.Path_analysis.times with
        | Ok () -> ()
        | Error d -> Alcotest.failf "%s identity off by %d" B.name d))
    [ (module Ipet : Path_analysis.BACKEND);
      (module Wcet_path.Csolve);
      (module Wcet_path.Mc) ]

(* --- the soundness oracle: an injected off-by-one bug is caught --- *)

module Buggy : Path_analysis.BACKEND = struct
  let name = "buggy"
  let path_sensitive = false
  let fact_blind = true
  let exact_witness = false

  (* The classic IPET implementation bug: loop bounds applied off by one. *)
  let solve (spec : Path_analysis.spec) loops =
    let spec =
      {
        spec with
        Path_analysis.loop_bounds =
          List.map (fun (l, b) -> (l, max 0 (b - 1))) spec.Path_analysis.loop_bounds;
        facts = [];
      }
    in
    Wcet_path.Csolve.solve spec loops
end

let test_injected_bug_detected () =
  let r = report loopy in
  let spec, loops = spec_of_report r in
  let sound =
    Portfolio.run
      ~backends:[ (module Ipet); (module Wcet_path.Csolve); (module Wcet_path.Mc) ]
      spec loops
  in
  Alcotest.(check (list string)) "sound backends do not disagree" [] sound.Portfolio.p_disagreements;
  let buggy = Portfolio.run ~backends:[ (module Ipet); (module Buggy) ] spec loops in
  Alcotest.(check bool) "off-by-one backend triggers the disagreement fatal" true
    (buggy.Portfolio.p_disagreements <> []);
  (* The same evidence ends the analyzer run with E0303: replicate its
     check so the wiring cannot silently rot. *)
  (match buggy.Portfolio.p_disagreements with
  | [] -> ()
  | ds ->
    let d = Diag.make Diag.Error Diag.Path ~code:"E0303" (String.concat "; " ds) in
    Alcotest.(check string) "registered code" "E0303" d.Diag.code;
    Alcotest.(check bool) "code is described" true (Diag.describe "E0303" <> None))

(* --- mode-guarded programs: the model checker is strictly tighter --- *)

let test_mc_strictly_tighter_on_modes () =
  let r = report modal in
  (match r.Analyzer.mc_gate with
  | Analyzer.Mc_raced [ { Wcet_value.Modes.symbol = "mode"; sites } ] ->
    Alcotest.(check int) "two guard sites" 2 (List.length sites)
  | _ -> Alcotest.fail "the mode guard must admit the model checker");
  Alcotest.(check (list string)) "mc races" [ "ipet"; "mc" ]
    (List.map (fun b -> b.Analyzer.br_name) r.Analyzer.backend_runs);
  let ipet = bound_of "ipet" r in
  Alcotest.(check bool)
    (Printf.sprintf "portfolio < ipet (%d < %d)" r.Analyzer.wcet ipet)
    true (r.Analyzer.wcet < ipet);
  let winner = List.find (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs in
  Alcotest.(check string) "the model checker wins" "mc" winner.Analyzer.br_name;
  List.iter
    (fun mode ->
      Alcotest.(check bool) "tighter bound still sound" true
        (observed ~pokes:[ ("mode", 0, mode) ] r.Analyzer.program <= r.Analyzer.wcet))
    [ 0; 1; 2 ]

(* --- irreducible control flow: degrade, never lie --- *)

let goto_cycle =
  "int flag; int acc; int main() { int i; i = 0; acc = 0; \
   if (flag) { goto inside; } top: acc = acc + 1; inside: acc = acc + 2; i = i + 1; \
   if (i < 50) { goto top; } return acc; }"

(* The same cycle with [flag] also tested after it: a mode guard at two
   sites, so the model checker races. *)
let goto_cycle_guarded =
  "int flag; int acc; int main() { int i; i = 0; acc = 0; \
   if (flag) { goto inside; } top: acc = acc + 1; inside: acc = acc + 2; i = i + 1; \
   if (i < 50) { goto top; } if (flag) { acc = acc + 3; } return acc; }"

let test_irreducible_portfolio_degrades () =
  (* The model checker cannot analyse an irreducible region; the portfolio
     continues on IPET with a W0305 warning instead of failing. *)
  let r = report goto_cycle_guarded in
  Alcotest.(check bool) "the guard admits mc" false (gated r);
  let w0305 = List.filter (fun d -> d.Diag.code = "W0305") r.Analyzer.diagnostics in
  Alcotest.(check int) "mc excluded with W0305" 1 (List.length w0305);
  let winner = List.find (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs in
  Alcotest.(check string) "ipet carries the bound" "ipet" winner.Analyzer.br_name;
  (* Unguarded, mc never starts, so there is nothing to degrade. *)
  let r = report goto_cycle in
  Alcotest.(check bool) "unguarded: mc gated" true (gated r);
  Alcotest.(check bool) "unguarded: no W0305" false
    (List.exists (fun d -> d.Diag.code = "W0305") r.Analyzer.diagnostics)

(* --- the gate misses a derived mode; --verify says so --- *)

let test_gate_miss_reported () =
  let r = report derived_modal in
  Alcotest.(check bool) "no mode guard: mc gated" true (gated r);
  let mc = solve_bound (module Wcet_path.Mc) (spec_of_report r) in
  Alcotest.(check bool)
    (Printf.sprintf "mc would have tightened (%d < %d)" mc r.Analyzer.wcet)
    true (mc < r.Analyzer.wcet);
  let w0306 (r : Analyzer.report) =
    List.filter (fun d -> d.Diag.code = "W0306") r.Analyzer.diagnostics
  in
  Alcotest.(check int) "no W0306 without verify" 0 (List.length (w0306 r));
  let rv = Analyzer.analyze ~verify:true (Compile.compile derived_modal) in
  (match w0306 rv with
  | [ d ] -> Alcotest.(check bool) "W0306 is Info" true (d.Diag.severity = Diag.Info)
  | ds -> Alcotest.failf "expected one W0306, got %d" (List.length ds));
  Alcotest.(check int) "verify leaves the bound" r.Analyzer.wcet rv.Analyzer.wcet;
  Alcotest.(check (list string)) "the oracle is not a racer" [ "ipet" ]
    (List.map (fun b -> b.Analyzer.br_name) rv.Analyzer.backend_runs)

let test_irreducible_single_backend_fatal () =
  let spec, loops = spec_of_report (report goto_cycle) in
  match Wcet_path.Mc.solve spec loops with
  | Ok _ -> Alcotest.fail "the model checker must reject an irreducible program"
  | Error e -> Alcotest.(check string) "fails with E0305" "E0305" e.Path_analysis.err_code

(* --- corpus-wide verify sweep: portfolio never worse than IPET --- *)

(* Under verify the portfolio's certified-witness check runs with csolve
   as the structural witness; a disagreement fails with E0303, which the
   sweep rules out. The race includes IPET, so it never reports worse. *)
let test_corpus_portfolio_never_worse () =
  let checked = ref 0 in
  Verify_sweep.sweep ~domain:Wcet_value.Analysis.Interval (fun o ->
      let r = o.Verify_sweep.report in
      match List.find_opt (fun b -> b.Analyzer.br_name = "ipet") r.Analyzer.backend_runs with
      | Some { Analyzer.br_bound = Some ipet; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: portfolio <= ipet (%d <= %d)" o.Verify_sweep.where
             r.Analyzer.wcet ipet)
          true (r.Analyzer.wcet <= ipet);
        incr checked
      | _ -> ());
  Alcotest.(check bool) "portfolio compared with ipet" true (!checked > 0)

(* --- csolve never wins: it is an oracle, not a racer --- *)

(* On every corpus scenario (both variants, automatic and assisted
   annotations) the default report carries no csolve run, and adding csolve
   to an explicit race over the same spec changes neither the bound nor
   the winner. When the analyzer's spec was fact-free (no user flow facts,
   no irreducible degradation), the report's bound is that race's bound. *)
let test_csolve_never_wins () =
  let backends : (module Path_analysis.BACKEND) list = [ (module Ipet); (module Wcet_path.Mc) ] in
  let best res =
    Option.map (fun (name, s) -> (name, s.Path_analysis.wcet)) res.Portfolio.p_best
  in
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (variant, (s : Corpus.scenario)) ->
          let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
          List.iter
            (fun annot ->
              match Analyzer.analyze ~hw:s.Corpus.hw ~annot program with
              | exception Analyzer.Analysis_failed _ -> ()
              | r ->
                let where = Printf.sprintf "%s/%s" e.Corpus.id variant in
                Alcotest.(check bool) (where ^ ": no csolve run") false
                  (List.exists (fun b -> b.Analyzer.br_name = "csolve") r.Analyzer.backend_runs);
                let spec, loops = spec_of_report r in
                let two = Portfolio.run ~backends spec loops in
                let three =
                  Portfolio.run ~backends:(backends @ [ (module Wcet_path.Csolve) ]) spec loops
                in
                Alcotest.(check (option (pair string int)))
                  (where ^ ": csolve changes nothing") (best two) (best three);
                let fact_free =
                  annot.Annot.flow_facts = []
                  && not
                       (List.exists
                          (function Analyzer.Hole_irreducible _ -> true | _ -> false)
                          r.Analyzer.holes)
                in
                if fact_free then
                  Alcotest.(check (option int))
                    (where ^ ": report bound is the three-backend best")
                    (Some r.Analyzer.wcet) (Option.map snd (best three)))
            [ Annot.empty; s.Corpus.annotations program ])
        [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
    Corpus.all

(* --- IPET answers fact-free specs from the loop forest --- *)

(* Every fact-free spec of the corpus sweep and the examples gets the same
   bound and node counts from [Ipet.solve] (the forest) as from the
   simplex; a spec with a flow fact goes to the simplex; and a spec with an
   unbounded loop keeps the simplex's E0301. *)

let outcome = function
  | Ok (s : Path_analysis.solution) ->
    Ok (s.Path_analysis.wcet, Array.to_list s.Path_analysis.node_counts)
  | Error (e : Path_analysis.error) -> Error (e.Path_analysis.err_code, e.Path_analysis.err_detail)

let outcome_t = Alcotest.(result (pair int (list int)) (pair string string))

let counter name =
  match Wcet_obs.Metrics.find name with
  | Some (Wcet_obs.Metrics.Counter_value n) -> n
  | _ -> 0

let examples () =
  let dir = Examples_dir.dir in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         let source = In_channel.with_open_bin path In_channel.input_all in
         let annot_path = Filename.chop_suffix path ".mc" ^ ".annot" in
         let annots =
           if Sys.file_exists annot_path then
             match Annot.parse (In_channel.with_open_bin annot_path In_channel.input_all) with
             | Ok a -> [ ("automatic", Annot.empty); ("annotated", a) ]
             | Error e -> Alcotest.failf "%s: %s" annot_path e
           else [ ("automatic", Annot.empty) ]
         in
         List.map (fun (mode, annot) -> (Printf.sprintf "%s %s" f mode, source, annot)) annots)

let test_forest_equals_simplex () =
  let forest_solved = ref 0 in
  let compare_on where (r : Analyzer.report) =
    let spec, loops = spec_of_report r in
    Alcotest.check outcome_t (where ^ ": ipet = simplex")
      (outcome (Ipet.solve_lp spec loops))
      (outcome (Ipet.solve spec loops));
    (match Wcet_path.Forest.solve spec loops with
    | _ -> incr forest_solved
    | exception Wcet_path.Forest.Failed _ -> ());
    (* A flow fact every run satisfies: the entry executes once. *)
    let entry = r.Analyzer.graph.Wcet_cfg.Supergraph.entry in
    let fact =
      { Path_analysis.fact_coeffs = [ (entry, 1) ]; fact_bound = 1; fact_label = "entry" }
    in
    let with_fact = { spec with Path_analysis.facts = [ fact ] } in
    let pivots = counter "simplex_pivots" and solves = counter "ipet_solves" in
    let answer = Ipet.solve with_fact loops in
    Alcotest.(check int) (where ^ ": the fact goes to the simplex") (solves + 1)
      (counter "ipet_solves");
    Alcotest.(check bool) (where ^ ": simplex pivots rise") true
      (counter "simplex_pivots" > pivots);
    Alcotest.check outcome_t (where ^ ": a satisfied fact changes nothing")
      (outcome (Ipet.solve spec loops)) (outcome answer)
  in
  Verify_sweep.sweep ~domain:Wcet_value.Analysis.Interval (fun o ->
      compare_on o.Verify_sweep.where o.Verify_sweep.report);
  Wcet_obs.Obs.enable ();
  Fun.protect ~finally:Wcet_obs.Obs.disable (fun () ->
      List.iter
        (fun (where, source, annot) ->
          match Analyzer.analyze ~annot ~verify:true (Compile.compile source) with
          | r -> compare_on where r
          | exception Analyzer.Analysis_failed _ -> ())
        (examples ()));
  Alcotest.(check bool)
    (Printf.sprintf "the forest answered (%d specs)" !forest_solved)
    true (!forest_solved > 50);
  (* No loop bound at all: the forest fails, and the simplex's E0301 comes
     back unchanged. *)
  let spec, loops = spec_of_report (report loopy) in
  Alcotest.check outcome_t "unbounded loop"
    (Error
       ( "E0301",
         "some cycle has neither a derived loop bound nor an annotation (irreducible control \
          flow or an unbounded loop)" ))
    (outcome (Ipet.solve { spec with Path_analysis.loop_bounds = [] } loops))

(* --- plumbing --- *)

(* [Path_analysis.choice] survives only as the benchmark driver's frozen
   stub: the analyzer runs the portfolio and refuses the retired [Ipet]. *)
let test_choice_parsing () =
  Alcotest.(check (list string)) "stub names" [ "ipet"; "portfolio" ]
    (List.map Path_analysis.choice_name [ Path_analysis.Ipet; Portfolio ]);
  let program = Compile.compile loopy in
  Alcotest.(check int) "portfolio is the default" (Analyzer.analyze program).Analyzer.wcet
    (Analyzer.analyze ~path_backend:Path_analysis.Portfolio program).Analyzer.wcet;
  match Analyzer.analyze ~path_backend:Path_analysis.Ipet program with
  | _ -> Alcotest.fail "the analyzer must refuse the retired IPET-only configuration"
  | exception Invalid_argument _ -> ()

let test_codes_registered () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " registered") true (Diag.describe code <> None))
    [ "E0301"; "E0302"; "E0303"; "E0304"; "E0305"; "W0305"; "W0306" ]

let () =
  Alcotest.run "path"
    [
      ( "portfolio",
        [
          Alcotest.test_case "backends agree" `Quick test_backends_agree;
          Alcotest.test_case "identity per backend" `Quick test_identity_per_backend;
          Alcotest.test_case "injected bug detected" `Quick test_injected_bug_detected;
          Alcotest.test_case "mc tighter on modes" `Quick test_mc_strictly_tighter_on_modes;
          Alcotest.test_case "irreducible degrades" `Quick test_irreducible_portfolio_degrades;
          Alcotest.test_case "irreducible single backend fatal" `Quick
            test_irreducible_single_backend_fatal;
          Alcotest.test_case "gate miss reported under verify" `Quick test_gate_miss_reported;
          Alcotest.test_case "corpus never worse" `Slow test_corpus_portfolio_never_worse;
          Alcotest.test_case "csolve never wins" `Slow test_csolve_never_wins;
          Alcotest.test_case "forest ipet equals simplex" `Slow test_forest_equals_simplex;
        ] );
      ( "interface",
        [
          Alcotest.test_case "choice parsing" `Quick test_choice_parsing;
          Alcotest.test_case "codes registered" `Quick test_codes_registered;
        ] );
    ]
