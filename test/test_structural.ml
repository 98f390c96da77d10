(* Cross-check of the structural path solver (csolve, the loop forest
   IPET answers fact-free specs from) against the simplex on the same
   fact-free spec: the structural bound must dominate the simplex optimum
   and, on the plain loop shapes our compiler emits, coincide with it. *)

module Compile = Minic.Compile
module Analyzer = Wcet_core.Analyzer
module Path_analysis = Wcet_path.Path_analysis
module Csolve = Wcet_path.Csolve
module Ipet = Wcet_ipet.Ipet

let spec value ~times ~loop_bounds = { Path_analysis.value; times; loop_bounds; facts = [] }

let both source =
  let program = Compile.compile source in
  let report = Analyzer.analyze program in
  let spec =
    spec report.Analyzer.value
      ~times:report.Analyzer.timing.Wcet_pipeline.Block_timing.wcet
      ~loop_bounds:report.Analyzer.effective_bounds
  in
  let bound solve =
    Result.map (fun sol -> sol.Path_analysis.wcet) (solve spec report.Analyzer.loops)
  in
  match bound Ipet.solve_lp with
  | Ok simplex -> (simplex, bound Csolve.solve)
  | Error e -> Alcotest.failf "simplex failed: %s" e.Path_analysis.err_detail

let check_agree name source =
  match both source with
  | simplex, Ok structural ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: structural %d >= simplex %d" name structural simplex)
      true (structural >= simplex);
    Alcotest.(check int) (name ^ ": engines agree") simplex structural
  | _, Error e -> Alcotest.failf "%s: structural failed: %s" name e.Path_analysis.err_detail

let check_dominates name source =
  match both source with
  | simplex, Ok structural ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: structural %d >= simplex %d" name structural simplex)
      true (structural >= simplex)
  | _, Error e -> Alcotest.failf "%s: structural failed: %s" name e.Path_analysis.err_detail

let test_straight_line () = check_agree "straight" "int main() { int x; x = 3; return x * 9; }"

let test_branch () =
  check_agree "branch"
    "int g; int main() { int x; if (g) { x = g * 3; } else { x = 1; } return x; }"

let test_loop () =
  check_agree "loop"
    "int main() { int s; int i; s = 0; for (i = 0; i < 25; i = i + 1) { s = s + i; } return s; }"

let test_nested () =
  check_agree "nested"
    "int main() { int s; int i; int j; s = 0; for (i = 0; i < 5; i = i + 1) { for (j = 0; j < 7; j = j + 1) { s = s + j; } } return s; }"

let test_loop_with_branch () =
  check_dominates "loop+branch"
    "int g; int main() { int s; int i; s = 0; for (i = 0; i < 12; i = i + 1) { if (g) { s = s + i * 3; } else { s = s + 1; } } return s; }"

let test_calls () =
  check_agree "calls"
    "int f(int x) { return x * 2; } int main() { int s; int i; s = 0; for (i = 0; i < 6; i = i + 1) { s = s + f(i); } return s; }"

let test_irreducible_rejected () =
  let source =
    "int g; int main() { int i; i = 0; if (g) { goto mid; } top: i = i + 1; mid: i = i + 2; if (i < 20) { goto top; } return i; }"
  in
  let program = Compile.compile source in
  let graph = Wcet_value.Resolve_iter.build program in
  let loops = Wcet_cfg.Loops.analyze graph in
  let value = Wcet_value.Analysis.run graph loops in
  let times = Array.make (Array.length graph.Wcet_cfg.Supergraph.nodes) 1 in
  match Csolve.solve (spec value ~times ~loop_bounds:[]) loops with
  | Error e ->
    Alcotest.(check string) "intractable" "E0305" e.Path_analysis.err_code;
    Alcotest.(check bool) "mentions reducibility" true
      (Astring.String.is_infix ~affix:"reducible" e.Path_analysis.err_detail)
  | Ok _ -> Alcotest.fail "expected irreducibility rejection"

let () =
  Alcotest.run "structural"
    [
      ( "agreement",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "branch" `Quick test_branch;
          Alcotest.test_case "loop" `Quick test_loop;
          Alcotest.test_case "nested loops" `Quick test_nested;
          Alcotest.test_case "loop with branch" `Quick test_loop_with_branch;
          Alcotest.test_case "calls" `Quick test_calls;
        ] );
      ( "limits",
        [ Alcotest.test_case "irreducible rejected" `Quick test_irreducible_rejected ] );
    ]
