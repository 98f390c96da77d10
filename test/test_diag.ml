(* Tests for the diagnostics subsystem (lib/diag) and the analyzer's
   graceful-degradation behaviour: local problems become analysis holes
   with structured diagnostics and a partial verdict instead of aborting
   the analysis. *)

module Json = Wcet_diag.Json
module Diag = Wcet_diag.Diag
module Analyzer = Wcet_core.Analyzer
module Compile = Minic.Compile
module Annot = Wcet_annot.Annot

(* --- JSON emitter --- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (Json.to_string (Json.String "a\"b\\c"));
  Alcotest.(check string) "newline tab" "\"x\\ny\\tz\""
    (Json.to_string (Json.String "x\ny\tz"));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\x01"))

let test_json_nested () =
  let v =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("o", Json.Obj [ ("k", Json.Null) ]) ]
  in
  Alcotest.(check string) "nested" "{\"xs\":[1,2],\"o\":{\"k\":null}}" (Json.to_string v)

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float infinity))

(* --- diagnostic type --- *)

let test_codes_unique () =
  let codes = List.map fst Diag.all_codes in
  Alcotest.(check int) "no duplicate codes"
    (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* E0204 compared a component-scheduled solve with the whole-program one;
   the analyzer runs only the whole-program solve, so it is retired. *)
let test_describe () =
  Alcotest.(check bool) "W0301 documented" true (Diag.describe "W0301" <> None);
  Alcotest.(check (option string)) "unknown code" None (Diag.describe "E9999");
  Alcotest.(check bool) "E0204 retired" true (Diag.describe "E0204" = None)

(* The codes this PR introduced: environment-variable validation and the
   persistent analysis cache's degradation warnings. *)
let test_store_and_env_codes_registered () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " documented") true (Diag.describe code <> None))
    [ "E0110"; "W0610"; "W0611"; "W0612" ];
  Alcotest.(check int) "store phase exits as usage" 1
    (Diag.exit_for (Diag.make Diag.Warning Diag.Store ~code:"W0612" "x"));
  Alcotest.(check string) "store phase name" "cache-store" (Diag.phase_name Diag.Store)

(* The octagon-escalation codes: the escalation notice, the --verify
   cross-check failure and the trigger's --verify precision oracle. W0613 evicted per-function slices recorded under
   another value domain; the store keeps no slices, so it is retired. *)
let test_octagon_codes_registered () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " documented") true (Diag.describe code <> None))
    [ "W0501"; "W0502"; "E0503"; "A0512" ];
  (* E0503 is an analysis failure (the escalated solution diverged), not a
     usage problem: it must exit with the analysis code. *)
  Alcotest.(check int) "E0503 exits as analysis" 2
    (Diag.exit_for (Diag.make Diag.Error Diag.Path ~code:"E0503" "x"));
  Alcotest.(check bool) "W0613 retired" true (Diag.describe "W0613" = None)

let test_pp_format () =
  let d =
    Diag.make Diag.Warning Diag.Decode ~code:"W0301"
      ~loc:(Diag.at_addr ~func:"main" 0x16c)
      ~hint:"calltargets at 0x16c = f, g" "indirect call cannot be resolved"
  in
  let s = Format.asprintf "@[<v>%a@]" Diag.pp d in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("mentions " ^ affix) true (Astring.String.is_infix ~affix s))
    [ "warning[W0301]"; "decode:"; "0x16c"; "main"; "hint:" ]

let test_exit_codes () =
  Alcotest.(check int) "frontend is usage" 1
    (Diag.exit_for (Diag.make Diag.Error Diag.Frontend ~code:"E0108" "x"));
  Alcotest.(check int) "path is analysis" 2
    (Diag.exit_for (Diag.make Diag.Error Diag.Path ~code:"E0501" "x"));
  Alcotest.(check int) "check is check-failed" 5
    (Diag.exit_for (Diag.make Diag.Error Diag.Check ~code:"E0601" "x"));
  Alcotest.(check int) "internal is 70" 70
    (Diag.exit_for (Diag.make Diag.Error Diag.Internal ~code:"E0901" "x"))

let test_collector () =
  let c = Diag.collector () in
  Alcotest.(check bool) "starts clean" false (Diag.has_errors c);
  Diag.add c (Diag.make Diag.Warning Diag.Decode ~code:"W0301" "w");
  Diag.add c (Diag.make Diag.Error Diag.Path ~code:"E0501" "e");
  Alcotest.(check int) "warnings" 1 (Diag.warning_count c);
  Alcotest.(check int) "errors" 1 (Diag.error_count c);
  (* items preserve insertion order *)
  Alcotest.(check (list string)) "order" [ "W0301"; "E0501" ]
    (List.map (fun d -> d.Diag.code) (Diag.items c))

(* --- graceful analyzer degradation --- *)

let unresolved_handler_source =
  "int sel; int ev[4]; int out; int (*handler)(int); \
   int on_can(int v) { int i; int s; s = v; for (i = 0; i < 6; i = i + 1) { s = s + i; } return s; } \
   int on_flexray(int v) { return v * 2; } \
   int main() { int i; if (sel) { handler = on_can; } else { handler = on_flexray; } out = 0; \
   for (i = 0; i < 4; i = i + 1) { out = out + handler(ev[i]); } return out; }"

let test_unresolved_call_is_partial () =
  let program = Compile.compile unresolved_handler_source in
  let report = Analyzer.analyze program in
  Alcotest.(check bool) "partial verdict" true (report.Analyzer.verdict = Analyzer.Partial);
  Alcotest.(check bool) "has a positive bound" true (report.Analyzer.wcet > 0);
  let call_holes =
    List.filter_map
      (function Analyzer.Hole_call { site; func } -> Some (site, func) | _ -> None)
      report.Analyzer.holes
  in
  Alcotest.(check int) "one call hole" 1 (List.length call_holes);
  let site, func = List.hd call_holes in
  Alcotest.(check string) "hole is in main" "main" func;
  (* the W0301 diagnostic names the same site *)
  let d =
    List.find (fun d -> d.Diag.code = "W0301") report.Analyzer.diagnostics
  in
  Alcotest.(check (option int)) "diagnostic names the site" (Some site) d.Diag.loc.Diag.addr;
  Alcotest.(check bool) "has an annotation hint" true (d.Diag.hint <> None)

let test_annotation_discharges_hole () =
  let program = Compile.compile unresolved_handler_source in
  let report = Analyzer.analyze program in
  let site =
    match report.Analyzer.holes with
    | [ Analyzer.Hole_call { site; _ } ] -> site
    | _ -> Alcotest.fail "expected exactly one call hole"
  in
  let annot =
    match Annot.parse (Printf.sprintf "calltargets at 0x%x = on_can, on_flexray" site) with
    | Ok a -> a
    | Error msg -> Alcotest.failf "annotation: %s" msg
  in
  let fixed = Analyzer.analyze ~annot program in
  Alcotest.(check bool) "complete with calltargets" true
    (fixed.Analyzer.verdict = Analyzer.Complete);
  (* the discharged bound must dominate the partial one: the partial bound
     excluded the callee's cost *)
  Alcotest.(check bool) "complete bound >= partial bound" true
    (fixed.Analyzer.wcet >= report.Analyzer.wcet)

let test_partial_bound_covers_hole_free_paths () =
  (* With sel poked so the cheap handler runs... the call is still a hole,
     so this only checks the partial analysis completes and simulation
     works; the partial bound itself promises nothing about runs through
     the hole. *)
  let program = Compile.compile unresolved_handler_source in
  let report = Analyzer.analyze program in
  Alcotest.(check bool) "partial" true (report.Analyzer.verdict = Analyzer.Partial);
  let sim = Pred32_sim.Simulator.create Pred32_hw.Hw_config.default program in
  match Pred32_sim.Simulator.run sim with
  | Pred32_sim.Simulator.Halted _ -> ()
  | o -> Alcotest.failf "simulation should halt: %a" Pred32_sim.Simulator.pp_outcome o

let test_unknown_annotation_names_degrade () =
  (* Unknown function/symbol/region names in annotations must not abort:
     each becomes a W04xx warning and the analysis still completes. *)
  let source = "int main() { int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }" in
  let program = Compile.compile source in
  let annot =
    match
      Annot.parse
        "assume no_such_symbol in [0, 9]\nmaxcount no_such_function <= 3\nmemory main = no_such_region"
    with
    | Ok a -> a
    | Error msg -> Alcotest.failf "annotation: %s" msg
  in
  let report = Analyzer.analyze ~annot program in
  Alcotest.(check bool) "still complete" true (report.Analyzer.verdict = Analyzer.Complete);
  let codes = List.map (fun d -> d.Diag.code) report.Analyzer.diagnostics in
  Alcotest.(check bool) "W0401 emitted" true (List.mem "W0401" codes);
  Alcotest.(check bool) "W0402 emitted" true (List.mem "W0402" codes);
  Alcotest.(check bool) "W0403 emitted" true (List.mem "W0403" codes)

let test_complete_report_has_no_holes () =
  let program =
    Compile.compile "int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + i; } return s; }"
  in
  let report = Analyzer.analyze program in
  Alcotest.(check bool) "complete" true (report.Analyzer.verdict = Analyzer.Complete);
  Alcotest.(check int) "no holes" 0 (List.length report.Analyzer.holes)

let test_report_json_shape () =
  let program = Compile.compile unresolved_handler_source in
  let report = Analyzer.analyze program in
  let s = Json.to_string (Analyzer.report_to_json (Analyzer.answer report)) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("contains " ^ affix) true (Astring.String.is_infix ~affix s))
    [ "\"verdict\":\"partial\""; "\"holes\":"; "\"W0301\""; "\"wcet\":" ]

let () =
  Alcotest.run "diag"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "nested" `Quick test_json_nested;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
        ] );
      ( "diag",
        [
          Alcotest.test_case "codes unique" `Quick test_codes_unique;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "store and env codes registered" `Quick
            test_store_and_env_codes_registered;
          Alcotest.test_case "octagon escalation codes registered" `Quick
            test_octagon_codes_registered;
          Alcotest.test_case "pp format" `Quick test_pp_format;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "collector" `Quick test_collector;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "unresolved call is partial" `Quick test_unresolved_call_is_partial;
          Alcotest.test_case "annotation discharges hole" `Quick test_annotation_discharges_hole;
          Alcotest.test_case "partial analysis and simulation coexist" `Quick
            test_partial_bound_covers_hole_free_paths;
          Alcotest.test_case "unknown annotation names degrade" `Quick
            test_unknown_annotation_names_degrade;
          Alcotest.test_case "complete report has no holes" `Quick
            test_complete_report_has_no_holes;
          Alcotest.test_case "report json shape" `Quick test_report_json_shape;
        ] );
    ]
