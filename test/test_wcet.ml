(* End-to-end WCET analyzer tests: for each program, the statically computed
   bound must dominate every simulated execution (soundness), and for
   analyzable programs it should be reasonably tight. *)

module Compile = Minic.Compile
module Codegen = Minic.Codegen
module Sim = Pred32_sim.Simulator
module Hw_config = Pred32_hw.Hw_config
module Analyzer = Wcet_core.Analyzer
module Annot = Wcet_annot.Annot

let annot_exn text =
  match Annot.parse text with
  | Ok a -> a
  | Error msg -> Alcotest.failf "bad annotation: %s" msg

let observed ?(cfg = Hw_config.default) ?(pokes = []) program =
  let sim = Sim.create cfg program in
  List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
  Sim.halted_cycles (Sim.run sim)

let bound ?(cfg = Hw_config.default) ?(annot = Annot.empty) ?path_backend program =
  (Analyzer.analyze ~hw:cfg ~annot ?path_backend program).Analyzer.wcet

let check_sound ?cfg ?annot ?(poke_sets = [ [] ]) name source =
  let program = Compile.compile source in
  let b = bound ?cfg ?annot program in
  List.iter
    (fun pokes ->
      let o = observed ?cfg ~pokes program in
      if o > b then Alcotest.failf "%s: observed %d exceeds bound %d" name o b)
    poke_sets;
  b

(* --- straight-line and simple control flow --- *)

let test_straight_line () =
  let source = "int main() { int x; x = 3; x = x * 14; return x; }" in
  let program = Compile.compile source in
  let b = bound program and o = observed program in
  Alcotest.(check bool) "sound" true (o <= b);
  (* single path: the bound should be very tight (only branch-penalty and
     cache-join slack) *)
  Alcotest.(check bool) (Printf.sprintf "tight (%d vs %d)" o b) true (b <= o + o / 4)

let test_if_else_takes_max () =
  (* Analysis must take the heavier branch; execution takes the lighter. *)
  let source =
    "int g; int main() { int x; int i; x = 0; if (g) { for (i = 0; i < 50; i = i + 1) { x = x + i; } } else { x = 1; } return x; }"
  in
  let program = Compile.compile source in
  let b = bound program in
  let o_light = observed ~pokes:[ ("g", 0, 0) ] program in
  let o_heavy = observed ~pokes:[ ("g", 0, 1) ] program in
  Alcotest.(check bool) "bound covers heavy" true (o_heavy <= b);
  Alcotest.(check bool) "heavy >> light" true (o_heavy > o_light * 2);
  Alcotest.(check bool) "bound reflects heavy path" true (b >= o_heavy)

let test_loop_sound_and_tight () =
  let source =
    "int main() { int s; int i; s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i; } return s; }"
  in
  let program = Compile.compile source in
  let b = bound program and o = observed program in
  Alcotest.(check bool) "sound" true (o <= b);
  Alcotest.(check bool) (Printf.sprintf "tight (%d vs %d)" o b) true (b <= o * 3 / 2)

let test_nested_loops_sound () =
  ignore
    (check_sound "nested"
       "int main() { int s; int i; int j; s = 0; for (i = 0; i < 7; i = i + 1) { for (j = 0; j < 11; j = j + 1) { s = s + j; } } return s; }")

let test_calls_sound () =
  ignore
    (check_sound "calls"
       "int sq(int x) { return x * x; } int acc; \
        int main() { int i; acc = 0; for (i = 0; i < 9; i = i + 1) { acc = acc + sq(i); } return acc; }")

let test_input_loop_with_assume () =
  let source =
    "int n; int main() { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + 2; } return s; }"
  in
  let program = Compile.compile source in
  let annot = annot_exn "assume n in [ 0 64 ]" in
  let b = bound ~annot program in
  (* the bound must cover every n within the assume *)
  List.iter
    (fun n ->
      let o = observed ~pokes:[ ("n", 0, n) ] program in
      Alcotest.(check bool) (Printf.sprintf "sound for n=%d" n) true (o <= b))
    [ 0; 1; 32; 64 ];
  (* and scale with the assume: a tighter assume gives a smaller bound *)
  let b8 = bound ~annot:(annot_exn "assume n in [ 0 8 ]") program in
  Alcotest.(check bool) "assume tightens bound" true (b8 < b)

let test_unbounded_without_assume () =
  let source =
    "int n; int main() { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + 2; } return s; }"
  in
  let program = Compile.compile source in
  let report = Analyzer.analyze program in
  (* graceful degradation: the unbounded loop becomes an analysis hole and
     the verdict turns partial, with a W0302 diagnostic naming the loop *)
  Alcotest.(check bool) "verdict is partial" true
    (report.Analyzer.verdict = Analyzer.Partial);
  Alcotest.(check bool) "has a loop hole" true
    (List.exists
       (function Analyzer.Hole_loop _ -> true | _ -> false)
       report.Analyzer.holes);
  Alcotest.(check bool) "has a W0302 diagnostic" true
    (List.exists
       (fun d -> d.Wcet_diag.Diag.code = "W0302")
       report.Analyzer.diagnostics)

let test_manual_loop_bound_annotation () =
  (* A loop the automatic analysis cannot bound, bounded by annotation. *)
  let source =
    "unsigned x; int main() { int steps; steps = 0; while (x != 1) { if (x & 1) { x = 3 * x + 1; } else { x = x / 2; } steps = steps + 1; } return steps; }"
  in
  let program = Compile.compile source in
  (match (Analyzer.analyze program).Analyzer.verdict with
  | Analyzer.Partial -> ()
  | Analyzer.Complete -> Alcotest.fail "collatz should not be bounded automatically");
  let annot = annot_exn "loop in main bound 200" in
  let b = bound ~annot program in
  let o = observed ~pokes:[ ("x", 0, 27) ] program in
  (* collatz(27) takes 111 steps *)
  Alcotest.(check bool) "sound under trusted annotation" true (o <= b)

(* --- function pointers and recursion --- *)

let test_fptr_resolved_sound () =
  ignore
    (check_sound "fptr"
       "int h1(int x) { return x + 1; } \
        int main() { int (*f)(int); f = h1; return f(41); }")

let test_recursion_with_annotation () =
  let source =
    "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); } int main() { return fact(6); }"
  in
  let program = Compile.compile source in
  let annot = annot_exn "recursion fact depth 8" in
  let b = bound ~annot program in
  let o = observed program in
  Alcotest.(check bool) "sound" true (o <= b)

(* --- modes (tier-two) --- *)

let test_mode_analysis_tightens () =
  let source =
    "int mode; int work; \
     int flight_control() { int i; int s; s = 0; for (i = 0; i < 200; i = i + 1) { s = s + i; } return s; } \
     int ground_control() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; } \
     int main() { if (mode == 1) { return flight_control(); } return ground_control(); }"
  in
  let program = Compile.compile source in
  (* one analysis per operating mode, each mode's annotations merged into
     the (empty) base set, plus the mode-oblivious one *)
  let wcet_of annot = (Analyzer.analyze ~annot program).Analyzer.wcet in
  let oblivious = wcet_of Annot.empty in
  let mode text = wcet_of (Annot.merge Annot.empty (annot_exn text)) in
  let flight = mode "assume mode = 1" and ground = mode "assume mode = 0" in
  (* soundness per mode *)
  let o_flight = observed ~pokes:[ ("mode", 0, 1) ] program in
  let o_ground = observed ~pokes:[ ("mode", 0, 0) ] program in
  Alcotest.(check bool) "flight sound" true (o_flight <= flight);
  Alcotest.(check bool) "ground sound" true (o_ground <= ground);
  (* the paper's point: per-mode bounds are much tighter for the cheap mode *)
  Alcotest.(check bool) "ground mode much tighter" true (ground * 3 < oblivious);
  Alcotest.(check bool) "oblivious covers both" true (flight <= oblivious)

(* --- memory region annotations (tier-two) --- *)

let test_memory_region_annotation () =
  (* A pointer the analysis cannot resolve: without annotation it must
     assume the slow I/O region; with a scratch-region annotation the bound
     drops. *)
  let source =
    "int sel; scratch int buf[16]; \
     int poll(int *p) { int i; int s; s = 0; for (i = 0; i < 16; i = i + 1) { s = s + p[i & sel]; } return s; } \
     int main() { return poll(buf); }"
  in
  let program = Compile.compile source in
  let b_plain = bound program in
  let b_annot = bound ~annot:(annot_exn "memory poll = scratch") program in
  let o = observed ~pokes:[ ("sel", 0, 15) ] program in
  Alcotest.(check bool) "plain sound" true (o <= b_plain);
  Alcotest.(check bool) "annotated sound" true (o <= b_annot);
  Alcotest.(check bool)
    (Printf.sprintf "annotation tightens (%d < %d)" b_annot b_plain)
    true (b_annot < b_plain)

(* --- flow facts --- *)

let test_exclusive_paths_fact () =
  (* Two heavyweight handlers, at most one runs per cycle. *)
  let source =
    "int phase; int buf[8]; \
     int read_msg() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + buf[i]; } return s; } \
     int write_msg() { int i; for (i = 0; i < 8; i = i + 1) { buf[i] = i; } return 8; } \
     int main() { int r; r = 0; if (phase == 0) { r = r + read_msg(); } if (phase == 1) { r = r + write_msg(); } return r; }"
  in
  let program = Compile.compile source in
  (* The fact comparison runs IPET-only: the model-checking backend proves
     the phase tests mutually exclusive semantically, so the portfolio
     bound is already tight without the annotation (checked last). *)
  let b_plain = bound ~path_backend:Wcet_path.Path_analysis.Ipet program in
  let b_fact =
    bound ~path_backend:Wcet_path.Path_analysis.Ipet
      ~annot:(annot_exn "exclusive read_msg, write_msg")
      program
  in
  List.iter
    (fun phase ->
      let o = observed ~pokes:[ ("phase", 0, phase) ] program in
      Alcotest.(check bool) "fact bound sound" true (o <= b_fact))
    [ 0; 1; 2 ];
  Alcotest.(check bool)
    (Printf.sprintf "exclusivity tightens (%d < %d)" b_fact b_plain)
    true (b_fact < b_plain);
  let b_portfolio = bound program in
  Alcotest.(check bool)
    (Printf.sprintf "portfolio finds exclusivity unaided (%d <= %d)" b_portfolio b_fact)
    true (b_portfolio <= b_fact)

let test_maxcount_fact () =
  (* Error handling: the handler is reachable from every iteration but runs
     at most once per run (paper: error scenarios knowledge). *)
  let source =
    "int errs; int handled; \
     void handle_error() { int i; for (i = 0; i < 100; i = i + 1) { handled = handled + i; } } \
     int main() { int i; int s; s = 0; for (i = 0; i < 20; i = i + 1) { if (errs & (1 << i)) { handle_error(); } s = s + i; } return s; }"
  in
  let program = Compile.compile source in
  let b_plain = bound program in
  let b_fact = bound ~annot:(annot_exn "maxcount handle_error <= 1") program in
  let o = observed ~pokes:[ ("errs", 0, 4) ] program in
  Alcotest.(check bool) "sound" true (o <= b_fact);
  Alcotest.(check bool)
    (Printf.sprintf "maxcount tightens (%d < %d)" b_fact b_plain)
    true (b_fact < b_plain)

(* --- uncached configuration --- *)

let test_uncached_config_sound () =
  let source =
    "int main() { int s; int i; s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i; } return s; }"
  in
  let program = Compile.compile source in
  let b = bound ~cfg:Hw_config.uncached program in
  let o = observed ~cfg:Hw_config.uncached program in
  Alcotest.(check bool) "sound uncached" true (o <= b);
  (* without caches the model is fully deterministic per instruction, so the
     bound is very tight *)
  Alcotest.(check bool) (Printf.sprintf "tight uncached (%d vs %d)" o b) true (b <= o + o / 10)

(* --- BCET lower bound --- *)

let test_bcet_brackets_observed () =
  (* the analysis gap [bcet, wcet] must bracket every run *)
  let source =
    "int g; int main() { int x; int i; x = 0; if (g) { for (i = 0; i < 30; i = i + 1) { x = x + i; } } else { x = 1; } return x; }"
  in
  let program = Compile.compile source in
  let report = Analyzer.analyze program in
  List.iter
    (fun gval ->
      let o = observed ~pokes:[ ("g", 0, gval) ] program in
      Alcotest.(check bool)
        (Printf.sprintf "bcet %d <= observed %d <= wcet %d (g=%d)" report.Analyzer.bcet o
           report.Analyzer.wcet gval)
        true
        (report.Analyzer.bcet <= o && o <= report.Analyzer.wcet))
    [ 0; 1 ];
  Alcotest.(check bool) "gap is real" true (report.Analyzer.bcet < report.Analyzer.wcet)

(* --- phases exist (Figure 1) --- *)

let test_phase_times_reported () =
  let program = Compile.compile "int main() { return 0; }" in
  let report = Analyzer.analyze program in
  let names = List.map fst report.Analyzer.phase_seconds in
  (* decode, loop/value, cache, persistence (also Cache), pipeline, path *)
  Alcotest.(check int) "six timed phases" 6 (List.length names);
  Alcotest.(check bool) "decode first" true (List.hd names = Analyzer.Decode);
  Alcotest.(check bool) "path last" true
    (List.nth names (List.length names - 1) = Analyzer.Path)

(* --- an analysis leaves nothing live behind --- *)

let test_no_retention () =
  let source = In_channel.with_open_bin (Examples_dir.file "quickstart.mc") In_channel.input_all in
  let program = Compile.compile source in
  let live_after runs =
    for _ = 1 to runs do
      ignore
        (Analyzer.analyze ~domain:Wcet_value.Analysis.Interval
           ~path_backend:Wcet_path.Path_analysis.Ipet program)
    done;
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let after_100 = live_after 100 in
  let after_300 = live_after 200 in
  (* [program] must be live at both measurements. *)
  ignore (Sys.opaque_identity program);
  if after_300 - after_100 >= 1000 then
    Alcotest.failf "live heap grew by %d words between 100 and 300 analyses"
      (after_300 - after_100)

let () =
  Alcotest.run "wcet"
    [
      ( "soundness",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "if/else max" `Quick test_if_else_takes_max;
          Alcotest.test_case "loop" `Quick test_loop_sound_and_tight;
          Alcotest.test_case "nested loops" `Quick test_nested_loops_sound;
          Alcotest.test_case "calls" `Quick test_calls_sound;
          Alcotest.test_case "uncached config" `Quick test_uncached_config_sound;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "assume on input" `Quick test_input_loop_with_assume;
          Alcotest.test_case "unbounded without assume" `Quick test_unbounded_without_assume;
          Alcotest.test_case "manual loop bound" `Quick test_manual_loop_bound_annotation;
          Alcotest.test_case "recursion depth" `Quick test_recursion_with_annotation;
        ] );
      ( "pointers",
        [ Alcotest.test_case "resolved fptr" `Quick test_fptr_resolved_sound ] );
      ( "tier-two",
        [
          Alcotest.test_case "operating modes" `Quick test_mode_analysis_tightens;
          Alcotest.test_case "memory regions" `Quick test_memory_region_annotation;
          Alcotest.test_case "exclusive paths" `Quick test_exclusive_paths_fact;
          Alcotest.test_case "maxcount" `Quick test_maxcount_fact;
        ] );
      ("bcet", [ Alcotest.test_case "brackets observations" `Quick test_bcet_brackets_observed ]);
      ("phases", [ Alcotest.test_case "times reported" `Quick test_phase_times_reported ]);
      ("memory", [ Alcotest.test_case "no retention per analysis" `Quick test_no_retention ]);
    ]
