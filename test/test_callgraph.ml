(* Tests for the call-graph condensation (lib/cfg/callgraph) and the
   summary-based scheduled analyses built on it: the function-level SCC
   count, slice bookkeeping, and the corpus-wide property that the summary
   engine and the whole-program reference solve agree state by state. *)

module Compile = Minic.Compile
module Analyzer = Wcet_core.Analyzer
module Report_cache = Wcet_core.Report_cache
module Callgraph = Wcet_cfg.Callgraph
module Annot = Wcet_annot.Annot
module Store = Wcet_util.Store

let annot_exn text =
  match Annot.parse text with
  | Ok a -> a
  | Error msg -> Alcotest.failf "bad annotation: %s" msg

let graph_of ?annot source =
  (Analyzer.analyze ?annot (Compile.compile source)).Analyzer.graph

(* --- SCC structure --- *)

let test_mutual_recursion_one_scc () =
  (* f -> g -> h -> f: one three-member SCC; main in its own. *)
  let source =
    "int f(int n) { if (n < 1) { return 0; } return g(n - 1); } \
     int g(int n) { return h(n); } \
     int h(int n) { return f(n); } \
     int main() { return f(6); }"
  in
  let graph =
    graph_of
      ~annot:(annot_exn "recursion f depth 7\nrecursion g depth 7\nrecursion h depth 7")
      source
  in
  Alcotest.(check int) "two SCCs (the cycle, main)" 2 (Callgraph.function_scc_count graph)

let diamond_source =
  "int shared(int x) { int i; int s; s = x; for (i = 0; i < 4; i = i + 1) { s = s + i; } \
   return s; }\n\
   int helper_a(int x) { return shared(x + 1); }\n\
   int helper_b(int x) { return shared(x + 2); }\n\
   int main() { return helper_a(1) + helper_b(2); }\n"

let test_diamond_sccs () =
  (* main -> {helper_a, helper_b} -> shared: four singleton SCCs, shared
     counted once (not once per call path). *)
  Alcotest.(check int) "four SCCs" 4 (Callgraph.function_scc_count (graph_of diamond_source))

let test_unreachable_function_skipped () =
  (* orphan is never called: the supergraph does not expand it, so it is
     not counted. *)
  let source =
    "int orphan(int x) { return x * 3; }\n\
     int used(int x) { return x + 1; }\n\
     int main() { return used(41); }\n"
  in
  Alcotest.(check int) "two SCCs (used, main)" 2 (Callgraph.function_scc_count (graph_of source))

(* --- slice bookkeeping: one store entry per function --- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wcet_test_callgraph.%d.%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_cache f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Report_cache.disable ();
      ignore (Report_cache.drain_diags ());
      rm_rf dir)
    (fun () ->
      if not (Report_cache.set_dir dir) then Alcotest.fail "set_dir refused a fresh temp dir";
      f dir)

let test_diamond_writes_one_slice_per_function () =
  (* The diamond's shared callee gets ONE slice entry, not one per caller
     path: summaries are stored per function, contexts are rows inside. *)
  with_cache (fun dir ->
      ignore (Analyzer.analyze (Compile.compile diamond_source));
      match Store.open_store dir with
      | Error msg -> Alcotest.failf "open_store: %s" msg
      | Ok s ->
        let st = Store.stats s in
        Alcotest.(check (option int)) "one func entry per function" (Some 4)
          (List.assoc_opt "func" st.Store.by_kind))

(* --- corpus-wide engine equivalence --- *)

(* Under verify, the whole-program reference solve runs beside the summary
   engine and every node's state is compared (E0204); the interval domain
   never escalates, so every analyzed scenario reaches the comparison, and
   verifying changes no bound. *)
let test_corpus_engines_agree () =
  let compared = ref 0 in
  Verify_sweep.sweep ~domain:Wcet_value.Analysis.Interval (fun o ->
      Alcotest.(check bool)
        (o.Verify_sweep.where ^ ": the whole-program reference solve ran")
        true o.Verify_sweep.reference_ran;
      incr compared);
  Alcotest.(check bool) "summary states compared (E0204)" true (!compared > 0)

let () =
  Alcotest.run "callgraph"
    [
      ( "sccs",
        [
          Alcotest.test_case "mutual recursion is one SCC" `Quick
            test_mutual_recursion_one_scc;
          Alcotest.test_case "diamond condensation" `Quick test_diamond_sccs;
          Alcotest.test_case "unreachable function skipped" `Quick
            test_unreachable_function_skipped;
        ] );
      ( "slices",
        [
          Alcotest.test_case "one slice entry per function" `Quick
            test_diamond_writes_one_slice_per_function;
        ] );
      ( "engine equivalence",
        [ Alcotest.test_case "corpus bounds identical" `Slow test_corpus_engines_agree ] );
    ]
