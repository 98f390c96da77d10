(* Tests for the call-graph condensation (lib/cfg/callgraph): the
   function-level SCC count behind the [scc_count] metric. *)

module Compile = Minic.Compile
module Analyzer = Wcet_core.Analyzer
module Callgraph = Wcet_cfg.Callgraph
module Annot = Wcet_annot.Annot

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
    ]
