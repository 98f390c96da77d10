(* MISRA checker tests: every rule on a minimal violating program and its
   clean counterpart, plus the whole-corpus cross-check (conforming
   variants flag nothing for their rule; violating variants flag it). *)

module Checker = Misra.Checker
module Compile = Minic.Compile
module Corpus = Wcet_corpus.Corpus

let rules_hit source =
  Checker.check_user (Compile.frontend_with_runtime source)
  |> List.map (fun (v : Checker.violation) -> Checker.rule_name v.Checker.rule)
  |> List.sort_uniq compare

let check_flags name expected source =
  Alcotest.(check (list string)) name expected (rules_hit source)

let test_13_4 () =
  check_flags "float for" [ "13.4" ]
    "int main() { float f; int n; n = 0; for (f = 0.0; f < 4.0; f = f + 1.0) { n = n + 1; } return n; }";
  check_flags "int for clean" []
    "int main() { int i; int n; n = 0; for (i = 0; i < 4; i = i + 1) { n = n + 1; } return n; }";
  (* float arithmetic outside loop control is allowed by 13.4 *)
  check_flags "float body clean" []
    "int main() { int i; float x; x = 0.0; for (i = 0; i < 4; i = i + 1) { x = x + 1.5; } return (int)x; }"

let test_13_6 () =
  check_flags "counter bump" [ "13.6" ]
    "int g; int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { if (g) { i = i + 1; } s = s + 1; } return s; }";
  check_flags "address taken" [ "13.6" ]
    "void f(int *p) { *p = 0; } int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { f(&i); s = s + 1; } return s; }";
  check_flags "clean loop" []
    "int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + i; } return s; }"

let test_14_1 () =
  check_flags "code after return" [ "14.1" ]
    "int g; int main() { return 1; g = 2; }";
  check_flags "code after break" [ "14.1" ]
    "int g; int main() { int i; for (i = 0; i < 4; i = i + 1) { break; g = 9; } return i; }";
  check_flags "label after goto ok" [ "14.4" ]
    "int main() { int x; x = 1; goto out; out: return x; }"

let test_14_4_14_5 () =
  check_flags "goto" [ "14.4" ] "int main() { goto l; l: return 0; }";
  check_flags "continue" [ "14.5" ]
    "int main() { int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { if (i == 2) { continue; } s = s + i; } return s; }"

let test_16_1_16_2 () =
  check_flags "varargs" [ "16.1" ]
    "int sum(int n, ...) { return __va_arg(0); } int main() { return sum(1, 5); }";
  check_flags "direct recursion" [ "16.2" ]
    "int f(int n) { if (n < 1) { return 0; } return f(n - 1); } int main() { return f(3); }"

let test_16_2_mutual () =
  check_flags "mutual recursion" [ "16.2" ]
    "int f(int n) { if (n < 1) { return 0; } return g(n - 1); } int g(int n) { return f(n); } int main() { return f(3); }"

let test_20_4_20_7 () =
  check_flags "malloc" [ "20.4" ] "int main() { int *p; p = malloc(8); *p = 1; return *p; }";
  check_flags "setjmp" [ "20.7" ]
    "int buf[3]; int main() { if (__setjmp(buf)) { return 1; } return 0; }";
  check_flags "longjmp" [ "20.7" ]
    "int buf[3]; int main() { int r; r = __setjmp(buf); if (r == 0) { __longjmp(buf, 1); } return r; }"

let test_impact_text () =
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Checker.rule_name rule ^ " has impact text")
        true
        (String.length (Checker.wcet_impact rule) > 20))
    Checker.all_rules

(* Whole corpus: each rule entry's violating variant flags its own rule;
   the conforming variant does not. *)
let test_corpus_consistency () =
  List.iter
    (fun (e : Corpus.entry) ->
      let conf = rules_hit e.Corpus.conforming.Corpus.source in
      let viol = rules_hit e.Corpus.violating.Corpus.source in
      Alcotest.(check bool)
        (e.Corpus.id ^ " conforming is clean of its rule")
        false (List.mem e.Corpus.id conf);
      Alcotest.(check bool)
        (e.Corpus.id ^ " violating flags its rule")
        true (List.mem e.Corpus.id viol))
    Corpus.rule_entries

let () =
  (* The 16.2 prototype note: remove the unused-check placeholder by running
     the mutual test separately. *)
  Alcotest.run "misra"
    [
      ( "rules",
        [
          Alcotest.test_case "13.4 float loop control" `Quick test_13_4;
          Alcotest.test_case "13.6 counter modification" `Quick test_13_6;
          Alcotest.test_case "14.1 unreachable" `Quick test_14_1;
          Alcotest.test_case "14.4 / 14.5 goto, continue" `Quick test_14_4_14_5;
          Alcotest.test_case "16.1 / 16.2 varargs, recursion" `Quick test_16_1_16_2;
          Alcotest.test_case "16.2 mutual recursion" `Quick test_16_2_mutual;
          Alcotest.test_case "20.4 / 20.7 malloc, setjmp" `Quick test_20_4_20_7;
          Alcotest.test_case "impact summaries" `Quick test_impact_text;
        ] );
      ("corpus", [ Alcotest.test_case "entries flag their rules" `Quick test_corpus_consistency ]);
    ]
