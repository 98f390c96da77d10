(* End-to-end MiniC tests: compile with Minic.Compile, execute in the
   simulator, check the program's return value (and selected globals). *)

module Compile = Minic.Compile
module Codegen = Minic.Codegen
module Sim = Pred32_sim.Simulator
module Hw_config = Pred32_hw.Hw_config
module Word = Pred32_isa.Word

let run_program ?(options = Codegen.default_options) ?(cfg = Hw_config.default)
    ?(pokes = []) source =
  let program = Compile.compile ~options source in
  let sim = Sim.create cfg program in
  List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
  (program, sim, Sim.run sim)

let run_rv ?options ?cfg ?pokes source =
  let _, _, outcome = run_program ?options ?cfg ?pokes source in
  match outcome with
  | Sim.Halted { return_value; _ } -> Word.to_signed return_value
  | o -> Alcotest.failf "program did not halt: %a" Sim.pp_outcome o

let check_rv msg expected ?options ?cfg ?pokes source =
  Alcotest.(check int) msg expected (run_rv ?options ?cfg ?pokes source)

(* --- basics --- *)

let test_constant () = check_rv "42" 42 "int main() { return 42; }"

let test_arith () =
  check_rv "precedence" 14 "int main() { return 2 + 3 * 4; }";
  check_rv "parens" 20 "int main() { return (2 + 3) * 4; }";
  check_rv "sub/neg" (-7) "int main() { return 3 - 10; }";
  check_rv "unary minus" (-5) "int main() { return -5; }";
  check_rv "bitops" 5 "int main() { return (12 & 10) ^ (1 | 5) ^ 8; }";
  check_rv "shifts" 40 "int main() { return (5 << 3) >> 0; }";
  check_rv "sar" (-2) "int main() { return (-8) >> 2; }";
  check_rv "unsigned shr" 0x3FFFFFFE
    "int main() { unsigned x; x = 0xFFFFFFF8; return (int)(x >> 2); }"

let test_division () =
  check_rv "div" 6 "int main() { return 45 / 7; }";
  check_rv "mod" 3 "int main() { return 45 % 7; }";
  check_rv "div pow2" 11 "int main() { return 90 / 8; }"

let test_soft_division () =
  let options = { Codegen.default_options with Codegen.soft_div = true } in
  check_rv "soft div" 6 ~options ~cfg:Hw_config.no_hw_div "int main() { return 45 / 7; }";
  check_rv "soft mod" 3 ~options ~cfg:Hw_config.no_hw_div "int main() { return 45 % 7; }";
  check_rv "soft large" 13107 ~options ~cfg:Hw_config.no_hw_div
    "int main() { unsigned a; unsigned b; a = 0xCCCCCCCC; b = 0x40000; return (int)(a / b); }"

let test_comparisons () =
  check_rv "lt" 1 "int main() { return 3 < 4; }";
  check_rv "le" 1 "int main() { return 4 <= 4; }";
  check_rv "gt" 0 "int main() { return 3 > 4; }";
  check_rv "ge" 1 "int main() { return -1 >= -2; }";
  check_rv "eq" 0 "int main() { return 3 == 4; }";
  check_rv "ne" 1 "int main() { return 3 != 4; }";
  check_rv "signed vs unsigned" 1
    "int main() { unsigned a; a = 0xFFFFFFFF; return (-1 < 0) & (int)(a > 1); }";
  check_rv "logical not" 1 "int main() { return !0; }";
  check_rv "land shortcircuit" 7
    "int g = 7; int boom() { g = 0; return 1; } int main() { int x; x = 0 && boom(); return g; }";
  check_rv "lor shortcircuit" 7
    "int g = 7; int boom() { g = 0; return 1; } int main() { int x; x = 1 || boom(); return g; }";
  check_rv "land value" 1 "int main() { return 2 && 3; }";
  check_rv "lor value" 0 "int main() { return 0 || 0; }"

(* --- control flow --- *)

let test_if_else () =
  check_rv "if taken" 1 "int main() { if (2 < 3) { return 1; } return 0; }";
  check_rv "else taken" 2 "int main() { if (3 < 2) { return 1; } else { return 2; } }";
  check_rv "nested" 4
    "int main() { int x; x = 5; if (x < 3) { return 1; } else { if (x < 10) { return 4; } } return 0; }"

let test_loops () =
  check_rv "for sum" 55 "int main() { int s; int i; s = 0; for (i = 1; i <= 10; i = i + 1) { s = s + i; } return s; }";
  check_rv "while" 1024 "int main() { int x; x = 1; while (x < 1000) { x = x * 2; } return x; }";
  check_rv "do while" 1 "int main() { int x; x = 0; do { x = x + 1; } while (x < 1); return x; }";
  check_rv "break" 5 "int main() { int i; for (i = 0; i < 100; i = i + 1) { if (i == 5) { break; } } return i; }";
  check_rv "continue" 25
    "int main() { int s; int i; s = 0; for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s = s + i; } return s; }";
  check_rv "nested break" 9
    "int main() { int i; int j; int c; c = 0; for (i = 0; i < 3; i = i + 1) { for (j = 0; j < 10; j = j + 1) { if (j == 2) { break; } c = c + 1; } } return c + i; }"

let test_goto () =
  check_rv "goto forward" 3
    "int main() { int x; x = 1; goto skip; x = 2; skip: return x + 2; }";
  check_rv "goto loop" 10
    "int main() { int i; i = 0; again: i = i + 1; if (i < 10) { goto again; } return i; }"

(* --- data --- *)

let test_globals () =
  check_rv "global init" 17 "int g = 17; int main() { return g; }";
  check_rv "global write" 9 "int g; int main() { g = 4; g = g + 5; return g; }";
  check_rv "global array" 30
    "int a[4] = {10, 20}; int main() { a[2] = a[0] + a[1]; return a[2]; }";
  check_rv "scratch placement" 5 "scratch int fast = 5; int main() { return fast; }";
  check_rv "rom placement" 12 "rom int table[3] = {10, 1, 1}; int main() { return table[0] + table[1] + table[2]; }"

let test_arrays_pointers () =
  check_rv "local array" 6
    "int main() { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; return a[0] + a[1] + a[2]; }";
  check_rv "pointer deref" 7
    "int main() { int x; int *p; x = 7; p = &x; return *p; }";
  check_rv "pointer write" 9
    "int main() { int x; int *p; p = &x; *p = 9; return x; }";
  check_rv "pointer arith" 5
    "int a[4] = {2, 3, 5, 7}; int main() { int *p; p = a; return *(p + 2); }";
  check_rv "pointer index" 7
    "int a[4] = {2, 3, 5, 7}; int main() { int *p; p = a; return p[3]; }";
  check_rv "indirection chain" 11
    "int x = 11; int *p = 0; int main() { int **pp; p = &x; pp = &p; return **pp; }"

(* --- functions --- *)

let test_calls () =
  check_rv "two args" 12 "int add(int a, int b) { return a + b; } int main() { return add(5, 7); }";
  check_rv "four args" 10
    "int f(int a, int b, int c, int d) { return a + b + c + d; } int main() { return f(1, 2, 3, 4); }";
  check_rv "nested calls" 21
    "int add(int a, int b) { return a + b; } int main() { return add(add(1, 2), add(add(3, 4), add(5, 6))); }";
  check_rv "call in expr" 13
    "int sq(int x) { return x * x; } int main() { return sq(3) + sq(2); }";
  check_rv "void fn" 3
    "int g; void set(int v) { g = v; } int main() { set(3); return g; }"

let test_recursion () =
  check_rv "factorial" 120 "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); } int main() { return fact(5); }";
  check_rv "fib" 55
    "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } int main() { return fib(10); }";
  (* Declaration order is free (two-pass checking), so mutual recursion
     needs no prototypes. *)
  check_rv "mutual" 1
    "int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); } int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); } int main() { return is_odd(7); }"

let test_function_pointers () =
  check_rv "direct fptr" 8
    "int twice(int x) { return x * 2; } int main() { int (*f)(int); f = twice; return f(4); }";
  check_rv "fptr via amp" 8
    "int twice(int x) { return x * 2; } int main() { int (*f)(int); f = &twice; return f(4); }";
  check_rv "fptr selected at runtime" 9
    "int inc(int x) { return x + 1; } int sq(int x) { return x * x; } int sel; \
     int main() { int (*f)(int); sel = 1; if (sel) { f = sq; } else { f = inc; } return f(3); }";
  check_rv "fptr as argument" 10
    "int twice(int x) { return x * 2; } int apply(int (*f)(int), int x) { return f(x); } \
     int main() { return apply(twice, 5); }"

let test_varargs () =
  check_rv "sum varargs" 15
    "int sum(int n, ...) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + __va_arg(i); } return s; } \
     int main() { return sum(5, 1, 2, 3, 4, 5); }";
  check_rv "varargs empty" 0
    "int sum(int n, ...) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + __va_arg(i); } return s; } \
     int main() { return sum(0); }"

let test_malloc () =
  check_rv "malloc basic" 5
    "int main() { int *p; p = malloc(12); p[0] = 2; p[1] = 3; return p[0] + p[1]; }";
  check_rv "malloc distinct" 7
    "int main() { int *p; int *q; p = malloc(8); q = malloc(8); *p = 3; *q = 4; return *p + *q; }"

let test_setjmp () =
  check_rv "setjmp first return" 0
    "int buf[3]; int main() { int r; r = __setjmp(buf); if (r == 0) { return 0; } return r; }";
  check_rv "longjmp" 42
    "int buf[3]; void jumper() { __longjmp(buf, 42); } \
     int main() { int r; r = __setjmp(buf); if (r != 0) { return r; } jumper(); return 0; }";
  check_rv "longjmp loop" 3
    "int buf[3]; int count; void hop() { __longjmp(buf, 1); } \
     int main() { int r; count = 0; r = __setjmp(buf); count = count + r; if (count < 3) { hop(); } return count; }"

(* --- floats --- *)

let test_float_basic () =
  check_rv "float add" 5 "int main() { float a; float b; a = 2.25; b = 2.75; return (int)(a + b); }";
  check_rv "float sub" 3 "int main() { float a; a = 5.5; return (int)(a - 2.5); }";
  check_rv "float mul" 6 "int main() { float a; a = 2.5; return (int)(a * 2.5); }";
  check_rv "float div" 4 "int main() { float a; a = 10.0; return (int)(a / 2.5); }";
  check_rv "float cmp" 1 "int main() { float a; float b; a = 1.5; b = 2.5; return a < b; }";
  check_rv "float from int" 9 "int main() { int i; float f; i = 3; f = (float)i; return (int)(f * 3.0); }";
  check_rv "float neg" (-2) "int main() { float a; a = 2.5; return (int)(-a); }"

let test_float_loop () =
  (* The rule 13.4 pattern: a float-controlled counting loop. *)
  check_rv "float-controlled loop" 10
    "int main() { float f; int n; n = 0; for (f = 0.0; f < 10.0; f = f + 1.0) { n = n + 1; } return n; }"

(* --- io region access through casts --- *)

let test_io_access () =
  let program, sim, outcome =
    run_program
      "int main() { int *io; io = (int*)0xF0000000; *io = 77; return *io; }"
  in
  ignore program;
  ignore sim;
  match outcome with
  | Sim.Halted { return_value; _ } -> Alcotest.(check int) "io readback" 77 return_value
  | o -> Alcotest.failf "unexpected outcome %a" Sim.pp_outcome o

(* --- inputs poked from the harness --- *)

let test_poked_inputs () =
  check_rv "poked global" 4950
    ~pokes:[ ("n", 0, 100) ]
    "int n; int main() { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"

(* --- compound assignment, increments, ternary --- *)

let test_compound_assignment () =
  check_rv "plus-eq" 15 "int main() { int x; x = 5; x += 10; return x; }";
  check_rv "minus-eq" 3 "int main() { int x; x = 10; x -= 7; return x; }";
  check_rv "times-eq" 24 "int main() { int x; x = 6; x *= 4; return x; }";
  check_rv "div-eq" 5 "int main() { int x; x = 45; x /= 9; return x; }";
  check_rv "and-or-xor-eq" 14
    "int main() { int x; x = 12; x |= 3; x &= 14; x ^= 0; return x; }";
  check_rv "shift-eq" 20 "int main() { int x; x = 5; x <<= 2; return x; }";
  check_rv "compound on array" 9
    "int a[3]; int main() { a[1] = 4; a[1] += 5; return a[1]; }";
  check_rv "compound on deref" 11
    "int g; int main() { int *p; p = &g; *p = 4; *p += 7; return g; }"

let test_increments () =
  check_rv "for with i++" 10
    "int main() { int n; int i; n = 0; for (i = 0; i < 10; i++) { n = n + 1; } return n; }";
  check_rv "prefix" 6 "int main() { int x; x = 5; ++x; return x; }";
  check_rv "decrement countdown" 45
    "int main() { int s; int i; s = 0; for (i = 9; i > 0; i--) { s = s + i; } return s; }"

let test_increment_loop_still_bounded () =
  (* i++ loops must still get automatic bounds *)
  let program =
    Compile.compile
      "int main() { int s; int i; s = 0; for (i = 0; i < 10; i++) { s += i; } return s; }"
  in
  let report = Wcet_core.Analyzer.analyze program in
  Alcotest.(check bool) "analyzes automatically" true (report.Wcet_core.Analyzer.wcet > 0)

let test_ternary () =
  check_rv "ternary true" 7 "int main() { int x; x = 5; return x > 2 ? 7 : 9; }";
  check_rv "ternary false" 9 "int main() { int x; x = 1; return x > 2 ? 7 : 9; }";
  check_rv "nested ternary" 3
    "int main() { int x; x = 10; return x < 5 ? 1 : x < 15 ? 3 : 4; }";
  check_rv "ternary with calls" 8
    "int f(int v) { return v * 2; } int main() { int x; x = 1; return x ? f(4) : f(5); }";
  check_rv "ternary in expression" 25
    "int main() { int x; x = 0; return 5 * (x ? 3 : 5); }"

(* --- single-path code generation --- *)

let test_if_conversion_semantics () =
  (* if-converted code must compute exactly the same results *)
  let source =
    "int data; int main() { int i; int x; int acc; acc = 0; for (i = 0; i < 20; i = i + 1) { x = 1; if ((data >> (i & 31)) & 1) { x = i * 5; } acc = acc + x; } return acc; }"
  in
  let branchy = Compile.compile source in
  let single =
    Compile.compile
      ~options:{ Codegen.default_options with Codegen.if_conversion = true }
      source
  in
  (* the transform actually fires: fewer branch instructions *)
  let count_branches program =
    let main = Option.get (Pred32_asm.Program.find_function program "main") in
    Pred32_asm.Program.disassemble program main
    |> List.filter (fun (_, i) ->
           match i with Pred32_isa.Insn.Branch _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "if-conversion removes branches" true
    (count_branches single < count_branches branchy);
  List.iter
    (fun data ->
      let run program =
        let sim = Sim.create Hw_config.default program in
        Sim.poke_symbol sim "data" 0 data;
        match Sim.run sim with
        | Sim.Halted { return_value; _ } -> Word.to_signed return_value
        | o -> Alcotest.failf "did not halt: %a" Sim.pp_outcome o
      in
      Alcotest.(check int) (Printf.sprintf "same result for 0x%x" data) (run branchy)
        (run single))
    [ 0; -1; 0x12345678; 0xAAAAAAAA; 7 ]

(* --- consistency: hardware vs software division --- *)

let test_div_consistency () =
  let source =
    "unsigned a; unsigned b; int main() { return (int)((a / b) + (a % b) * 3); }"
  in
  let rng = Wcet_util.Pcg.create ~seed:99L () in
  for _ = 1 to 25 do
    let a = Int64.to_int (Wcet_util.Pcg.next_uint32 rng) in
    let b = Int64.to_int (Wcet_util.Pcg.next_uint32 rng) in
    let b = if b = 0 then 1 else b in
    let pokes = [ ("a", 0, a); ("b", 0, b) ] in
    let hw = run_rv ~pokes source in
    let sw =
      run_rv ~options:{ Codegen.default_options with Codegen.soft_div = true } ~cfg:Hw_config.no_hw_div ~pokes source
    in
    Alcotest.(check int) (Printf.sprintf "divmod 0x%x / 0x%x" a b) hw sw
  done

(* --- errors --- *)

let expect_error source =
  match Compile.compile source with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.failf "expected a compile error for: %s" source

let test_errors () =
  expect_error "int main() { return x; }";
  expect_error "int main() { return f(1); }";
  expect_error "int main() { int x; int x; return 0; }";
  expect_error "int f(int a) { return a; } int main() { return f(); }";
  expect_error "int f(int a) { return a; } int main() { return f(1, 2); }";
  expect_error "int main() { goto nowhere; }";
  expect_error "int main() { break; }";
  expect_error "int main() { continue; return 0; }";
  expect_error "int main() { return 1.5 % 2.0; }";
  expect_error "int a[3]; int main() { a = 0; return 0; }";
  expect_error "float f(float x) { return x; } int main() { return 0; }";
  expect_error "int main() { int x; return *x; }"

(* --- runtime scan --- *)

(* The in-place substring scan against the obvious [String.sub] one, on
   seeded random strings over a small alphabet (so matches, near misses and
   overlapping prefixes are common), plus the edge cases by name. *)
let test_contains_substring () =
  let reference haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  let check haystack needle =
    Alcotest.(check bool)
      (Printf.sprintf "%S in %S" needle haystack)
      (reference haystack needle)
      (Compile.contains_substring haystack needle)
  in
  check "" "";
  check "abc" "";
  check "" "a";
  check "__udiv32" "__udiv32";
  check "x = __udiv32" "__udiv32";
  check "x = __udiv3" "__udiv32";
  check "aaab" "aab";
  check "abababc" "ababc";
  check "abab" "ababc";
  let rng = Wcet_util.Pcg.create ~seed:20110318L () in
  let random len = String.init len (fun _ -> "ab_".[Wcet_util.Pcg.next_int rng 3]) in
  let found = ref 0 in
  for _ = 1 to 2000 do
    let haystack = random (Wcet_util.Pcg.next_int rng 24) in
    let needle = random (Wcet_util.Pcg.next_int rng 5) in
    if reference haystack needle then incr found;
    check haystack needle
  done;
  Alcotest.(check bool) "both outcomes drawn" true (!found > 200 && !found < 1800)

(* --- compiled images --- *)

(* Every corpus scenario (both variants, with its codegen options) and every
   examples/*.mc, compiled: one line per program naming it and the digest
   of its entry point, its symbol table and its image contents. The golden
   file pins the compiler's output, so a front-end change that should not
   alter code shows it did not. *)
let image_digests () =
  let digest (p : Pred32_asm.Program.t) =
    let b = Buffer.create 4096 in
    Printf.bprintf b "entry %x\n" p.Pred32_asm.Program.entry;
    List.iter
      (fun (name, addr) -> Printf.bprintf b "sym %s %x\n" name addr)
      (List.sort compare p.Pred32_asm.Program.symbols);
    List.iter
      (fun (addr, w) -> Printf.bprintf b "%x %x\n" addr w)
      (Pred32_memory.Image.contents p.Pred32_asm.Program.image);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let corpus =
    List.concat_map
      (fun (e : Wcet_corpus.Corpus.entry) ->
        List.map
          (fun (variant, (s : Wcet_corpus.Corpus.scenario)) ->
            let p = Compile.compile ~options:s.Wcet_corpus.Corpus.options s.Wcet_corpus.Corpus.source in
            Printf.sprintf "corpus/%s/%s %s" e.Wcet_corpus.Corpus.id variant (digest p))
          [ ("conforming", e.Wcet_corpus.Corpus.conforming); ("violating", e.Wcet_corpus.Corpus.violating) ])
      Wcet_corpus.Corpus.all
  in
  let examples =
    Sys.readdir Examples_dir.dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           let source = In_channel.with_open_bin (Examples_dir.file f) In_channel.input_all in
           Printf.sprintf "examples/%s %s" f (digest (Compile.compile source)))
  in
  corpus @ examples

let test_images_pinned () =
  let golden =
    In_channel.with_open_bin (Examples_dir.beside "compiled_images.golden") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "compiled images" golden (image_digests ())

let () =
  Alcotest.run "minic"
    [
      ( "basics",
        [
          Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "software division" `Quick test_soft_division;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
        ] );
      ( "control",
        [
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "goto" `Quick test_goto;
        ] );
      ( "data",
        [
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "arrays and pointers" `Quick test_arrays_pointers;
          Alcotest.test_case "io via cast" `Quick test_io_access;
          Alcotest.test_case "poked inputs" `Quick test_poked_inputs;
        ] );
      ( "functions",
        [
          Alcotest.test_case "calls" `Quick test_calls;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "function pointers" `Quick test_function_pointers;
          Alcotest.test_case "varargs" `Quick test_varargs;
          Alcotest.test_case "malloc" `Quick test_malloc;
          Alcotest.test_case "setjmp/longjmp" `Quick test_setjmp;
        ] );
      ( "float",
        [
          Alcotest.test_case "soft float ops" `Quick test_float_basic;
          Alcotest.test_case "float-controlled loop" `Quick test_float_loop;
        ] );
      ( "sugar",
        [
          Alcotest.test_case "compound assignment" `Quick test_compound_assignment;
          Alcotest.test_case "increments" `Quick test_increments;
          Alcotest.test_case "i++ loops bounded" `Quick test_increment_loop_still_bounded;
          Alcotest.test_case "ternary" `Quick test_ternary;
        ] );
      ( "single-path",
        [ Alcotest.test_case "if-conversion preserves semantics" `Quick
            test_if_conversion_semantics ] );
      ( "consistency",
        [ Alcotest.test_case "hw vs soft division" `Quick test_div_consistency ] );
      ("errors", [ Alcotest.test_case "rejected programs" `Quick test_errors ]);
      ( "images",
        [
          Alcotest.test_case "runtime scan" `Quick test_contains_substring;
          Alcotest.test_case "compiled images pinned" `Quick test_images_pinned;
        ] );
    ]
