(* Tests for the decoding/CFG, value-analysis and loop-bound layers. *)

module Compile = Minic.Compile
module Supergraph = Wcet_cfg.Supergraph
module Loops = Wcet_cfg.Loops
module Resolver = Wcet_cfg.Resolver
module Analysis = Wcet_value.Analysis
module Loop_bounds = Wcet_value.Loop_bounds
module Aval = Wcet_value.Aval

let build ?resolver source =
  let program = Compile.compile source in
  (program, Wcet_value.Resolve_iter.build ?resolver program)

let analyze ?resolver ?(assumes = []) source =
  let program, graph = build ?resolver source in
  let loops = Loops.analyze graph in
  let assumes =
    List.map (fun (sym, lo, hi) -> (Pred32_asm.Program.symbol program sym, Aval.interval lo hi)) assumes
  in
  let result = Analysis.run ~assumes graph loops in
  (program, graph, loops, result)

let loop_verdicts ?resolver ?assumes source =
  let _, _, loops, result = analyze ?resolver ?assumes source in
  let bounds = Loop_bounds.analyze result loops in
  Array.to_list bounds.Loop_bounds.per_loop

(* --- graph construction --- *)

let test_linear_graph () =
  let _, graph = build "int main() { return 1; }" in
  Alcotest.(check bool) "has nodes" true (Array.length graph.Supergraph.nodes >= 3);
  Alcotest.(check bool) "has exit" true (Supergraph.exits graph <> [])

let test_call_contexts () =
  let _, graph =
    build "int f(int x) { return x + 1; } int main() { return f(1) + f(2); }"
  in
  (* two call sites -> two contexts for f, plus main and __start *)
  let ctxs = Array.to_list graph.Supergraph.contexts in
  let f_ctxs = List.filter (fun c -> c.Supergraph.cfunc = "f") ctxs in
  Alcotest.(check int) "two f contexts" 2 (List.length f_ctxs)

let test_recursion_needs_annotation () =
  let source = "int f(int n) { if (n < 1) { return 0; } return f(n - 1); } int main() { return f(3); }" in
  let program = Compile.compile source in
  (match Supergraph.build program with
  | exception Supergraph.Build_error msg ->
    Alcotest.(check bool) "mentions recursion" true
      (Astring.String.is_infix ~affix:"recursion" msg)
  | _ -> Alcotest.fail "expected recursion build error");
  (* with an annotation it builds *)
  let resolver =
    Resolver.with_overrides ~recursion_depths:[ ("f", 4) ] (Resolver.auto program)
  in
  let graph = Supergraph.build ~resolver program in
  let f_ctxs =
    Array.to_list graph.Supergraph.contexts
    |> List.filter (fun c -> c.Supergraph.cfunc = "f")
  in
  Alcotest.(check int) "unrolled contexts" 5 (List.length f_ctxs)

let test_unresolved_fptr_fails () =
  (* A function pointer from an input-dependent selection cannot be
     auto-resolved: loaded from mutable RAM. *)
  let source =
    "int a() { return 1; } int b() { return 2; } int sel; int (*fp)(int); \
     int g(int x) { return x; } \
     int main() { if (sel) { fp = a; } else { fp = b; } return fp(0); }"
  in
  let program = Compile.compile source in
  match Wcet_value.Resolve_iter.build program with
  | exception Supergraph.Build_error msg ->
    Alcotest.(check bool) "mentions indirect" true
      (Astring.String.is_infix ~affix:"indirect call" msg)
  | _ -> Alcotest.fail "expected indirect-call build error"

let test_constant_fptr_resolves () =
  (* rule-conforming: the pointer is materialized as a constant right at the
     call. *)
  let source = "int a(int x) { return x + 1; } int main() { int (*f)(int); f = a; return f(1); }"
  in
  let _, graph = build source in
  let a_ctxs =
    Array.to_list graph.Supergraph.contexts |> List.filter (fun c -> c.Supergraph.cfunc = "a")
  in
  Alcotest.(check int) "resolved" 1 (List.length a_ctxs)

(* --- loops --- *)

let test_loop_detection () =
  let _, _, loops, _ =
    analyze "int main() { int s; int i; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
  in
  Alcotest.(check int) "one loop" 1 (Array.length loops.Loops.loops);
  Alcotest.(check int) "no irreducible" 0 (List.length loops.Loops.irreducible)

let test_nested_loops () =
  let _, _, loops, _ =
    analyze
      "int main() { int s; int i; int j; s = 0; for (i = 0; i < 4; i = i + 1) { for (j = 0; j < 6; j = j + 1) { s = s + 1; } } return s; }"
  in
  Alcotest.(check int) "two loops" 2 (Array.length loops.Loops.loops);
  let depths = Array.to_list loops.Loops.loops |> List.map (fun l -> l.Loops.depth) in
  Alcotest.(check (list int)) "nesting depths" [ 1; 2 ] (List.sort compare depths)

let test_irreducible_goto () =
  (* Two-entry cycle via goto into the loop middle. *)
  let source =
    "int g; int main() { int i; i = 0; if (g) { goto inside; } \
     top: i = i + 1; inside: i = i + 2; if (i < 50) { goto top; } return i; }"
  in
  let _, _, loops, _ = analyze source in
  Alcotest.(check bool) "irreducible region found" true (loops.Loops.irreducible <> [])

(* --- value analysis --- *)

let test_unreachable_branch () =
  let _, graph, _, result =
    analyze "int main() { int x; x = 3; if (x > 5) { return 100; } return 1; }"
  in
  let unreachable =
    Array.to_list graph.Supergraph.nodes
    |> List.filter (fun n -> not (Analysis.reachable result n.Supergraph.id))
  in
  Alcotest.(check bool) "some node is unreachable" true (unreachable <> [])

let test_mode_exclusion_via_assume () =
  (* Design-level information: mode is pinned to 1 by an assume; the mode-2
     branch becomes unreachable. *)
  let source =
    "int mode; int main() { if (mode == 2) { return 100; } return 1; }"
  in
  let _, graph, _, result = analyze ~assumes:[ ("mode", 1, 1) ] source in
  let unreachable =
    Array.to_list graph.Supergraph.nodes
    |> List.filter (fun n -> not (Analysis.reachable result n.Supergraph.id))
  in
  Alcotest.(check bool) "mode-2 path excluded" true (unreachable <> []);
  (* without the assume everything is reachable *)
  let _, graph2, _, result2 = analyze source in
  let unreachable2 =
    Array.to_list graph2.Supergraph.nodes
    |> List.filter (fun n -> not (Analysis.reachable result2 n.Supergraph.id))
  in
  Alcotest.(check int) "all reachable without assume" 0 (List.length unreachable2)

(* --- loop bounds --- *)

let test_simple_counter_bound () =
  let verdicts =
    loop_verdicts
      "int main() { int s; int i; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded n ] -> Alcotest.(check int) "bound 10" 10 n
  | _ -> Alcotest.fail "expected one bounded loop"

let test_le_bound () =
  let verdicts =
    loop_verdicts
      "int main() { int s; int i; s = 0; for (i = 1; i <= 10; i = i + 1) { s = s + i; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded n ] -> Alcotest.(check int) "bound 10" 10 n
  | _ -> Alcotest.fail "expected one bounded loop"

let test_step_bound () =
  let verdicts =
    loop_verdicts
      "int main() { int s; int i; s = 0; for (i = 0; i < 10; i = i + 3) { s = s + i; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded n ] -> Alcotest.(check int) "bound 4" 4 n
  | _ -> Alcotest.fail "expected one bounded loop"

let test_countdown_bound () =
  let verdicts =
    loop_verdicts
      "int main() { int s; int i; s = 0; for (i = 10; i > 0; i = i - 1) { s = s + i; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded n ] -> Alcotest.(check int) "bound 10" 10 n
  | _ -> Alcotest.fail "expected one bounded loop"

let test_while_bound () =
  let verdicts =
    loop_verdicts "int main() { int i; i = 0; while (i < 32) { i = i + 2; } return i; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded n ] -> Alcotest.(check int) "bound 16" 16 n
  | _ -> Alcotest.fail "expected one bounded loop"

let test_input_dependent_unbounded () =
  let verdicts =
    loop_verdicts
      "int n; int main() { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + 1; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Unbounded _ ] -> ()
  | [ Loop_bounds.Bounded n ] -> Alcotest.failf "unexpected bound %d" n
  | _ -> Alcotest.fail "expected one loop"

let test_assume_bounds_input_loop () =
  (* The paper's design-level remedy: an assume annotation on the input. *)
  let verdicts =
    loop_verdicts
      ~assumes:[ ("n", 0, 100) ]
      "int n; int main() { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + 1; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded b ] -> Alcotest.(check int) "bound 100" 100 b
  | _ -> Alcotest.fail "expected a bounded loop"

let test_modified_counter_unbounded () =
  (* rule 13.6 violation: counter also updated data-dependently in the
     body. *)
  let verdicts =
    loop_verdicts
      "int g; int main() { int s; int i; s = 0; for (i = 0; i < 10; i = i + 1) { if (g) { i = i * 2; } s = s + 1; } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Unbounded _ ] -> ()
  | [ Loop_bounds.Bounded n ] -> Alcotest.failf "unexpected bound %d" n
  | _ -> Alcotest.fail "expected one loop"

let test_float_loop_unbounded () =
  (* rule 13.4 violation: the controlling expression is a float compare,
     compiled to a library call; plus the soft-float library's own
     data-dependent normalization loops. *)
  let verdicts =
    loop_verdicts
      "int main() { float f; int n; n = 0; for (f = 0.0; f < 10.0; f = f + 1.0) { n = n + 1; } return n; }"
  in
  let has_unbounded =
    List.exists (function Loop_bounds.Unbounded _ -> true | _ -> false) verdicts
  in
  Alcotest.(check bool) "float loop not bounded automatically" true has_unbounded

let test_nested_bounds () =
  let verdicts =
    loop_verdicts
      "int main() { int s; int i; int j; s = 0; for (i = 0; i < 4; i = i + 1) { for (j = 0; j < 6; j = j + 1) { s = s + 1; } } return s; }"
  in
  let bounds =
    List.filter_map (function Loop_bounds.Bounded n -> Some n | _ -> None) verdicts
  in
  Alcotest.(check (list int)) "bounds 4 and 6" [ 4; 6 ] (List.sort compare bounds)

let test_call_in_loop_bound_survives () =
  let verdicts =
    loop_verdicts
      "int f(int x) { return x * 2; } \
       int main() { int s; int i; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + f(i); } return s; }"
  in
  match verdicts with
  | [ Loop_bounds.Bounded n ] -> Alcotest.(check int) "bound 8" 8 n
  | _ -> Alcotest.fail "expected one bounded loop"

(* --- block transfers own their state --- *)

module State = Wcet_value.State

let read_example f = In_channel.with_open_bin (Examples_dir.file f) In_channel.input_all
let aliasing_examples = [ "quickstart.mc"; "callgraph.mc"; "relational.mc"; "modal_task.mc" ]

(* A block transfer edits one register file of its own: applied twice to
   one in-state it gives equal out-states, each in fresh arrays, and the
   in-state's registers and origins are what they were, cell for cell. *)
let test_transfer_aliasing () =
  let checked = ref 0 in
  List.iter
    (fun f ->
      let _, graph, _, result = analyze (read_example f) in
      Array.iteri
        (fun i -> function
          | None -> ()
          | Some (st : State.t) ->
            let regs = Array.copy st.State.regs and origins = Array.copy st.State.origins in
            let node = graph.Supergraph.nodes.(i) in
            let step () = Analysis.path_step (Analysis.path_ctx result) st node in
            let a = step () and b = step () in
            if a <> b then Alcotest.failf "%s node %d: two transfers differ" f i;
            if a.State.regs == st.State.regs || a.State.origins == st.State.origins then
              Alcotest.failf "%s node %d: the out-state shares the in-state's arrays" f i;
            if
              not
                (Array.for_all2 ( == ) regs st.State.regs
                && Array.for_all2 ( = ) origins st.State.origins)
            then Alcotest.failf "%s node %d: the transfer wrote its in-state" f i;
            incr checked)
        result.Analysis.node_in)
    aliasing_examples;
  Alcotest.(check bool) "states checked" true (!checked > 50)

(* The same under the interval x octagon product: the escalation seeds
   its entries with the base in-states themselves, so a product transfer
   that wrote its input would change the base result, and a second
   escalation of the same base would differ from the first. *)
let test_product_aliasing () =
  let annot =
    match Wcet_annot.Annot.parse (read_example "relational.annot") with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let program, graph = build (read_example "relational.mc") in
  let assumes =
    List.map
      (fun (sym, lo, hi) -> (Pred32_asm.Program.symbol program sym, Aval.interval lo hi))
      annot.Wcet_annot.Annot.assumes
  in
  let loops = Loops.analyze graph in
  let base = Analysis.run ~assumes graph loops in
  let snapshot = Marshal.to_string (base.Analysis.node_in, base.Analysis.node_out) [] in
  let escalate () = Analysis.escalate ~assumes ~funcs:[ "main" ] base loops in
  let e1 = escalate () in
  let e2 = escalate () in
  Alcotest.(check int) "octagon transfers" e1.Analysis.esc_transfers e2.Analysis.esc_transfers;
  Alcotest.(check bool) "escalated in-states equal" true
    (e1.Analysis.esc_result.Analysis.node_in = e2.Analysis.esc_result.Analysis.node_in);
  Alcotest.(check bool) "escalated out-states equal" true
    (e1.Analysis.esc_result.Analysis.node_out = e2.Analysis.esc_result.Analysis.node_out);
  Alcotest.(check bool) "escalated accesses equal" true
    (e1.Analysis.esc_result.Analysis.accesses = e2.Analysis.esc_result.Analysis.accesses);
  Alcotest.(check bool) "base states untouched" true
    (Marshal.from_string snapshot 0 = (base.Analysis.node_in, base.Analysis.node_out))

let () =
  Alcotest.run "analysis"
    [
      ( "graph",
        [
          Alcotest.test_case "linear" `Quick test_linear_graph;
          Alcotest.test_case "call contexts" `Quick test_call_contexts;
          Alcotest.test_case "recursion annotation" `Quick test_recursion_needs_annotation;
          Alcotest.test_case "unresolved fptr" `Quick test_unresolved_fptr_fails;
          Alcotest.test_case "constant fptr" `Quick test_constant_fptr_resolves;
        ] );
      ( "loops",
        [
          Alcotest.test_case "detection" `Quick test_loop_detection;
          Alcotest.test_case "nesting" `Quick test_nested_loops;
          Alcotest.test_case "irreducible goto" `Quick test_irreducible_goto;
        ] );
      ( "value",
        [
          Alcotest.test_case "unreachable branch" `Quick test_unreachable_branch;
          Alcotest.test_case "mode exclusion" `Quick test_mode_exclusion_via_assume;
          Alcotest.test_case "transfer aliasing" `Quick test_transfer_aliasing;
          Alcotest.test_case "product transfer aliasing" `Quick test_product_aliasing;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "simple counter" `Quick test_simple_counter_bound;
          Alcotest.test_case "inclusive limit" `Quick test_le_bound;
          Alcotest.test_case "step 3" `Quick test_step_bound;
          Alcotest.test_case "countdown" `Quick test_countdown_bound;
          Alcotest.test_case "while" `Quick test_while_bound;
          Alcotest.test_case "input-dependent" `Quick test_input_dependent_unbounded;
          Alcotest.test_case "assume bounds input" `Quick test_assume_bounds_input_loop;
          Alcotest.test_case "modified counter" `Quick test_modified_counter_unbounded;
          Alcotest.test_case "float loop" `Quick test_float_loop_unbounded;
          Alcotest.test_case "nested" `Quick test_nested_bounds;
          Alcotest.test_case "call in loop" `Quick test_call_in_loop_bound_survives;
        ] );
    ]
