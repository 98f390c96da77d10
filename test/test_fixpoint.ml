(* Tests for the shared fixpoint engine (RPO priority worklist) and the
   domain pool: worklist determinism, widening-delay behavior, the
   whole-program solve's pinned work counts, its budget and cancellation,
   and parallel-vs-serial equality of the sharded histogram and the E1/E2
   corpus tables. *)

module Fixpoint = Wcet_util.Fixpoint
module Parallel = Wcet_util.Parallel
module Ldivmod = Softarith.Ldivmod
module Harness = Wcet_experiments.Harness
module Corpus = Wcet_corpus.Corpus

(* Tiny reachability domain: node -> bit set of facts. *)
module Bits = struct
  type t = int

  let leq a b = a land b = a
  let join = ( lor )
  let widen = ( lor )
end

module FP = Fixpoint.Make (Bits)

let test_reachability () =
  (* Diamond with a back edge: 0 -> 1 -> 2 -> 3, 1 -> 3, 3 -> 1. *)
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2; 3 ]
    | 2 -> [ 3 ]
    | 3 -> [ 1 ]
    | _ -> []
  in
  let result =
    FP.solve
      {
        FP.num_nodes = 5;
        entries = [ (0, 1) ];
        succs;
        transfer = (fun _ s -> s);
        widening_points = (fun n -> n = 1);
        widening_delay = 2;
      }
  in
  List.iter
    (fun n -> Alcotest.(check (option int)) "reachable" (Some 1) (result.FP.in_state n))
    [ 0; 1; 2; 3 ];
  Alcotest.(check (option int)) "node 4 unreachable" None (result.FP.in_state 4)

let test_transfer_composition () =
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2 ]
    | _ -> []
  in
  let result =
    FP.solve
      {
        FP.num_nodes = 3;
        entries = [ (0, 1) ];
        succs;
        transfer = (fun n s -> s lor (1 lsl (n + 1)));
        widening_points = (fun _ -> false);
        widening_delay = 10;
      }
  in
  Alcotest.(check (option int)) "out of 0" (Some 0b11) (result.FP.out_state 0);
  Alcotest.(check (option int)) "in of 2" (Some 0b111) (result.FP.in_state 2);
  Alcotest.(check (option int)) "out of 2" (Some 0b1111) (result.FP.out_state 2)

let test_rpo_index () =
  (* 0 -> {1, 2}, 1 -> 3, 2 -> 3: entry first, join point last. *)
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 3 ]
    | _ -> []
  in
  let index = Fixpoint.rpo_index ~num_nodes:5 ~entries:[ 0 ] ~succs in
  Alcotest.(check int) "entry first" 0 index.(0);
  Alcotest.(check bool) "join after both branches" true
    (index.(3) > index.(1) && index.(3) > index.(2));
  Alcotest.(check int) "unreachable gets max_int" max_int index.(4)

(* A ladder of diamonds feeding a loop: joins at every diamond and a
   back edge into the loop head. *)
let ladder_problem () =
  (* Nodes 0..9 chain of diamonds; 10..12 loop: 10 -> 11 -> 12 -> 10. *)
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 3 ]
    | 3 -> [ 4; 5 ]
    | 4 -> [ 6 ]
    | 5 -> [ 6 ]
    | 6 -> [ 7; 8 ]
    | 7 -> [ 9 ]
    | 8 -> [ 9 ]
    | 9 -> [ 10 ]
    | 10 -> [ 11 ]
    | 11 -> [ 12 ]
    | 12 -> [ 10 ]
    | _ -> []
  in
  {
    FP.num_nodes = 13;
    entries = [ (0, 1) ];
    succs;
    transfer = (fun n s -> s lor (1 lsl (n mod 8)));
    widening_points = (fun n -> n = 10);
    widening_delay = 2;
  }

let test_deterministic () =
  let a = FP.solve (ladder_problem ()) in
  let b = FP.solve (ladder_problem ()) in
  Alcotest.(check int) "same transfer count" a.FP.transfers b.FP.transfers;
  for n = 0 to 12 do
    Alcotest.(check (option int))
      (Printf.sprintf "same state at %d" n)
      (a.FP.in_state n) (b.FP.in_state n)
  done

(* Widening delay: an unbounded counter loop must be widened to converge.
   The widening maps any strict growth to a sentinel "top". *)
module Counter = struct
  type t = int

  let top = 1_000_000
  let leq a b = a <= b
  let join = max
  let widen a b = if b > a then top else a
end

module FPC = Fixpoint.Make (Counter)

let counter_problem ~widening_delay =
  (* 0 -> 1 -> 2 -> 1 (loop incrementing a counter at node 2). *)
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2 ]
    | 2 -> [ 1 ]
    | _ -> []
  in
  {
    FPC.num_nodes = 3;
    entries = [ (0, 0) ];
    succs;
    transfer = (fun n s -> if n = 2 then min (s + 1) Counter.top else s);
    widening_points = (fun n -> n = 1);
    widening_delay;
  }

let test_widening_delay () =
  (* With a small delay the loop head reaches top quickly and the solver
     terminates; a longer delay admits more pre-widening refinement, so it
     can never take fewer transfers. *)
  let fast = FPC.solve (counter_problem ~widening_delay:2) in
  let slow = FPC.solve (counter_problem ~widening_delay:8) in
  Alcotest.(check (option int)) "widened to top (delay 2)" (Some Counter.top) (fast.FPC.in_state 1);
  Alcotest.(check (option int)) "widened to top (delay 8)" (Some Counter.top) (slow.FPC.in_state 1);
  Alcotest.(check bool)
    (Printf.sprintf "delay 2 (%d) <= delay 8 (%d) transfers" fast.FPC.transfers
       slow.FPC.transfers)
    true
    (fast.FPC.transfers <= slow.FPC.transfers)

(* Two sibling counter loops below one entry: 0 -> {1, 3}, 1 <-> 2 and
   3 <-> 4. *)
let sibling_loops_problem () =
  let succs = function
    | 0 -> [ 1; 3 ]
    | 1 -> [ 2 ]
    | 2 -> [ 1 ]
    | 3 -> [ 4 ]
    | 4 -> [ 3 ]
    | _ -> []
  in
  {
    FPC.num_nodes = 5;
    entries = [ (0, 0) ];
    succs;
    transfer = (fun n s -> if n = 2 || n = 4 then min (s + 1) Counter.top else s);
    widening_points = (fun n -> n = 1 || n = 3);
    widening_delay = 4;
  }

(* The whole-program solve's work on the ladder and counter problems:
   (transfers, widenings, joins, max_pending). *)
let check_counts what (t, w, j, mp) (transfers, widenings, joins, max_pending) =
  Alcotest.(check (list int))
    (what ^ ": transfers, widenings, joins, max_pending")
    [ t; w; j; mp ]
    [ transfers; widenings; joins; max_pending ]

let test_solve_counts_pinned () =
  let r = FP.solve (ladder_problem ()) in
  check_counts "ladder" (13, 0, 3, 2) (r.FP.transfers, r.FP.widenings, r.FP.joins, r.FP.max_pending);
  let states =
    [| (1, 1); (1, 3); (1, 5); (7, 15); (15, 31); (15, 47); (63, 127); (127, 255); (127, 127);
       (255, 255); (255, 255); (255, 255); (255, 255) |]
  in
  Array.iteri
    (fun n (i, o) ->
      Alcotest.(check (option int)) (Printf.sprintf "ladder in %d" n) (Some i) (r.FP.in_state n);
      Alcotest.(check (option int)) (Printf.sprintf "ladder out %d" n) (Some o) (r.FP.out_state n))
    states;
  List.iter
    (fun (delay, counts) ->
      let r = FPC.solve (counter_problem ~widening_delay:delay) in
      let what = Printf.sprintf "counter (delay %d)" delay in
      check_counts what counts (r.FPC.transfers, r.FPC.widenings, r.FPC.joins, r.FPC.max_pending);
      List.iter
        (fun (n, s) ->
          Alcotest.(check (option int)) (Printf.sprintf "%s: in %d" what n) (Some s)
            (r.FPC.in_state n);
          Alcotest.(check (option int)) (Printf.sprintf "%s: out %d" what n) (Some s)
            (r.FPC.out_state n))
        [ (0, 0); (1, Counter.top); (2, Counter.top) ])
    [ (2, (7, 1, 3, 1)); (8, (19, 1, 15, 1)) ]

let test_budget () =
  let exhausted = Failure "fixpoint did not converge within budget" in
  Alcotest.check_raises "budget exhausted" exhausted (fun () ->
      ignore (FPC.solve ~budget:3 (counter_problem ~widening_delay:1000)));
  (* The budget caps the transfers of the whole solve, both loops included:
     one transfer short fails, the exact count suffices. *)
  let p = sibling_loops_problem () in
  let needed = (FPC.solve p).FPC.transfers in
  Alcotest.check_raises "solve: one transfer short" exhausted (fun () ->
      ignore (FPC.solve ~budget:(needed - 1) p));
  Alcotest.(check int) "the exact budget suffices" needed
    (FPC.solve ~budget:needed p).FPC.transfers

(* A token that trips on its k-th poll stops the solve after at most k
   transfers; one that never trips in time changes nothing. The daemon's
   per-request deadlines rest on this. *)
let test_cancel () =
  let whole = FP.solve (ladder_problem ()) in
  for k = 1 to whole.FP.transfers + 1 do
    let polls = ref 0 and transferred = ref 0 in
    let cancel () =
      incr polls;
      !polls >= k
    in
    let p = ladder_problem () in
    let p =
      {
        p with
        FP.transfer =
          (fun n s ->
            incr transferred;
            p.FP.transfer n s);
      }
    in
    match FP.solve ~cancel p with
    | exception Fixpoint.Cancelled ->
      Alcotest.(check bool)
        (Printf.sprintf "trip on poll %d: %d transfers" k !transferred)
        true (!transferred <= k)
    | r ->
      Alcotest.(check bool)
        (Printf.sprintf "poll %d is past the last transfer" k)
        true (k > whole.FP.transfers);
      Alcotest.(check int) "uncancelled transfer count" whole.FP.transfers r.FP.transfers;
      for n = 0 to 12 do
        Alcotest.(check (option int))
          (Printf.sprintf "uncancelled state at %d" n)
          (whole.FP.in_state n) (r.FP.in_state n)
      done
  done

(* --- domain pool --- *)

let test_pool_order () =
  let results = Parallel.map ~domains:4 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "ordered results" (Array.init 100 (fun i -> i * i)) results

let test_pool_serial_equals_parallel () =
  let f i = (i * 7919) mod 257 in
  Alcotest.(check (array int))
    "serial = parallel"
    (Parallel.map ~domains:1 64 f)
    (Parallel.map ~domains:4 64 f)

let test_pool_exception () =
  Alcotest.check_raises "first failing task wins" (Failure "task 3") (fun () ->
      ignore
        (Parallel.map ~domains:4 16 (fun i ->
             if i >= 3 then failwith (Printf.sprintf "task %d" i) else i)))

let test_pool_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~domains:4 0 (fun i -> i));
  Alcotest.(check (array int)) "single" [| 42 |] (Parallel.map ~domains:4 1 (fun _ -> 42))

(* --- parallel-vs-serial equality of the paper artifacts --- *)

let test_histogram_bit_identical () =
  (* >= 1024 samples so the sharded path (64 shards) is exercised. *)
  let serial = Ldivmod.histogram ~domains:1 ~samples:200_000 ~seed:20110318L () in
  let parallel = Ldivmod.histogram ~domains:4 ~samples:200_000 ~seed:20110318L () in
  Alcotest.(check bool) "histogram + witnesses identical" true (serial = parallel)

let render table =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  table ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_tables_domain_independent () =
  (* A slice of E1 and E2 through the real table renderer: the printed
     bytes must not depend on the domain count. *)
  let entries =
    List.filter_map Corpus.find [ "13.6"; "16.2"; "modes" ]
  in
  Alcotest.(check int) "have 3 entries" 3 (List.length entries);
  let serial = render (fun ppf -> Harness.table_of ~domains:1 entries ppf "slice") in
  let parallel = render (fun ppf -> Harness.table_of ~domains:4 entries ppf "slice") in
  Alcotest.(check string) "table bytes identical" serial parallel

let () =
  Alcotest.run "fixpoint"
    [
      ( "engine",
        [
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "transfer composition" `Quick test_transfer_composition;
          Alcotest.test_case "rpo index" `Quick test_rpo_index;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "widening delay" `Quick test_widening_delay;
          Alcotest.test_case "solve counts pinned" `Quick test_solve_counts_pinned;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "cancel stops within k transfers" `Quick test_cancel;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick test_pool_order;
          Alcotest.test_case "serial = parallel" `Quick test_pool_serial_equals_parallel;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "empty and single" `Quick test_pool_empty_and_single;
        ] );
      ( "parallel-artifacts",
        [
          Alcotest.test_case "histogram bit-identical" `Quick test_histogram_bit_identical;
          Alcotest.test_case "E1/E2 tables domain-independent" `Quick
            test_tables_domain_independent;
        ] );
    ]
