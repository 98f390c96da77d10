(* Octagon domain: DBM lattice laws, soundness of the escalation against
   the interval baseline (refined states below the interval states on
   random programs), widening termination, and the end-to-end discharge
   fixtures (A0505 input-dependent != exits, A0509 imprecise accesses). *)

module Octagon = Wcet_value.Octagon
module Analysis = Wcet_value.Analysis
module Loop_bounds = Wcet_value.Loop_bounds
module State = Wcet_value.State
module Aval = Wcet_value.Aval
module Supergraph = Wcet_cfg.Supergraph
module Loops = Wcet_cfg.Loops
module Analyzer = Wcet_core.Analyzer
module Audit = Misra.Audit
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Corpus = Wcet_corpus.Corpus
module Annot = Wcet_annot.Annot
module Pcg = Wcet_util.Pcg
module Harness = Wcet_experiments.Harness

(* ---- DBM unit and property tests ------------------------------------ *)

let test_closure_laws () =
  let o = Octagon.top 4 in
  let o = Octagon.assign_interval o 0 (0, 10) in
  let o = Octagon.assign_interval o 1 (5, 5) in
  (* x0 - x1 <= 2  and  x1 <= 5  must close to  x0 <= 7 *)
  let o = Octagon.add_diff o ~u:0 ~v:1 2 in
  (match Octagon.var_bounds o 0 with
  | _, Some hi -> Alcotest.(check bool) "closure derives x0 <= 7" true (hi <= 7)
  | _, None -> Alcotest.fail "x0 unbounded after closure");
  (* full Floyd-Warshall closure is idempotent and a no-op on the
     incrementally-closed DBM *)
  let c1 = Octagon.close o in
  let c2 = Octagon.close c1 in
  Alcotest.(check bool) "close idempotent" true (Octagon.equal c1 c2);
  Alcotest.(check bool) "incremental closure is already closed" true (Octagon.equal o c1)

let test_join_meet_lattice () =
  let mk lo hi =
    Octagon.assign_interval (Octagon.top 2) 0 (lo, hi)
  in
  let a = mk 0 10 and b = mk 5 20 in
  let j = Octagon.join a b and m = Octagon.meet a b in
  Alcotest.(check bool) "a leq join" true (Octagon.leq a j);
  Alcotest.(check bool) "b leq join" true (Octagon.leq b j);
  Alcotest.(check bool) "meet leq a" true (Octagon.leq m a);
  Alcotest.(check bool) "meet leq b" true (Octagon.leq m b);
  Alcotest.(check (pair (option int) (option int))) "join bounds" (Some 0, Some 20)
    (Octagon.var_bounds j 0);
  Alcotest.(check (pair (option int) (option int))) "meet bounds" (Some 5, Some 10)
    (Octagon.var_bounds m 0);
  let empty = Octagon.meet (mk 0 1) (mk 5 6) in
  Alcotest.(check bool) "disjoint meet is bottom" true (Octagon.is_bot empty)

let test_bottom_propagation () =
  let b = Octagon.bottom 3 in
  Alcotest.(check bool) "bottom is bottom" true (Octagon.is_bot b);
  Alcotest.(check bool) "bottom leq top" true (Octagon.leq b (Octagon.top 3));
  let o = Octagon.assign_interval (Octagon.top 3) 1 (4, 4) in
  Alcotest.(check bool) "join with bottom is identity" true
    (Octagon.equal (Octagon.join b o) o);
  (* contradictory constraints must collapse to bottom *)
  let o = Octagon.add_ub o 1 3 in
  Alcotest.(check bool) "x=4 meets x<=3 is bottom" true (Octagon.is_bot o)

let test_random_closure_soundness () =
  (* Random constraint sets: the closed DBM must imply every constraint it
     was given (closure only tightens, never drops), and full closure must
     be idempotent. *)
  let rng = Pcg.create ~seed:42L () in
  for _ = 1 to 50 do
    let dim = 2 + Pcg.next_int rng 3 in
    let o = ref (Octagon.top dim) in
    let cons = ref [] in
    for _ = 1 to 8 do
      let u = Pcg.next_int rng dim and v = Pcg.next_int rng dim in
      let c = Pcg.next_int rng 100 in
      let lo = Pcg.next_int rng 50 in
      match Pcg.next_int rng 3 with
      | 0 ->
        if u <> v then begin
          o := Octagon.add_diff !o ~u ~v c;
          cons := `Diff (u, v, c) :: !cons
        end
      | 1 ->
        o := Octagon.add_ub !o u (lo + c);
        cons := `Ub (u, lo + c) :: !cons
      | _ ->
        o := Octagon.add_lb !o u lo;
        cons := `Lb (u, lo) :: !cons
    done;
    if not (Octagon.is_bot !o) then begin
      let closed = Octagon.close !o in
      Alcotest.(check bool) "close idempotent (random)" true
        (Octagon.equal closed (Octagon.close closed));
      List.iter
        (function
          | `Diff (u, v, c) -> (
            match Octagon.diff_bounds closed ~u ~v with
            | _, Some hi -> Alcotest.(check bool) "diff constraint kept" true (hi <= c)
            | _, None -> Alcotest.fail "closure dropped a difference constraint")
          | `Ub (u, c) -> (
            match Octagon.var_bounds closed u with
            | _, Some hi -> Alcotest.(check bool) "ub kept" true (hi <= c)
            | _, None -> Alcotest.fail "closure dropped an upper bound")
          | `Lb (u, c) -> (
            match Octagon.var_bounds closed u with
            | Some lo, _ -> Alcotest.(check bool) "lb kept" true (lo >= c)
            | None, _ -> Alcotest.fail "closure dropped a lower bound"))
        !cons
    end
  done

let test_widening_termination () =
  (* Widening an ascending chain must reach a fixpoint in finitely many
     steps even with thresholds. *)
  let thresholds = [| 8; 16; 64; 128 |] in
  let state = ref (Octagon.assign_interval (Octagon.top ~thresholds 2) 0 (0, 0)) in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 1000 do
    incr steps;
    let next = Octagon.assign_interval (Octagon.top ~thresholds 2) 0 (0, !steps * 3) in
    let w = Octagon.widen !state next in
    if Octagon.leq next !state && Octagon.equal w !state then continue := false
    else state := w
  done;
  Alcotest.(check bool) "widening chain stabilizes quickly" true (!steps < 64)

(* ---- the half-matrix kernel against the dense reference -------------- *)

(* The octagon as it was before the DBM went flat: an array-of-arrays
   matrix storing every cell (both halves of each coherent pair), every
   operation copying it, and an incremental closure that scans every cell
   with four separate path candidates. Kept as it was, bar its comments and
   the operations the comparison does not drive, as the oracle for
   [Octagon]. *)
module Reference = struct
  let inf = max_int

  type t = { dim : int; m : int array array option; thr : int array }

  let bar i = i lxor 1
  let ( +! ) a b = if a = inf || b = inf then inf else a + b
  let floor_even c = if c = inf then inf else c - (c land 1)

  let top ~thresholds dim =
    let n = 2 * dim in
    let m = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else inf)) in
    { dim; m = Some m; thr = thresholds }

  let is_bot t = t.m = None
  let copy_matrix m = Array.map Array.copy m

  let consistent m =
    let n = Array.length m in
    let ok = ref true in
    for i = 0 to n - 1 do
      if m.(i).(i) < 0 then ok := false;
      if m.(i).(bar i) +! m.(bar i).(i) < 0 then ok := false
    done;
    !ok

  let normalize t =
    match t.m with
    | None -> t
    | Some m -> if consistent m then t else { t with m = None }

  let close_after_add m a b c =
    let n = Array.length m in
    if c < m.(a).(b) then begin
      let a' = bar a and b' = bar b in
      let col_a = Array.init n (fun i -> m.(i).(a)) in
      let col_b' = Array.init n (fun i -> m.(i).(b')) in
      let row_b = Array.copy m.(b) in
      let row_a' = Array.copy m.(a') in
      let w_bb' = row_b.(b') and w_a'a = row_a'.(a) in
      for i = 0 to n - 1 do
        let ia = col_a.(i) and ib' = col_b'.(i) in
        if ia < inf || ib' < inf then
          for j = 0 to n - 1 do
            let best = ref m.(i).(j) in
            let cand v = if v < !best then best := v in
            cand (ia +! c +! row_b.(j));
            cand (ib' +! c +! row_a'.(j));
            cand (ia +! c +! w_bb' +! c +! row_a'.(j));
            cand (ib' +! c +! w_a'a +! c +! row_b.(j));
            if !best < m.(i).(j) then m.(i).(j) <- !best
          done
      done;
      for i = 0 to n - 1 do
        m.(i).(bar i) <- floor_even m.(i).(bar i)
      done;
      for i = 0 to n - 1 do
        let ui = floor_even m.(i).(bar i) / 2 in
        if ui < inf / 4 then
          for j = 0 to n - 1 do
            let uj = floor_even m.(bar j).(j) / 2 in
            if uj < inf / 4 && ui + uj < m.(i).(j) then m.(i).(j) <- ui + uj
          done
      done
    end

  let with_matrix t f =
    match t.m with
    | None -> t
    | Some m ->
      let m = copy_matrix m in
      f m;
      normalize { t with m = Some m }

  let add_diff t ~u ~v c =
    if u = v then if c < 0 then { t with m = None } else t
    else with_matrix t (fun m -> close_after_add m (2 * v) (2 * u) c)

  let add_sum_ub t ~u ~v c =
    if u = v then
      with_matrix t (fun m -> close_after_add m ((2 * u) + 1) (2 * u) (floor_even c))
    else with_matrix t (fun m -> close_after_add m ((2 * v) + 1) (2 * u) c)

  let add_sum_lb t ~u ~v c =
    if u = v then
      with_matrix t (fun m -> close_after_add m (2 * u) ((2 * u) + 1) (floor_even c))
    else with_matrix t (fun m -> close_after_add m (2 * v) ((2 * u) + 1) c)

  let add_ub t v c = add_sum_ub t ~u:v ~v (2 * c)
  let add_lb t v c = add_sum_lb t ~u:v ~v (-2 * c)
  let set_interval_constraints t v (lo, hi) = add_lb (add_ub t v hi) v lo

  let forget t v =
    match t.m with
    | None -> t
    | Some m ->
      let n = Array.length m in
      let m = copy_matrix m in
      let p = 2 * v and q = (2 * v) + 1 in
      for i = 0 to n - 1 do
        m.(i).(p) <- (if i = p then 0 else inf);
        m.(i).(q) <- (if i = q then 0 else inf);
        m.(p).(i) <- (if i = p then 0 else inf);
        m.(q).(i) <- (if i = q then 0 else inf)
      done;
      { t with m = Some m }

  let shift t v c =
    with_matrix t (fun m ->
        let n = Array.length m in
        let p = 2 * v and q = (2 * v) + 1 in
        for i = 0 to n - 1 do
          if i <> p && i <> q then begin
            m.(i).(p) <- m.(i).(p) +! c;
            m.(p).(i) <- m.(p).(i) +! -c;
            m.(i).(q) <- m.(i).(q) +! -c;
            m.(q).(i) <- m.(q).(i) +! c
          end
        done;
        m.(q).(p) <- m.(q).(p) +! (2 * c);
        m.(p).(q) <- m.(p).(q) +! (-2 * c))

  let negate_shift t v c =
    let t =
      with_matrix t (fun m ->
          let n = Array.length m in
          let p = 2 * v and q = (2 * v) + 1 in
          for i = 0 to n - 1 do
            let tmp = m.(i).(p) in
            m.(i).(p) <- m.(i).(q);
            m.(i).(q) <- tmp
          done;
          for i = 0 to n - 1 do
            let tmp = m.(p).(i) in
            m.(p).(i) <- m.(q).(i);
            m.(q).(i) <- tmp
          done)
    in
    shift t v c

  let assign_var_plus t ~dst ~src c =
    if dst = src then shift t dst c
    else
      let t = forget t dst in
      let t = add_diff t ~u:dst ~v:src c in
      add_diff t ~u:src ~v:dst (-c)

  let assign_const_minus t ~dst ~src c =
    if dst = src then negate_shift t dst c
    else
      let t = forget t dst in
      let t = add_sum_ub t ~u:dst ~v:src c in
      add_sum_lb t ~u:dst ~v:src (-c)

  let assign_interval t dst (lo, hi) = set_interval_constraints (forget t dst) dst (lo, hi)

  let join a b =
    match (a.m, b.m) with
    | None, _ -> b
    | _, None -> a
    | Some ma, Some mb ->
      let n = Array.length ma in
      let m = Array.init n (fun i -> Array.init n (fun j -> max ma.(i).(j) mb.(i).(j))) in
      { a with m = Some m }

  let meet a b =
    match (a.m, b.m) with
    | None, _ -> a
    | _, None -> b
    | Some ma, Some mb ->
      let n = Array.length ma in
      let m = Array.init n (fun i -> Array.init n (fun j -> min ma.(i).(j) mb.(i).(j))) in
      normalize { a with m = Some m }

  let widen a b =
    match (a.m, b.m) with
    | None, _ -> b
    | _, None -> a
    | Some ma, Some mb ->
      let thr = a.thr in
      let jump c =
        if c = inf then inf
        else begin
          let k = ref 0 and n = Array.length thr in
          while !k < n && thr.(!k) < c do incr k done;
          if !k < n then thr.(!k) else inf
        end
      in
      let n = Array.length ma in
      let m =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let x = ma.(i).(j) and y = mb.(i).(j) in
                if y <= x then x else jump y))
      in
      { a with m = Some m }
end

(* Random op sequences driven through both kernels side by side, compared
   cell by cell after every step. Two states per sequence so the binary
   operations see independent histories; the widenings (with odd
   thresholds among them) leave unclosed states that later constraints
   then close incrementally, and contradictory bounds reach bottom. *)
let test_reference_oracle () =
  let rng = Pcg.create ~seed:20110318L () in
  let unclosed = ref 0 and bottoms = ref 0 and steps = ref 0 in
  for seq = 1 to 320 do
    let dim = 1 + Pcg.next_int rng 24 in
    let thresholds =
      Array.of_list (List.sort_uniq compare (List.init (Pcg.next_int rng 6) (fun _ -> 1 + Pcg.next_int rng 200)))
    in
    (* Most constraints fall on a few "live" variables so closure chains
       form. They sit at random indices, so constraints between a low and a
       high variable, which the kernel stores as their mirrors, are
       frequent. *)
    let live = Array.init (1 + Pcg.next_int rng (min dim 5)) (fun _ -> Pcg.next_int rng dim) in
    let var () =
      if Pcg.next_int rng 4 = 0 then Pcg.next_int rng dim
      else live.(Pcg.next_int rng (Array.length live))
    in
    let const () = Pcg.next_int rng 80 - 20 in
    let fresh () = (Reference.top ~thresholds dim, Octagon.top ~thresholds dim) in
    let st = [| fresh (); fresh () |] in
    for step = 1 to 40 do
      incr steps;
      let k = Pcg.next_int rng 2 in
      let r, o = st.(k) in
      let r', o' = st.(1 - k) in
      let next =
        match Pcg.next_int rng 14 with
        | 0 ->
          let u = var () and v = var () and c = const () in
          (Reference.add_diff r ~u ~v c, Octagon.add_diff o ~u ~v c)
        | 1 ->
          let u = var () and v = var () and c = const () in
          (Reference.add_sum_ub r ~u ~v c, Octagon.add_sum_ub o ~u ~v c)
        | 2 ->
          let u = var () and v = var () and c = const () in
          (Reference.add_sum_lb r ~u ~v c, Octagon.add_sum_lb o ~u ~v c)
        | 3 ->
          let v = var () and c = const () in
          (Reference.add_ub r v c, Octagon.add_ub o v c)
        | 4 ->
          let v = var () and c = const () in
          (Reference.add_lb r v c, Octagon.add_lb o v c)
        | 5 ->
          let v = var () in
          (Reference.forget r v, Octagon.forget o v)
        | 6 ->
          let dst = var () and src = var () and c = const () in
          (Reference.assign_var_plus r ~dst ~src c, Octagon.assign_var_plus o ~dst ~src c)
        | 7 ->
          let dst = var () and src = var () and c = const () in
          (Reference.assign_const_minus r ~dst ~src c, Octagon.assign_const_minus o ~dst ~src c)
        | 8 | 9 ->
          let v = var () and lo = const () in
          let hi = lo + Pcg.next_int rng 40 in
          (Reference.assign_interval r v (lo, hi), Octagon.assign_interval o v (lo, hi))
        | 10 -> (Reference.join r r', Octagon.join o o')
        | 11 -> (Reference.meet r r', Octagon.meet o o')
        | 12 -> (Reference.widen r r', Octagon.widen o o')
        | _ ->
          (* Restart one side now and then so bottom is not absorbing. *)
          if Reference.is_bot r || Pcg.next_int rng 4 = 0 then fresh () else (r, o)
      in
      let r, o = next in
      if Octagon.cells o <> r.Reference.m || Octagon.is_bot o <> Reference.is_bot r then
        Alcotest.failf "sequence %d (dim %d), step %d: half-matrix kernel diverges from the reference"
          seq dim step;
      if Octagon.is_bot o then incr bottoms
      else if not (Octagon.equal o (Octagon.close o)) then incr unclosed;
      st.(k) <- next
    done
  done;
  Alcotest.(check bool) "sequences reach bottom" true (!bottoms > 0);
  Alcotest.(check bool) "sequences reach unclosed (widened) states" true (!unclosed > 0);
  Alcotest.(check bool) "every step compared" true (!steps = 320 * 40)

(* The in-place path, as the product transfer drives it: one [Octagon.edit]
   per block takes several updates before its [freeze], each mirrored on
   the reference, and the blocks alternate with joins, meets and widens
   (meets and widens drop the kernel's strengthened mark, so the next
   closure runs the full strengthening pass, and a join keeps it only when
   both inputs have it) and with the pure negating assignment.
   Every frozen state is compared with the reference cell by cell, and an
   edit that turns bottom must agree with the reference's. *)
let test_reference_oracle_in_place () =
  let rng = Pcg.create ~seed:19880101L () in
  let blocks = ref 0 and mixed_joins = ref 0 and unclosed_blocks = ref 0 in
  for seq = 1 to 200 do
    let dim = 1 + Pcg.next_int rng 20 in
    let thresholds =
      Array.of_list
        (List.sort_uniq compare (List.init (Pcg.next_int rng 6) (fun _ -> 1 + Pcg.next_int rng 200)))
    in
    let live = Array.init (1 + Pcg.next_int rng (min dim 5)) (fun _ -> Pcg.next_int rng dim) in
    let var () =
      if Pcg.next_int rng 4 = 0 then Pcg.next_int rng dim
      else live.(Pcg.next_int rng (Array.length live))
    in
    let const () = Pcg.next_int rng 80 - 20 in
    let fresh () = (Reference.top ~thresholds dim, Octagon.top ~thresholds dim, `Block) in
    (* Three states: with two, a join right after a meet gives back the
       meet's other input. *)
    let st = [| fresh (); fresh (); fresh () |] in
    for step = 1 to 30 do
      let k = Pcg.next_int rng 3 in
      let r, o, last = st.(k) in
      let r', o', last' = st.((k + 1 + Pcg.next_int rng 2) mod 3) in
      let next =
        match Pcg.next_int rng 8 with
        | 0 | 1 | 2 | 3 ->
          incr blocks;
          if last <> `Block && not (Octagon.equal o (Octagon.close o)) then incr unclosed_blocks;
          let e = Octagon.edit o in
          let r = ref r in
          for _ = 1 to 2 + Pcg.next_int rng 5 do
            (match Pcg.next_int rng 5 with
            | 0 ->
              let u = var () and v = var () and c = const () in
              Octagon.Edit.add_diff e ~u ~v c;
              r := Reference.add_diff !r ~u ~v c
            | 1 ->
              let v = var () and c = const () in
              Octagon.Edit.add_ub e v c;
              r := Reference.add_ub !r v c
            | 2 ->
              let v = var () and c = const () in
              Octagon.Edit.add_lb e v c;
              r := Reference.add_lb !r v c
            | 3 ->
              let v = var () in
              Octagon.Edit.forget e v;
              r := Reference.forget !r v
            | _ ->
              let dst = var () and src = var () and c = const () in
              Octagon.Edit.assign_var_plus e ~dst ~src c;
              r := Reference.assign_var_plus !r ~dst ~src c);
            if Octagon.Edit.is_bot e <> Reference.is_bot !r then
              Alcotest.failf "sequence %d, step %d: in-place bottom disagrees" seq step
          done;
          (!r, Octagon.freeze e, `Block)
        | 4 ->
          if (last = `Block) <> (last' = `Block) then incr mixed_joins;
          (Reference.join r r', Octagon.join o o', `Block)
        | 5 -> (Reference.meet r r', Octagon.meet o o', `Lattice)
        | 6 -> (Reference.widen r r', Octagon.widen o o', `Lattice)
        | _ ->
          let v = var () and c = const () in
          ( Reference.assign_const_minus r ~dst:v ~src:v c,
            Octagon.assign_const_minus o ~dst:v ~src:v c,
            last )
      in
      let r, o, _ = next in
      if Octagon.cells o <> r.Reference.m || Octagon.is_bot o <> Reference.is_bot r then
        Alcotest.failf "sequence %d (dim %d), step %d: in-place kernel diverges" seq dim step;
      st.(k) <- (if Reference.is_bot r && Pcg.next_int rng 3 = 0 then fresh () else next)
    done
  done;
  Alcotest.(check bool) "blocks start from unclosed states" true (!unclosed_blocks > 0);
  Alcotest.(check bool) "joins mix a block result with a meet or widen result" true
    (!mixed_joins > 0);
  Alcotest.(check bool) "many blocks" true (!blocks > 1000)

(* ---- escalation soundness on programs ------------------------------- *)

let leq_opt a b =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> State.leq a b

(* Whole-corpus containment: for every scenario, escalating every function
   must produce per-node states below the interval result, and loop bound
   verdicts that are never worse. *)
let test_escalation_below_interval () =
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (s : Corpus.scenario) ->
          let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
          let annot = s.Corpus.annotations program in
          let resolver =
            Wcet_cfg.Resolver.with_overrides
              ~recursion_depths:annot.Annot.recursion_depths
              (Wcet_cfg.Resolver.auto program)
          in
          match Supergraph.build ~resolver program with
          | exception Supergraph.Build_error _ -> ()  (* needs annotations beyond this test *)
          | graph ->
          let loops = Loops.analyze graph in
          let assumes =
            List.filter_map
              (fun (sym, lo, hi) ->
                Option.map
                  (fun a -> (a, Aval.interval lo hi))
                  (Pred32_asm.Program.symbol_opt program sym))
              annot.Annot.assumes
          in
          let base = Analysis.run ~assumes graph loops in
          let funcs =
            List.sort_uniq compare
              (Array.to_list graph.Supergraph.nodes
              |> List.map (fun (n : Supergraph.node) -> n.Supergraph.func))
          in
          match Analysis.escalate ~assumes ~funcs base loops with
          | exception Failure _ -> ()  (* non-convergence: allowed, base kept *)
          | esc ->
            let r = esc.Analysis.esc_result in
            Array.iteri
              (fun i _ ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: refined in-state below interval at node %d" e.Corpus.id i)
                  true
                  (leq_opt r.Analysis.node_in.(i) base.Analysis.node_in.(i));
                Alcotest.(check bool)
                  (Printf.sprintf "%s: refined out-state below interval at node %d" e.Corpus.id i)
                  true
                  (leq_opt r.Analysis.node_out.(i) base.Analysis.node_out.(i)))
              graph.Supergraph.nodes;
            let bb = Loop_bounds.analyze base loops in
            let rb = Loop_bounds.analyze ~rel:esc.Analysis.esc_rel r loops in
            Array.iteri
              (fun li bv ->
                match (bv, rb.Loop_bounds.per_loop.(li)) with
                | Loop_bounds.Bounded b, Loop_bounds.Bounded r ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: loop %d relational bound not worse" e.Corpus.id li)
                    true (r <= b)
                | Loop_bounds.Bounded _, Loop_bounds.Unbounded _ ->
                  Alcotest.failf "%s: loop %d lost its bound under the octagon" e.Corpus.id li
                | Loop_bounds.Unbounded _, _ -> ())
              bb.Loop_bounds.per_loop)
        [ e.Corpus.conforming; e.Corpus.violating ])
    Corpus.all

(* ---- the escalation region ------------------------------------------ *)

(* Outside [~funcs] the escalation hands back the base result itself:
   states and accesses, node for node. Inside, it stays below the base. *)
let test_region_outside_exact () =
  let checked = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let s = e.Corpus.violating in
      let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
      let annot = s.Corpus.annotations program in
      (* The analyzer builds the supergraph with the annotations' resolver
         (setjmp continuations included). *)
      match Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Analysis.Interval program with
      | exception Analyzer.Analysis_failed _ -> ()
      | report -> (
        let graph = report.Analyzer.value.Analysis.graph in
        let loops = Loops.analyze graph in
        let base = Analysis.run graph loops in
        match Analysis.escalate ~funcs:[ "main" ] base loops with
        | exception Failure _ -> ()
        | esc ->
          let r = esc.Analysis.esc_result in
          Array.iteri
            (fun i (nd : Supergraph.node) ->
              let where what =
                Printf.sprintf "%s: %s at node %d (%s)" e.Corpus.id what i nd.Supergraph.func
              in
              if nd.Supergraph.func = "main" then
                Alcotest.(check bool) (where "in-state below base") true
                  (leq_opt r.Analysis.node_in.(i) base.Analysis.node_in.(i))
              else begin
                incr checked;
                Alcotest.(check bool) (where "in-state kept") true
                  (r.Analysis.node_in.(i) == base.Analysis.node_in.(i));
                Alcotest.(check bool) (where "out-state kept") true
                  (r.Analysis.node_out.(i) == base.Analysis.node_out.(i));
                Alcotest.(check bool) (where "accesses kept") true
                  (r.Analysis.accesses.(i) == base.Analysis.accesses.(i))
              end)
            graph.Supergraph.nodes))
    Corpus.all;
  Alcotest.(check bool) "nodes outside the region compared" true (!checked > 100)

(* 20.7's violating scenario: the unescalated [process] longjmps into the
   setjmp continuation of [main]. That edge enters a region of [main], so
   the product starts there too; without it the error-return path drops
   out (the bound fell from 2750 to 2746, the best case rose from 137 to
   155). [auto] no longer escalates [main] (its imprecise accesses stay in
   [ram]), so the region is forced here: every node the interval pass
   reaches stays reachable, the continuation included. *)
let test_region_longjmp_entry () =
  match Corpus.find "20.7" with
  | None -> Alcotest.fail "corpus entry '20.7' missing"
  | Some e ->
    let s = e.Corpus.violating in
    let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
    let annot = s.Corpus.annotations program in
    let report = Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Analysis.Interval program in
    let graph = report.Analyzer.graph and loops = report.Analyzer.loops in
    let base = Analysis.run graph loops in
    let esc = Analysis.escalate ~funcs:[ "main" ] base loops in
    let nodes = graph.Supergraph.nodes in
    let from_process =
      Array.to_list nodes
      |> List.filter (fun (nd : Supergraph.node) ->
             nd.Supergraph.func = "main"
             && List.exists
                  (fun (kind, p) ->
                    kind <> Supergraph.Ereturn && nodes.(p).Supergraph.func = "process")
                  nd.Supergraph.preds)
    in
    Alcotest.(check bool) "process jumps into main" true (from_process <> []);
    Array.iteri
      (fun i (nd : Supergraph.node) ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d (%s) reachable as in the interval pass" i nd.Supergraph.func)
          (Analysis.reachable base i)
          (Analysis.reachable esc.Analysis.esc_result i))
      nodes

(* Analyze [source] under [auto] with [n] assumed in [0, 16], expect exactly
   [escalated] to escalate, and check the bound against the simulator for
   several values of [n]; [~verify:true] must add no diagnostic. *)
let region_sound ~escalated source =
  let program = Compile.compile source in
  let annot =
    match Annot.parse "assume n in [ 0 16 ]" with Ok a -> a | Error m -> Alcotest.fail m
  in
  let report = Analyzer.analyze ~annot ~domain:Analysis.Auto program in
  (match report.Analyzer.escalation with
  | Some e -> Alcotest.(check (list string)) "escalated functions" escalated e.Analyzer.ei_funcs
  | None -> Alcotest.fail "no escalation");
  Alcotest.(check bool) "complete" true (report.Analyzer.verdict = Analyzer.Complete);
  let codes r = List.map (fun (d : Wcet_diag.Diag.t) -> d.Wcet_diag.Diag.code) r.Analyzer.diagnostics in
  let verified = Analyzer.analyze ~annot ~domain:Analysis.Auto ~verify:true program in
  Alcotest.(check int) "verify keeps the bound" report.Analyzer.wcet verified.Analyzer.wcet;
  Alcotest.(check (list string)) "verify adds no diagnostic" (codes report) (codes verified);
  List.iter
    (fun n ->
      let sim = Sim.create Pred32_hw.Hw_config.default program in
      Sim.poke_symbol sim "n" 0 n;
      match Sim.run ~fuel:2_000_000 sim with
      | Sim.Halted { cycles; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "n = %d: simulated %d cycles within bound %d" n cycles
             report.Analyzer.wcet)
          true (cycles <= report.Analyzer.wcet)
      | _ -> Alcotest.fail "simulation did not halt")
    [ 0; 1; 9; 16 ]

(* [main] relates the slot [lim] to [n] and, through [k = widen (n)], the
   return-value register to [k]; the unescalated [widen] then overwrites
   both. The summary edges must forget them: with either relation kept
   across the second call, a loop bound reads 32 where the loop runs 64
   times. *)
let test_region_call_clobber () =
  region_sound ~escalated:[ "main" ]
    {|
int n;
int lim;
int buf[64];
int out;

int widen(int x) {
  lim = x + x;
  return x + x;
}

int main() {
  int i;
  int k;
  int m;
  int s;
  s = 0;
  lim = n;
  k = widen(n);
  m = widen(k);
  i = 0;
  while (i != m) {
    s = s + buf[i];
    i = i + 1;
  }
  i = 0;
  while (i != lim) {
    s = s + buf[i];
    i = i + 1;
  }
  out = s;
  return 0;
}
|}

(* [main] doubles the assumed input before it calls the escalated [scan].
   The product enters [scan] with the base state's bounds, not the
   program-entry assumption (which would bound the loop by 16, not 32). *)
let test_region_entry_seed () =
  region_sound ~escalated:[ "scan" ]
    {|
int n;
int buf[64];
int out;

int scan() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i != n) {
    s = s + buf[i];
    i = i + 1;
  }
  return s;
}

int main() {
  n = n + n;
  out = scan();
  return 0;
}
|}

(* ---- the product's register support --------------------------------- *)

module Reg = Pred32_isa.Reg
module Insn = Pred32_isa.Insn

(* The support rule of [Analysis.escalate], computed here from the graph
   and the base result alone: the registers the escalated functions'
   instructions name, those the base state bounds in [0, 2^31) at an entry
   of the region, and those a summarized call clobbers that the base state
   bounds in that range at the call's return site. *)
let expected_support (graph : Supergraph.t) (base : Analysis.result) funcs =
  let nodes = graph.Supergraph.nodes in
  let inside i = List.mem nodes.(i).Supergraph.func funcs in
  let safe st r =
    match Aval.range (State.get_reg st r) with Some (_, hi) -> hi < 0x80000000 | None -> false
  in
  let bounded_in i pred =
    match base.Analysis.node_in.(i) with
    | Some st -> List.filter (fun r -> pred r && safe st r) Reg.all
    | None -> []
  in
  let names (nd : Supergraph.node) =
    Array.to_list nd.Supergraph.block.Wcet_cfg.Func_cfg.insns
    |> List.concat_map (fun (_, insn) -> Insn.uses insn @ Insn.defs insn)
  in
  let defines (nd : Supergraph.node) r =
    Array.exists
      (fun (_, insn) -> List.exists (Reg.equal r) (Insn.defs insn))
      nd.Supergraph.block.Wcet_cfg.Func_cfg.insns
  in
  let contexts = graph.Supergraph.contexts in
  let rec within c k =
    c = k || match contexts.(c).Supergraph.parent with Some (p, _) -> within p k | None -> false
  in
  let from_node i (nd : Supergraph.node) =
    if not (inside i) then []
    else
      let entry =
        i = graph.Supergraph.entry
        || List.exists (fun (kind, p) -> kind <> Supergraph.Ereturn && not (inside p)) nd.Supergraph.preds
      in
      let summaries =
        List.concat_map
          (fun (kind, t) ->
            if kind <> Supergraph.Ecall || inside t then []
            else
              let k = nodes.(t).Supergraph.ctx in
              let return_site =
                Array.to_list nodes
                |> List.find_map (fun (nd' : Supergraph.node) ->
                       if nd'.Supergraph.ctx <> k then None
                       else
                         List.find_map
                           (fun (kind', t') -> if kind' = Supergraph.Ereturn then Some t' else None)
                           nd'.Supergraph.succs)
              in
              let clobbered r =
                Array.exists
                  (fun (nd' : Supergraph.node) -> within nd'.Supergraph.ctx k && defines nd' r)
                  nodes
              in
              match return_site with Some ret -> bounded_in ret clobbered | None -> [])
          nd.Supergraph.succs
      in
      names nd @ (if entry then bounded_in i (fun _ -> true) else []) @ summaries
  in
  Array.to_list nodes |> List.mapi from_node |> List.concat |> List.sort_uniq Reg.compare

let reg_list = Alcotest.(list (testable Reg.pp Reg.equal))

(* An escalation of every candidate of [auto]'s trigger (the functions
   with an imprecise access or a loop hole, escalated or not), re-run on an
   interval base; its support must be the rule's. *)
let check_support ~what ?hw ~annot program =
  let auto = Analyzer.analyze ?hw ~annot ~domain:Analysis.Auto program in
  match List.map fst auto.Analyzer.esc_gate with
  | [] -> None
  | funcs ->
    let graph = auto.Analyzer.graph and loops = auto.Analyzer.loops in
    let assumes =
      List.filter_map
        (fun (sym, lo, hi) ->
          Option.map (fun a -> (a, Aval.interval lo hi)) (Pred32_asm.Program.symbol_opt program sym))
        annot.Annot.assumes
    in
    let base = Analysis.run ~assumes graph loops in
    let esc = Analysis.escalate ~assumes ~funcs base loops in
    Alcotest.check reg_list (what ^ ": support") (expected_support graph base funcs)
      esc.Analysis.esc_regs;
    Some (graph, esc)

let test_support_corpus () =
  let escalations = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (variant, (s : Corpus.scenario)) ->
          let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
          let annot = s.Corpus.annotations program in
          let what = Printf.sprintf "%s/%s" e.Corpus.id variant in
          match check_support ~what ~hw:s.Corpus.hw ~annot program with
          | exception Analyzer.Analysis_failed _ -> ()
          | Some (_, esc) ->
            incr escalations;
            Alcotest.(check bool) (what ^ ": fewer than 16 registers") true
              (List.length esc.Analysis.esc_regs < List.length Reg.all)
          | None -> ())
        [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
    Corpus.all;
  Alcotest.(check bool) "corpus escalations checked" true (!escalations >= 8)

(* One register per rule that the escalated [scan] could miss. [main]
   leaves a bounded value in r7, which [scan] never names (the entry rule),
   and an unbounded one in r4, which [scan] only reads (its [Insn.uses]);
   the unescalated [bump] that [scan] calls sets r9, which [main] left
   unbounded and [scan] never names (the summary rule). *)
let test_support_fixture () =
  let program =
    Pred32_asm.Assembler.link
      (Pred32_asm.Asm_parser.parse
         {|
.func bump
  li r9, 5
  ret
.func scan
  addi sp, sp, -4
  sw lr, 0(sp)
  call bump
  lw lr, 0(sp)
  addi sp, sp, 4
  la r6, out
  sw r4, 0(r6)
  la r2, n
  lw r3, 0(r2)
  li r1, 0
head:
  beq r1, r3, done
  addi r1, r1, 1
  j head
done:
  ret
.func main
  la r2, m
  lw r4, 0(r2)
  lw r9, 0(r2)
  li r7, 9
  addi sp, sp, -4
  sw lr, 0(sp)
  call scan
  lw lr, 0(sp)
  addi sp, sp, 4
  ret
.data n ram
  .word 0
.data m ram
  .word 0
.data out ram
  .word 0
|})
  in
  let annot =
    match Annot.parse "assume n in [ 0 16 ]" with Ok a -> a | Error m -> Alcotest.fail m
  in
  match check_support ~what:"fixture" ~annot program with
  | None -> Alcotest.fail "scan did not escalate"
  | Some (graph, esc) ->
    Alcotest.(check (list string)) "escalated" [ "scan" ] esc.Analysis.esc_funcs;
    let in_scan f =
      Array.exists
        (fun (nd : Supergraph.node) ->
          nd.Supergraph.func = "scan"
          && Array.exists (fun (_, insn) -> f insn) nd.Supergraph.block.Wcet_cfg.Func_cfg.insns)
        graph.Supergraph.nodes
    in
    let mentions r l = List.exists (Reg.equal r) l in
    List.iter
      (fun (r, uses, defs) ->
        let name = Reg.name r in
        Alcotest.(check bool) (name ^ " read in scan") uses (in_scan (fun i -> mentions r (Insn.uses i)));
        Alcotest.(check bool) (name ^ " written in scan") defs (in_scan (fun i -> mentions r (Insn.defs i)));
        Alcotest.(check bool) (name ^ " tracked") true (mentions r esc.Analysis.esc_regs))
      [ (Reg.of_int 7, false, false); (Reg.of_int 4, true, false); (Reg.of_int 9, false, false) ]

(* ---- end-to-end discharge fixtures ---------------------------------- *)

let relational_entry =
  match Corpus.find "relational" with
  | Some e -> e
  | None -> Alcotest.fail "corpus entry 'relational' missing"

let analyze_conforming domain =
  let s = relational_entry.Corpus.conforming in
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  (program, s, Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain program)

(* A0505: the interval pass cannot bound [while (i != n)] against the
   assume-bounded limit; the octagon discharges it and the report says so. *)
let test_a0505_discharged () =
  let _, _, interval = analyze_conforming Analysis.Interval in
  Alcotest.(check bool) "interval verdict is partial" true
    (interval.Analyzer.verdict = Analyzer.Partial);
  Alcotest.(check bool) "interval leaves an unbounded loop" true
    (interval.Analyzer.unbounded_loops <> []);
  let _, _, auto = analyze_conforming Analysis.Auto in
  Alcotest.(check bool) "auto verdict is complete" true
    (auto.Analyzer.verdict = Analyzer.Complete);
  Alcotest.(check bool) "auto leaves no unbounded loop" true
    (auto.Analyzer.unbounded_loops = []);
  match auto.Analyzer.escalation with
  | None -> Alcotest.fail "auto run did not escalate"
  | Some e ->
    Alcotest.(check bool) "a loop was discharged" true (e.Analyzer.ei_discharged_loops <> []);
    let audit = Audit.of_report auto in
    let discharged =
      List.exists
        (fun (f : Audit.finding) ->
          f.Audit.code = "A0505"
          && Astring.String.is_infix ~affix:"discharged-by: octagon" f.Audit.message)
        audit.Audit.findings
    in
    Alcotest.(check bool) "audit marks A0505 discharged-by: octagon" true discharged

(* A0509: the interval pass loses [n - i] to wraparound, so [buf[j]] spans
   multiple regions; the octagon's difference projection collapses it. *)
let test_a0509_discharged () =
  let _, _, interval = analyze_conforming Analysis.Interval in
  let interval_audit = Audit.of_report interval in
  Alcotest.(check bool) "interval audit raises A0509" true
    (List.exists (fun (f : Audit.finding) -> f.Audit.code = "A0509")
       interval_audit.Audit.findings);
  let _, _, auto = analyze_conforming Analysis.Auto in
  let auto_audit = Audit.of_report auto in
  let warning_a0509 =
    List.exists
      (fun (f : Audit.finding) ->
        f.Audit.code = "A0509" && f.Audit.severity = Wcet_diag.Diag.Warning)
      auto_audit.Audit.findings
  in
  Alcotest.(check bool) "auto audit has no A0509 warning left" false warning_a0509;
  let discharged =
    List.exists
      (fun (f : Audit.finding) ->
        f.Audit.code = "A0509"
        && Astring.String.is_infix ~affix:"discharged-by: octagon" f.Audit.message)
      auto_audit.Audit.findings
  in
  Alcotest.(check bool) "audit marks A0509 discharged-by: octagon" true discharged

(* The escalated bound must cover every simulated execution (soundness)
   and must not exceed the interval bound where one exists. *)
let test_escalated_bound_sound () =
  let program, s, auto = analyze_conforming Analysis.Auto in
  Alcotest.(check bool) "bound exists" true (auto.Analyzer.wcet > 0);
  List.iter
    (fun pokes ->
      let sim = Sim.create s.Corpus.hw program in
      List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
      match Sim.run ~fuel:2_000_000 sim with
      | Sim.Halted { cycles; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "simulated %d cycles within escalated bound %d" cycles
             auto.Analyzer.wcet)
          true
          (cycles <= auto.Analyzer.wcet)
      | _ -> Alcotest.fail "simulation did not halt")
    s.Corpus.inputs

(* Under verify with the auto domain, every escalation re-checks that the
   octagon-refined states and bound never exceed the interval ones (E0503);
   on the whole corpus those checks pass and change no bound. *)
let test_verify_corpus_auto () =
  let escalated = ref 0 in
  Verify_sweep.sweep ~domain:Analysis.Auto (fun o ->
      if o.Verify_sweep.report.Analyzer.escalation <> None then incr escalated);
  Alcotest.(check bool) "escalations checked (E0503)" true (!escalated > 0)

(* --domain interval must not change any bound: compare against a default
   analyze call on every corpus conforming scenario. *)
let test_interval_domain_identity () =
  List.iter
    (fun (e : Corpus.entry) ->
      let s = e.Corpus.conforming in
      let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
      let annot = s.Corpus.annotations program in
      match Analyzer.analyze ~hw:s.Corpus.hw ~annot program with
      | exception Analyzer.Analysis_failed _ -> ()
      | default -> (
        match
          Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain:Analysis.Interval program
        with
        | explicit ->
          Alcotest.(check int)
            (e.Corpus.id ^ ": interval domain bit-identical bound")
            default.Analyzer.wcet explicit.Analyzer.wcet;
          Alcotest.(check bool)
            (e.Corpus.id ^ ": interval domain never escalates")
            true (explicit.Analyzer.escalation = None)
        | exception Analyzer.Analysis_failed _ ->
          Alcotest.fail (e.Corpus.id ^ ": explicit interval domain failed")))
    Corpus.all

(* The E4 escalation table (conforming scenarios, assisted annotations,
   [Auto] with the default portfolio) as committed in BENCH_results.json's
   [value_domain] rows: verdict, bound, escalated functions and product
   transfers per entry. Any kernel or trigger change that moves a row
   fails here first. 20.4, 20.7, modes, message and handlers went from
   1/19, 1/28, 1/14, 2/40 and 1/15 to 0/0 when the trigger stopped
   escalating imprecise accesses confined to one memory region: every
   imprecise address there stays inside [ram], and the octagon tightened
   none of them, so their bounds stay. *)
let test_e4_table_pinned () =
  let expected =
    [
      ("13.4", 2955, 0, 0);
      ("13.6", 5064, 0, 0);
      ("14.1", 143, 0, 0);
      ("14.4", 4435, 0, 0);
      ("14.5", 3301, 0, 0);
      ("16.1", 260, 0, 0);
      ("16.2", 673, 0, 0);
      ("20.4", 1043, 0, 0);
      ("20.7", 1762, 0, 0);
      ("modes", 995, 0, 0);
      ("message", 1550, 0, 0);
      ("memory", 1000, 1, 17);
      ("errors", 7886, 0, 0);
      ("arith", 33361, 1, 18);
      ("handlers", 815, 0, 0);
      ("relational", 7407, 1, 29);
    ]
  in
  let rows = Harness.e4_rows ~domains:1 () in
  Alcotest.(check (list string)) "E4 entries"
    (List.map (fun (id, _, _, _) -> id) expected)
    (List.map (fun (r : Harness.e4_row) -> r.Harness.e4_entry) rows);
  List.iter2
    (fun (id, bound, escalated, transfers) (r : Harness.e4_row) ->
      (match r.Harness.e4_auto with
      | Harness.Bound b -> Alcotest.(check int) (id ^ ": complete bound") bound b
      | Harness.Partial (b, _) -> Alcotest.failf "%s: partial %d, expected complete %d" id b bound
      | Harness.Fails _ -> Alcotest.failf "%s: failed, expected complete %d" id bound);
      Alcotest.(check int) (id ^ ": escalated functions") escalated r.Harness.e4_escalated;
      Alcotest.(check int) (id ^ ": octagon transfers") transfers r.Harness.e4_transfers)
    expected rows;
  Alcotest.(check int) "total octagon transfers" 64
    (List.fold_left (fun acc (r : Harness.e4_row) -> acc + r.Harness.e4_transfers) 0 rows)

(* ---- the escalation trigger ----------------------------------------- *)

(* The 37 analyses of the benchmark's corpus workload: both scenarios of
   every corpus entry with its assisted annotations, and every example with
   its [.annot] file when there is one. *)
let benchmark_items () =
  let scenarios =
    List.concat_map
      (fun (e : Corpus.entry) ->
        List.map
          (fun (variant, (s : Corpus.scenario)) ->
            let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
            ( Printf.sprintf "corpus/%s/%s" e.Corpus.id variant,
              s.Corpus.hw,
              s.Corpus.annotations program,
              program ))
          [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
      Corpus.all
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let examples =
    Sys.readdir Examples_dir.dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           let annot_file = Examples_dir.file (Filename.chop_suffix f ".mc" ^ ".annot") in
           let annot =
             if Sys.file_exists annot_file then
               match Annot.parse (read annot_file) with Ok a -> a | Error m -> Alcotest.fail m
             else Annot.empty
           in
           ( "examples/" ^ f,
             Pred32_hw.Hw_config.default,
             annot,
             Compile.compile (read (Examples_dir.file f)) ))
  in
  scenarios @ examples

let assume_n =
  match Annot.parse "assume n in [ 0 16 ]" with Ok a -> a | Error m -> Alcotest.fail m

(* [auto]'s decision for [main] in [source], with [n] assumed in [0, 16]. *)
let main_gate ?(verify = false) source =
  let r = Analyzer.analyze ~annot:assume_n ~domain:Analysis.Auto ~verify (Compile.compile source) in
  match List.assoc_opt "main" r.Analyzer.esc_gate with
  | Some d -> (r, d)
  | None -> Alcotest.fail "main is not an escalation candidate"

let escalated_main (r : Analyzer.report) =
  match r.Analyzer.escalation with
  | Some e -> Alcotest.(check (list string)) "escalated" [ "main" ] e.Analyzer.ei_funcs
  | None -> Alcotest.fail "main did not escalate"

let w0502 (r : Analyzer.report) =
  List.filter (fun (d : Wcet_diag.Diag.t) -> d.Wcet_diag.Diag.code = "W0502") r.Analyzer.diagnostics

(* [buf[n + 16 - i]] under [i < n]: the interval pass puts the index in
   [1, 32], inside [buf] and so inside [ram]. The access is imprecise but
   costs the bound nothing, so [main] is a skipped candidate. The octagon
   would narrow the index to [17, 32] (it knows [1 <= n - i <= 16]), which
   the verify oracle reports as an Info W0502 without moving the bound. *)
let confined_source =
  {|
int buf[64];
int out;
int n;
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < n) {
    s = s + buf[n + 16 - i];
    i = i + 1;
  }
  out = s;
  return 0;
}
|}

let test_trigger_confined () =
  let r, d = main_gate confined_source in
  Alcotest.(check bool) "no escalation" true (r.Analyzer.escalation = None);
  Alcotest.(check string) "decision" "skip" (Analyzer.esc_decision_name d);
  let reason = "skipped: imprecise accesses confined to region `ram`" in
  Alcotest.(check string) "reason" reason (Analyzer.esc_decision_reason d);
  (* the analyze text, explain and the report JSON's escalation block *)
  let has what text affix = Alcotest.(check bool) what true (Astring.String.is_infix ~affix text) in
  has "analyze text" (Format.asprintf "%a" Analyzer.pp_report (Analyzer.answer r)) ("escalation gate: main: " ^ reason);
  let ex = Wcet_core.Explain.of_report r in
  has "explain text" (Format.asprintf "%a" (Wcet_core.Explain.pp ?top:None) ex)
    ("escalation gate: main: " ^ reason);
  let gate_json =
    Printf.sprintf {|[{"func":"main","decision":"skip","reason":"%s"}]|} reason
  in
  has "explain JSON" (Wcet_diag.Json.to_string (Wcet_core.Explain.to_json ex))
    ({|"escalation_gate":|} ^ gate_json);
  has "report JSON" (Wcet_diag.Json.to_string (Analyzer.report_to_json (Analyzer.answer r)))
    ({|"escalation":{"gate":|} ^ gate_json ^ "}");
  Alcotest.(check int) "no W0502 without verify" 0 (List.length (w0502 r));
  let v, _ = main_gate ~verify:true confined_source in
  Alcotest.(check int) "verify keeps the bound" r.Analyzer.wcet v.Analyzer.wcet;
  match w0502 v with
  | [ d ] ->
    Alcotest.(check bool) "W0502 is Info" true (d.Wcet_diag.Diag.severity = Wcet_diag.Diag.Info);
    Alcotest.(check bool) "W0502 names the tightened access" true
      (Astring.String.is_infix ~affix:"-> [0x" d.Wcet_diag.Diag.message)
  | ds -> Alcotest.failf "expected one W0502, got %d" (List.length ds)

(* [buf[n - i]]: [n - i] wraps below zero in the interval pass, so the
   address is unknown and may touch every data region. *)
let test_trigger_multi_region () =
  let r, d =
    main_gate
      {|
int buf[64];
int out;
int n;
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < n) {
    s = s + buf[n - i];
    i = i + 1;
  }
  out = s;
  return 0;
}
|}
  in
  escalated_main r;
  Alcotest.(check string) "decision" "escalate" (Analyzer.esc_decision_name d);
  match d with
  | Analyzer.Esc_escalated [ Analyzer.Multi_region_access { addr; regions; _ } ] ->
    Alcotest.(check bool) "address unknown" true (addr = Aval.top);
    Alcotest.(check (list string)) "regions" [ "ram"; "scratch"; "io" ] regions;
    Alcotest.(check bool) "reason" true
      (Astring.String.is_infix ~affix:": \u{22a4} spans 3 regions (ram, scratch, io)"
         (Analyzer.esc_decision_reason d))
  | _ -> Alcotest.fail "expected one multi-region access trigger"

(* [while (i != n)]: the interval pass cannot bound the loop against the
   assumed limit (an input-dependent hole), so [main] escalates, and the
   octagon bounds it. *)
let test_trigger_loop_hole () =
  let r, d =
    main_gate
      {|
int n;
int out;
int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i != n) {
    s = s + i;
    i = i + 1;
  }
  out = s;
  return 0;
}
|}
  in
  escalated_main r;
  (match d with
  | Analyzer.Esc_escalated [ Analyzer.Loop_hole { cause = Loop_bounds.Input_dependent; header } ]
    ->
    Alcotest.(check string) "reason" (Printf.sprintf "loop 0x%x input-dependent" header)
      (Analyzer.esc_decision_reason d)
  | _ -> Alcotest.fail "expected one input-dependent loop trigger");
  Alcotest.(check bool) "complete" true (r.Analyzer.verdict = Analyzer.Complete)

(* Under [auto], every benchmark analysis keeps the committed verdict and
   bound (perfbench/expected/corpus.tsv), and at most 8 of the 37 escalate:
   imprecision confined to one memory region does not. *)
let test_trigger_sweep () =
  let expected =
    In_channel.with_open_bin
      (Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         "perfbench/expected/corpus.tsv")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char '\t' line with
           | [ id; verdict; bound ] -> Some (id, (verdict, int_of_string bound))
           | _ -> None)
  in
  let items = benchmark_items () in
  Alcotest.(check int) "analyses" 37 (List.length items);
  Alcotest.(check int) "expected rows" 37 (List.length expected);
  let escalated =
    List.filter_map
      (fun (id, hw, annot, program) ->
        let r = Analyzer.analyze ~hw ~annot ~domain:Analysis.Auto program in
        Alcotest.(check (pair string int))
          (id ^ ": verdict and bound")
          (List.assoc id expected)
          (Analyzer.verdict_name r.Analyzer.verdict, r.Analyzer.wcet);
        Option.map (fun _ -> id) r.Analyzer.escalation)
      items
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 8 of 37 escalate (%d: %s)" (List.length escalated)
       (String.concat ", " escalated))
    true
    (List.length escalated <= 8)

let () =
  Alcotest.run "octagon"
    [
      ( "dbm",
        [
          Alcotest.test_case "closure laws" `Quick test_closure_laws;
          Alcotest.test_case "join meet lattice" `Quick test_join_meet_lattice;
          Alcotest.test_case "bottom propagation" `Quick test_bottom_propagation;
          Alcotest.test_case "random closure soundness" `Quick test_random_closure_soundness;
          Alcotest.test_case "widening termination" `Quick test_widening_termination;
          Alcotest.test_case "reference oracle" `Quick test_reference_oracle;
          Alcotest.test_case "reference oracle, in place" `Quick test_reference_oracle_in_place;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "below interval on corpus" `Quick test_escalation_below_interval;
          Alcotest.test_case "A0505 discharged" `Quick test_a0505_discharged;
          Alcotest.test_case "A0509 discharged" `Quick test_a0509_discharged;
          Alcotest.test_case "escalated bound sound" `Quick test_escalated_bound_sound;
          Alcotest.test_case "paranoid corpus" `Quick test_verify_corpus_auto;
          Alcotest.test_case "interval identity" `Quick test_interval_domain_identity;
          Alcotest.test_case "E4 table pinned" `Quick test_e4_table_pinned;
          Alcotest.test_case "region keeps outside nodes" `Quick test_region_outside_exact;
          Alcotest.test_case "region longjmp entry" `Quick test_region_longjmp_entry;
          Alcotest.test_case "region call clobbers" `Quick test_region_call_clobber;
          Alcotest.test_case "region entry seed" `Quick test_region_entry_seed;
          Alcotest.test_case "support on corpus" `Quick test_support_corpus;
          Alcotest.test_case "support fixture" `Quick test_support_fixture;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "confined access skipped" `Quick test_trigger_confined;
          Alcotest.test_case "multi-region access escalates" `Quick test_trigger_multi_region;
          Alcotest.test_case "loop hole escalates" `Quick test_trigger_loop_hole;
          Alcotest.test_case "benchmark sweep" `Quick test_trigger_sweep;
        ] );
    ]
