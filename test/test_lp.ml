(* LP/ILP solver tests: hand-checked problems, degenerate cases, and a
   brute-force cross-check on random small integer programs. *)

module Rat = Wcet_util.Rat
module Simplex = Wcet_lp.Simplex
module Ilp = Wcet_lp.Ilp
module Pcg = Wcet_util.Pcg

let q = Rat.of_int

let c coeffs op rhs =
  { Simplex.coeffs = List.map (fun (v, k) -> (v, q k)) coeffs; op; rhs = q rhs }

let solve_value problem =
  match Simplex.solve problem with
  | Simplex.Optimal (v, _) -> `Value v
  | Simplex.Unbounded -> `Unbounded
  | Simplex.Infeasible -> `Infeasible

let check_opt name expected problem =
  match solve_value problem with
  | `Value v -> Alcotest.(check string) name expected (Rat.to_string v)
  | `Unbounded -> Alcotest.failf "%s: unbounded" name
  | `Infeasible -> Alcotest.failf "%s: infeasible" name

let test_simple_max () =
  (* max x + y s.t. x <= 4, y <= 3, x + y <= 5 *)
  check_opt "corner" "5"
    {
      Simplex.num_vars = 2;
      maximize = [ (0, q 1); (1, q 1) ];
      constraints =
        [ c [ (0, 1) ] Simplex.Le 4; c [ (1, 1) ] Simplex.Le 3; c [ (0, 1); (1, 1) ] Simplex.Le 5 ];
    }

let test_fractional_optimum () =
  (* max x s.t. 2x <= 7 -> 7/2 *)
  check_opt "fractional" "7/2"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 2) ] Simplex.Le 7 ];
    }

let test_equality_constraints () =
  (* max 3x + 2y s.t. x + y = 10, x <= 6 -> x=6,y=4 -> 26 *)
  check_opt "equality" "26"
    {
      Simplex.num_vars = 2;
      maximize = [ (0, q 3); (1, q 2) ];
      constraints = [ c [ (0, 1); (1, 1) ] Simplex.Eq 10; c [ (0, 1) ] Simplex.Le 6 ];
    }

let test_ge_constraints () =
  (* max -x s.t. x >= 3  -> -3 (via maximize of negative coefficient) *)
  match
    Simplex.solve
      {
        Simplex.num_vars = 1;
        maximize = [ (0, Rat.minus_one) ];
        constraints = [ c [ (0, 1) ] Simplex.Ge 3 ];
      }
  with
  | Simplex.Optimal (v, a) ->
    Alcotest.(check string) "value" "-3" (Rat.to_string v);
    Alcotest.(check string) "assignment" "3" (Rat.to_string a.(0))
  | _ -> Alcotest.fail "expected optimum"

let test_unbounded () =
  match
    solve_value
      { Simplex.num_vars = 1; maximize = [ (0, q 1) ]; constraints = [ c [ (0, 1) ] Simplex.Ge 0 ] }
  with
  | `Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_infeasible () =
  match
    solve_value
      {
        Simplex.num_vars = 1;
        maximize = [ (0, q 1) ];
        constraints = [ c [ (0, 1) ] Simplex.Le 1; c [ (0, 1) ] Simplex.Ge 2 ];
      }
  with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_zero_objective () =
  check_opt "zero objective" "0"
    { Simplex.num_vars = 2; maximize = []; constraints = [ c [ (0, 1) ] Simplex.Le 5 ] }

let test_negative_rhs_normalization () =
  (* x - y <= -2 with y <= 3: max x -> x = 1 *)
  check_opt "negative rhs" "1"
    {
      Simplex.num_vars = 2;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (1, -1) ] Simplex.Le (-2); c [ (1, 1) ] Simplex.Le 3 ];
    }

(* ILP: fractional LP optimum, integer answer differs. *)
let test_ilp_rounding () =
  (* max x s.t. 2x <= 7, integer -> 3 *)
  match
    Ilp.solve
      {
        Simplex.num_vars = 1;
        maximize = [ (0, q 1) ];
        constraints = [ c [ (0, 2) ] Simplex.Le 7 ];
      }
  with
  | Ilp.Optimal (v, _) -> Alcotest.(check string) "ilp" "3" (Rat.to_string v)
  | _ -> Alcotest.fail "expected ILP optimum"

let test_ilp_knapsack () =
  (* max 5x + 4y s.t. 6x + 5y <= 10, x,y >= 0 integer -> x=1,y=0 -> 5? or y=2: 10y? 5*2=... 6x+5y<=10: y=2 gives 10, value 8 -> optimum 8 *)
  match
    Ilp.solve
      {
        Simplex.num_vars = 2;
        maximize = [ (0, q 5); (1, q 4) ];
        constraints = [ c [ (0, 6); (1, 5) ] Simplex.Le 10 ];
      }
  with
  | Ilp.Optimal (v, _) -> Alcotest.(check string) "knapsack" "8" (Rat.to_string v)
  | _ -> Alcotest.fail "expected ILP optimum"

(* Brute force cross-check: random ILPs with 3 vars in [0,6], random <=
   constraints with non-negative coefficients (always feasible at 0,
   bounded by a box). *)
let test_random_vs_bruteforce () =
  let rng = Pcg.create ~seed:31337L () in
  for _case = 1 to 150 do
    let nv = 3 in
    let box = 6 in
    let ncons = 2 + Pcg.next_int rng 3 in
    let objective = List.init nv (fun v -> (v, q (1 + Pcg.next_int rng 9))) in
    let cons =
      List.init ncons (fun _ ->
          let coeffs = List.init nv (fun v -> (v, Pcg.next_int rng 4)) in
          let rhs = 1 + Pcg.next_int rng 20 in
          c coeffs Simplex.Le rhs)
      @ List.init nv (fun v -> c [ (v, 1) ] Simplex.Le box)
    in
    let problem = { Simplex.num_vars = nv; maximize = objective; constraints = cons } in
    (* brute force over the box *)
    let best = ref 0 in
    for x = 0 to box do
      for y = 0 to box do
        for z = 0 to box do
          let vals = [| x; y; z |] in
          let ok =
            List.for_all
              (fun (cc : Simplex.constr) ->
                let lhs =
                  List.fold_left (fun acc (v, k) -> acc + (Rat.floor k * vals.(v))) 0 cc.Simplex.coeffs
                in
                lhs <= Rat.floor cc.Simplex.rhs)
              cons
          in
          if ok then begin
            let obj =
              List.fold_left (fun acc (v, k) -> acc + (Rat.floor k * vals.(v))) 0 objective
            in
            if obj > !best then best := obj
          end
        done
      done
    done;
    match Ilp.solve ~max_nodes:2000 problem with
    | Ilp.Optimal (v, _) ->
      if Rat.floor v <> !best then
        Alcotest.failf "ILP %s but brute force %d" (Rat.to_string v) !best
    | Ilp.Unbounded -> Alcotest.fail "unexpected unbounded"
    | Ilp.Infeasible -> Alcotest.fail "unexpected infeasible"
  done

(* --- canonicalization hardening: generated IPET constraints can mention
   an edge twice, with zero coefficients, or cancel away entirely --- *)

let test_duplicate_pairs_merge () =
  (* (x,1),(x,1) must behave exactly like (x,2): max x s.t. x + x <= 7. *)
  check_opt "duplicates merged" "7/2"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (0, 1) ] Simplex.Le 7 ];
    };
  (* Duplicates in the objective too: max (x + x) s.t. x <= 3 -> 6. *)
  check_opt "objective duplicates merged" "6"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1); (0, q 1) ];
      constraints = [ c [ (0, 1) ] Simplex.Le 3 ];
    }

let test_cancelled_rows () =
  (* x - x <= 3 is the constant assertion 0 <= 3: satisfied, dropped. *)
  check_opt "cancelled Le row dropped" "5"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (0, -1) ] Simplex.Le 3; c [ (0, 1) ] Simplex.Le 5 ];
    };
  (* x - x = 0 is 0 = 0: satisfied (an all-zero Eq row must not burn an
     artificial that can never leave the basis). *)
  check_opt "cancelled Eq row satisfied" "5"
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (0, 1); (0, -1) ] Simplex.Eq 0; c [ (0, 1) ] Simplex.Le 5 ];
    };
  (* x - x >= 2 is 0 >= 2: trivially infeasible. *)
  match
    solve_value
      {
        Simplex.num_vars = 1;
        maximize = [ (0, q 1) ];
        constraints = [ c [ (0, 1); (0, -1) ] Simplex.Ge 2; c [ (0, 1) ] Simplex.Le 5 ];
      }
  with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "0 >= 2 must be infeasible"

let test_empty_objective_phase1 () =
  (* Empty objective over Ge/Eq rows: phase 1 does all the work and any
     feasible vertex is optimal at 0. *)
  check_opt "empty objective with artificials" "0"
    {
      Simplex.num_vars = 2;
      maximize = [];
      constraints = [ c [ (0, 1); (1, 1) ] Simplex.Eq 4; c [ (0, 1) ] Simplex.Ge 1 ];
    }

let test_out_of_range_variable_rejected () =
  let p =
    {
      Simplex.num_vars = 1;
      maximize = [ (0, q 1) ];
      constraints = [ c [ (1, 1) ] Simplex.Le 3 ];
    }
  in
  match Simplex.solve p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "variable 1 of a 1-variable problem must be rejected"

(* Property test: random box-bounded ILPs whose coefficient lists are
   mangled with duplicates and zero entries must agree with the naive
   enumerator (which sums raw pairs, duplicates and all). *)
let test_degenerate_random_vs_bruteforce () =
  let rng = Pcg.create ~seed:20110318L () in
  (* Split every pair (v, k) into (v, k - d) :: (v, d) and sprinkle zero
     coefficients, preserving the merged value. *)
  let mangle coeffs =
    List.concat_map
      (fun (v, k) ->
        let d = Pcg.next_int rng 7 - 3 in
        let zero = [ (Pcg.next_int rng 3, Rat.zero) ] in
        ((v, Rat.sub k (q d)) :: (v, q d) :: (if Pcg.next_int rng 2 = 0 then zero else [])))
      coeffs
  in
  for _case = 1 to 150 do
    let nv = 3 in
    let box = 6 in
    let ncons = 2 + Pcg.next_int rng 3 in
    let objective = List.init nv (fun v -> (v, q (1 + Pcg.next_int rng 9))) in
    let cons =
      List.init ncons (fun _ ->
          let coeffs = List.init nv (fun v -> (v, Pcg.next_int rng 4)) in
          let rhs = 1 + Pcg.next_int rng 20 in
          c coeffs Simplex.Le rhs)
      @ List.init nv (fun v -> c [ (v, 1) ] Simplex.Le box)
    in
    let mangled =
      List.map (fun (cc : Simplex.constr) -> { cc with Simplex.coeffs = mangle cc.Simplex.coeffs }) cons
    in
    let problem = { Simplex.num_vars = nv; maximize = mangle objective; constraints = mangled } in
    let eval coeffs vals =
      List.fold_left (fun acc (v, k) -> acc + (Rat.floor k * vals.(v))) 0 coeffs
    in
    let best = ref 0 in
    for x = 0 to box do
      for y = 0 to box do
        for z = 0 to box do
          let vals = [| x; y; z |] in
          if
            List.for_all
              (fun (cc : Simplex.constr) -> eval cc.Simplex.coeffs vals <= Rat.floor cc.Simplex.rhs)
              cons
          then begin
            let obj = eval objective vals in
            if obj > !best then best := obj
          end
        done
      done
    done;
    match Ilp.solve ~max_nodes:2000 problem with
    | Ilp.Optimal (v, _) ->
      if Rat.floor v <> !best then
        Alcotest.failf "mangled ILP %s but brute force %d" (Rat.to_string v) !best
    | Ilp.Unbounded -> Alcotest.fail "unexpected unbounded"
    | Ilp.Infeasible -> Alcotest.fail "unexpected infeasible"
  done

(* --- the sparse pivot against the dense reference --- *)

(* The simplex as it was before pivots went sparse: every pivot scales and
   eliminates across all columns of all rows. Kept verbatim (bar the pivot
   counter) as the oracle for [Simplex.solve]. *)
module Dense = struct
  open Simplex

  let pivots = ref 0

  type tableau = { t : Rat.t array array; basis : int array; cols : int }

  let pivot tab r c =
    incr pivots;
    let m = Array.length tab.t in
    let width = tab.cols + 1 in
    let prow = tab.t.(r) in
    let inv = Rat.div Rat.one prow.(c) in
    for j = 0 to width - 1 do
      prow.(j) <- Rat.mul prow.(j) inv
    done;
    for i = 0 to m - 1 do
      if i <> r then begin
        let factor = tab.t.(i).(c) in
        if Rat.sign factor <> 0 then begin
          let row = tab.t.(i) in
          for j = 0 to width - 1 do
            row.(j) <- Rat.sub row.(j) (Rat.mul factor prow.(j))
          done
        end
      end
    done;
    tab.basis.(r - 1) <- c

  let rec iterate tab ~allowed =
    let m = Array.length tab.t - 1 in
    let entering = ref (-1) in
    (try
       for j = 0 to tab.cols - 1 do
         if allowed j && Rat.sign tab.t.(0).(j) < 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let c = !entering in
      let best = ref None in
      for i = 1 to m do
        let a = tab.t.(i).(c) in
        if Rat.sign a > 0 then begin
          let ratio = Rat.div tab.t.(i).(tab.cols) a in
          match !best with
          | None -> best := Some (ratio, i)
          | Some (r0, i0) ->
            let cmp = Rat.compare ratio r0 in
            if cmp < 0 || (cmp = 0 && tab.basis.(i - 1) < tab.basis.(i0 - 1)) then
              best := Some (ratio, i)
        end
      done;
      match !best with
      | None -> `Unbounded
      | Some (_, r) ->
        pivot tab r c;
        iterate tab ~allowed
    end

  let canon ~num_vars coeffs =
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (v, q) ->
        if v < 0 || v >= num_vars then invalid_arg "Dense.solve";
        match Hashtbl.find_opt tbl v with
        | None ->
          order := v :: !order;
          Hashtbl.replace tbl v q
        | Some q0 -> Hashtbl.replace tbl v (Rat.add q0 q))
      coeffs;
    List.filter
      (fun (_, q) -> Rat.sign q <> 0)
      (List.rev_map (fun v -> (v, Hashtbl.find tbl v)) !order)

  exception Trivially_infeasible

  let rec solve (p : problem) =
    match
      List.filter_map
        (fun c ->
          let coeffs = canon ~num_vars:p.num_vars c.coeffs in
          if coeffs = [] then begin
            let sat =
              match c.op with
              | Le -> Rat.sign c.rhs >= 0
              | Ge -> Rat.sign c.rhs <= 0
              | Eq -> Rat.sign c.rhs = 0
            in
            if sat then None else raise Trivially_infeasible
          end
          else Some { c with coeffs })
        p.constraints
    with
    | exception Trivially_infeasible -> Infeasible
    | canonical -> solve_canonical { p with constraints = canonical }

  and solve_canonical (p : problem) =
    let maximize = canon ~num_vars:p.num_vars p.maximize in
    let m = List.length p.constraints in
    let constraints =
      List.map
        (fun c ->
          if Rat.sign c.rhs < 0 then
            {
              coeffs = List.map (fun (v, q) -> (v, Rat.neg q)) c.coeffs;
              op = (match c.op with Le -> Ge | Ge -> Le | Eq -> Eq);
              rhs = Rat.neg c.rhs;
            }
          else c)
        p.constraints
    in
    let n_slack = List.length (List.filter (fun c -> c.op <> Eq) constraints) in
    let n_art =
      List.length (List.filter (fun c -> match c.op with Le -> false | Ge | Eq -> true) constraints)
    in
    let cols = p.num_vars + n_slack + n_art in
    let t = Array.init (m + 1) (fun _ -> Array.make (cols + 1) Rat.zero) in
    let basis = Array.make m 0 in
    let tab = { t; basis; cols } in
    let slack_cursor = ref p.num_vars in
    let art_cursor = ref (p.num_vars + n_slack) in
    let art_cols = ref [] in
    List.iteri
      (fun idx c ->
        let row = t.(idx + 1) in
        List.iter (fun (v, q) -> row.(v) <- Rat.add row.(v) q) c.coeffs;
        row.(cols) <- c.rhs;
        match c.op with
        | Le ->
          let s = !slack_cursor in
          incr slack_cursor;
          row.(s) <- Rat.one;
          basis.(idx) <- s
        | Ge ->
          let s = !slack_cursor in
          incr slack_cursor;
          row.(s) <- Rat.minus_one;
          let a = !art_cursor in
          incr art_cursor;
          row.(a) <- Rat.one;
          art_cols := a :: !art_cols;
          basis.(idx) <- a
        | Eq ->
          let a = !art_cursor in
          incr art_cursor;
          row.(a) <- Rat.one;
          art_cols := a :: !art_cols;
          basis.(idx) <- a)
      constraints;
    let is_artificial j = j >= p.num_vars + n_slack in
    if n_art > 0 then begin
      List.iter (fun a -> t.(0).(a) <- Rat.one) !art_cols;
      for i = 1 to m do
        if is_artificial basis.(i - 1) then
          for j = 0 to cols do
            t.(0).(j) <- Rat.sub t.(0).(j) t.(i).(j)
          done
      done;
      match iterate tab ~allowed:(fun _ -> true) with
      | `Unbounded -> assert false
      | `Optimal -> ()
    end;
    if n_art > 0 && Rat.sign t.(0).(cols) <> 0 then Infeasible
    else begin
      for i = 1 to m do
        if is_artificial basis.(i - 1) then begin
          let found = ref (-1) in
          (try
             for j = 0 to p.num_vars + n_slack - 1 do
               if Rat.sign t.(i).(j) <> 0 then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot tab i !found
        end
      done;
      for j = 0 to cols do
        t.(0).(j) <- Rat.zero
      done;
      List.iter (fun (v, q) -> t.(0).(v) <- Rat.sub t.(0).(v) q) maximize;
      for i = 1 to m do
        let b = basis.(i - 1) in
        let factor = t.(0).(b) in
        if Rat.sign factor <> 0 then
          for j = 0 to cols do
            t.(0).(j) <- Rat.sub t.(0).(j) (Rat.mul factor t.(i).(j))
          done
      done;
      match iterate tab ~allowed:(fun j -> not (is_artificial j)) with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let assignment = Array.make p.num_vars Rat.zero in
        for i = 1 to m do
          if basis.(i - 1) < p.num_vars then assignment.(basis.(i - 1)) <- t.(i).(cols)
        done;
        Optimal (t.(0).(cols), assignment)
    end
end

let simplex_pivots () =
  match Wcet_obs.Metrics.find "simplex_pivots" with
  | Some (Wcet_obs.Metrics.Counter_value n) -> n
  | _ -> Alcotest.fail "simplex_pivots is not registered"

(* A random IPET problem over a random CFG: a chain 0 -> 1 -> ... -> n-1
   with forward branches and loops (back edges), the last node exiting.
   Rows are flow conservation ([Eq], entry rhs -1), loop bounds
   [back - B * entries <= 0], and count facts [sum k * count <= b]; the
   objective gives each edge a random time. A loop left without a
   bound makes the problem unbounded and a tight fact can make it
   infeasible, so all three outcomes occur. *)
let random_ipet rng ~mangle =
  let n = 3 + Pcg.next_int rng 18 in
  let edges = ref [] in
  for i = 0 to n - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for _ = 1 to Pcg.next_int rng (n / 2 + 1) do
    let u = Pcg.next_int rng (n - 1) in
    let v = u + 1 + Pcg.next_int rng (n - 1 - u) in
    edges := (u, v) :: !edges
  done;
  let loops = ref [] in
  for _ = 1 to Pcg.next_int rng 4 do
    let h = 1 + Pcg.next_int rng (n - 1) in
    let l = h + Pcg.next_int rng (n - h) in
    edges := (l, h) :: !edges;
    loops := (List.length !edges - 1, h) :: !loops
  done;
  (* a back edge's index is its position in order of addition *)
  let edges = Array.of_list (List.rev !edges) in
  let ne = Array.length edges in
  let exit_var = ne in
  let num_vars = ne + 1 in
  let in_edges v = List.filter (fun e -> snd edges.(e) = v) (List.init ne Fun.id) in
  let out_edges v = List.filter (fun e -> fst edges.(e) = v) (List.init ne Fun.id) in
  let flow =
    List.init n (fun v ->
        let coeffs =
          List.map (fun e -> (e, Rat.one)) (in_edges v)
          @ List.map (fun e -> (e, Rat.minus_one)) (out_edges v)
          @ if v = n - 1 then [ (exit_var, Rat.minus_one) ] else []
        in
        { Simplex.coeffs; op = Simplex.Eq; rhs = (if v = 0 then Rat.minus_one else Rat.zero) })
  in
  let bounds =
    List.filter_map
      (fun (back, h) ->
        if Pcg.next_int rng 10 = 0 then None
        else
          let bound = Pcg.next_int rng 12 in
          let entries = List.filter (fun e -> fst edges.(e) < h) (in_edges h) in
          Some
            {
              Simplex.coeffs =
                (back, Rat.one) :: List.map (fun e -> (e, q (-bound))) entries;
              op = Simplex.Le;
              rhs = Rat.zero;
            })
      !loops
  in
  let facts =
    List.init (Pcg.next_int rng 3) (fun _ ->
        let terms =
          List.init (1 + Pcg.next_int rng 3) (fun _ ->
              (Pcg.next_int rng n, List.nth [ -1; 1; 2 ] (Pcg.next_int rng 3)))
        in
        (* count(v) is v's inflow, plus the constant 1 for the entry *)
        let const = List.fold_left (fun acc (v, k) -> if v = 0 then acc + k else acc) 0 terms in
        {
          Simplex.coeffs =
            List.concat_map (fun (v, k) -> List.map (fun e -> (e, q k)) (in_edges v)) terms;
          op = Simplex.Le;
          rhs = q (Pcg.next_int rng 15 - const);
        })
  in
  let maximize = List.init ne (fun e -> (e, q (1 + Pcg.next_int rng 40))) in
  let mangle_row (cc : Simplex.constr) = { cc with Simplex.coeffs = mangle cc.Simplex.coeffs } in
  {
    Simplex.num_vars;
    maximize = mangle maximize;
    constraints = List.map mangle_row (flow @ bounds @ facts);
  }

let test_sparse_vs_dense_pivot () =
  let rng = Pcg.create ~seed:18032011L () in
  let mangle coeffs =
    List.concat_map
      (fun (v, k) ->
        if Pcg.next_int rng 4 <> 0 then [ (v, k) ]
        else
          let d = Pcg.next_int rng 7 - 3 in
          let zero = if Pcg.next_int rng 2 = 0 then [ (v, Rat.zero) ] else [] in
          (v, Rat.sub k (q d)) :: (v, q d) :: zero)
      coeffs
  in
  let seen = Hashtbl.create 3 in
  Wcet_obs.Obs.enable ();
  Fun.protect ~finally:Wcet_obs.Obs.disable (fun () ->
      for case = 1 to 300 do
        let problem = random_ipet rng ~mangle in
        let before = simplex_pivots () in
        let sparse = Simplex.solve problem in
        let sparse_pivots = simplex_pivots () - before in
        Dense.pivots := 0;
        let dense = Dense.solve problem in
        if sparse_pivots <> !Dense.pivots then
          Alcotest.failf "case %d: %d sparse pivots, %d dense" case sparse_pivots !Dense.pivots;
        let kind =
          match (sparse, dense) with
          | Simplex.Optimal (v, a), Simplex.Optimal (v', a') ->
            if not (Rat.equal v v') then
              Alcotest.failf "case %d: optimum %s, dense %s" case (Rat.to_string v)
                (Rat.to_string v');
            if Array.length a <> Array.length a' || not (Array.for_all2 Rat.equal a a') then
              Alcotest.failf "case %d: assignments differ" case;
            "optimal"
          | Simplex.Unbounded, Simplex.Unbounded -> "unbounded"
          | Simplex.Infeasible, Simplex.Infeasible -> "infeasible"
          | _ -> Alcotest.failf "case %d: outcomes differ" case
        in
        Hashtbl.replace seen kind ()
      done);
  List.iter
    (fun kind -> Alcotest.(check bool) (kind ^ " occurs") true (Hashtbl.mem seen kind))
    [ "optimal"; "unbounded"; "infeasible" ]

(* IPET-shaped problem: a diamond with a loop. *)
let test_flow_shape () =
  (* Variables: e0 entry->A, e1 A->B, e2 A->C, e3 B->D, e4 C->D, e5 D->A
     (back edge), e6 D->exit. Conservation at A: e0 + e5 = e1 + e2; B: e1 =
     e3; C: e2 = e4; D: e3 + e4 = e5 + e6. Entry: e0 = 1. Loop bound: e5 <=
     9 * e0. Times: B heavy (100), C light (1). Max total time. *)
  let problem =
    {
      Simplex.num_vars = 7;
      maximize = [ (1, q 100); (2, q 1) ];
      (* count time at B via e1, at C via e2 *)
      constraints =
        [
          c [ (0, 1) ] Simplex.Eq 1;
          c [ (0, 1); (5, 1); (1, -1); (2, -1) ] Simplex.Eq 0;
          c [ (1, 1); (3, -1) ] Simplex.Eq 0;
          c [ (2, 1); (4, -1) ] Simplex.Eq 0;
          c [ (3, 1); (4, 1); (5, -1); (6, -1) ] Simplex.Eq 0;
          c [ (5, 1); (0, -9) ] Simplex.Le 0;
        ];
    }
  in
  match Ilp.solve problem with
  | Ilp.Optimal (v, _) ->
    (* 10 trips through A, all taking the heavy branch: 10 * 100 *)
    Alcotest.(check string) "flow optimum" "1000" (Rat.to_string v)
  | _ -> Alcotest.fail "expected optimum"

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "simple max" `Quick test_simple_max;
          Alcotest.test_case "fractional" `Quick test_fractional_optimum;
          Alcotest.test_case "equalities" `Quick test_equality_constraints;
          Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "duplicate pairs merge" `Quick test_duplicate_pairs_merge;
          Alcotest.test_case "cancelled rows" `Quick test_cancelled_rows;
          Alcotest.test_case "empty objective phase 1" `Quick test_empty_objective_phase1;
          Alcotest.test_case "out-of-range variable" `Quick
            test_out_of_range_variable_rejected;
          Alcotest.test_case "degenerate random vs brute force" `Quick
            test_degenerate_random_vs_bruteforce;
          Alcotest.test_case "sparse pivot vs dense reference" `Quick
            test_sparse_vs_dense_pivot;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "rounding" `Quick test_ilp_rounding;
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "random vs brute force" `Quick test_random_vs_bruteforce;
          Alcotest.test_case "IPET flow shape" `Quick test_flow_shape;
        ] );
    ]
