(* Octagon abstract domain: conjunctions of constraints of the form
   [±x ±y <= c] over a fixed set of integer variables (registers plus
   tracked stack/global slots), represented as a difference-bound matrix
   in Mine's encoding.

   Each octagon variable [v] contributes two DBM vertices: [2v] standing
   for [+x_v] and [2v+1] for [-x_v]. The matrix is one flat row-major
   array of [n*n] cells ([n = 2*dim]); cell (i, j), at index [i*n + j], is
   an upper bound on [V_j - V_i] (max_int = unconstrained), so

     x_u - x_v <= c   lives at  (2v, 2u)
     x_u + x_v <= c   lives at  (2v+1, 2u)
    -x_u - x_v <= c   lives at  (2v, 2u+1)
         x_v <= c     lives at  (2v+1, 2v)  as  2c
        -x_v <= c     lives at  (2v, 2v+1)  as  2c

   with the coherence invariant [(i, j) = (bar j, bar i)] where [bar]
   flips the low bit; every write goes to both cells.

   Soundness under 32-bit wraparound: a variable participates in
   constraints only while its companion interval proves its concrete value
   lies in [0, 2^31) (the "safe" range, where unsigned machine order,
   signed order and mathematical order on the representatives coincide and
   the tracked arithmetic cannot wrap). The transfer functions in
   {!Analysis} forget a variable the moment that proof lapses, so every
   recorded constraint is a true statement about mathematical integers.

   Closure discipline: strong closure is a precision device, never a
   soundness requirement — every stored constraint is individually true,
   so reading an unclosed matrix only loses precision. We therefore keep
   matrices closed incrementally where cheap (constraint addition,
   assignment) and accept temporary unclosedness after widening (closing a
   widened iterate would break termination).

   Mutation discipline: the kernels below edit a private matrix in place
   ({!edit}). A transfer copies its input once, applies every update of a
   block to the copy and {!freeze}s it; the pure operations are the same
   kernels wrapped in one copy each. *)

let inf = max_int

(* [strong]: every pair of vertices [i], [j] with finite unary cells
   already satisfies the strengthening bound
   [m(i, bar j) <= m(i, bar i) / 2 + m(j, bar j) / 2]. The closure below
   then only revisits pairs whose unary cells it changed. [top] and every
   closure establish it; forget, shift and negate-shift preserve it; a join
   keeps it when both inputs have it (a max of cells under a max of
   bounds); meet and widen drop it. *)
type t = {
  dim : int;  (* octagon variables; matrix is 2*dim square *)
  m : int array option;  (* None = bottom *)
  thr : int array;  (* widening thresholds, sorted ascending *)
  strong : bool;
}

type edit = {
  base : t;  (* dimension and thresholds of the result *)
  n : int;  (* 2 * dim *)
  cells : int array;  (* owned copy; meaningless once [bot] *)
  mutable bot : bool;
  mutable strong_e : bool;  (* [t.strong] of the cells being edited *)
  mutable work : int array;  (* closure working sets, allocated on first use *)
}

let bar i = i lxor 1

let imin (a : int) b = if a <= b then a else b

(* Saturating addition of path weights. *)
let ( +! ) a b = if a = inf || b = inf then inf else a + b

(* Round down to an even value (unary cells encode 2c). *)
let floor_even c = if c = inf then inf else c - (c land 1)

let no_thresholds = [||]

let top ?(thresholds = no_thresholds) dim =
  let n = 2 * dim in
  let m = Array.make (n * n) inf in
  for i = 0 to n - 1 do
    m.((i * n) + i) <- 0
  done;
  { dim; m = Some m; thr = thresholds; strong = true }

let bottom ?(thresholds = no_thresholds) dim = { dim; m = None; thr = thresholds; strong = true }
let is_bot t = t.m = None
let dim t = t.dim

let cells t =
  let n = 2 * t.dim in
  Option.map (fun m -> Array.init n (fun i -> Array.sub m (i * n) n)) t.m

let edit t =
  let cells, bot = match t.m with Some m -> (Array.copy m, false) | None -> ([||], true) in
  { base = t; n = 2 * t.dim; cells; bot; strong_e = t.strong; work = [||] }

let freeze e = { e.base with m = (if e.bot then None else Some e.cells); strong = e.strong_e }

(* ---- consistency ---------------------------------------------------- *)

(* A DBM is inconsistent when some cycle has negative weight; after the
   incremental updates below it suffices to look at the diagonal and the
   unary pairs. *)
let consistent m n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if m.((i * n) + i) < 0 then ok := false;
    if m.((i * n) + bar i) +! m.((bar i * n) + i) < 0 then ok := false
  done;
  !ok

let normalize e = if (not e.bot) && not (consistent e.cells e.n) then e.bot <- true

(* ---- incremental closure -------------------------------------------- *)

(* Working-set layout, [n] ints each: the snapshots of column [a], column
   [bar b], row [b] and row [bar a], then the row, column and unary
   working sets, the unary cells before the step and the vertices whose
   unary cell it changed. *)
let work e =
  if Array.length e.work = 0 then e.work <- Array.make (9 * e.n) 0;
  e.work

(* The strengthening candidate of the vertex pair (i, j'): cell
   (i, bar j') is at most the sum of the two unary half-bounds. The pair
   (j', i) writes the coherent mirror of that cell. *)
let strengthen m n i j' =
  let j = bar j' in
  let v = (m.((i * n) + bar i) / 2) + (m.((j' * n) + j) / 2) in
  if v < m.((i * n) + j) then m.((i * n) + j) <- v

(* Tighten all paths through the new constraint [V_b - V_a <= c] (written
   at (a, b)) and its coherent mirror (bar b, bar a), then strengthen via
   the unary cells. Mine's incremental closure: a shortest path in the
   updated graph uses the new edge at most twice (once in each
   orientation; a third use would close a negative cycle), so four path
   candidates per cell, all evaluated against the pre-insertion matrix,
   restore strong closure. The candidates ending in row [b] and the ones
   ending in row [bar a] share their suffix, and [+!] is monotone and
   saturating, so each pair folds into one: a min of two per-row prefixes
   plus the row cell.

   Only rows with a finite cell in column [a] or [bar b] and columns with
   a finite cell in row [b] or [bar a] can get a finite candidate; every
   other cell keeps its value, so the loops visit that product only. The
   strengthening pass likewise pairs only vertices with a finite unary
   cell: it never rewrites a unary cell (the candidate for (i, bar i) is
   the cell itself), so that set is fixed before the pass. None of this
   assumes a closed input, so it holds after widening too.

   On a [strong] input the pass revisits only the pairs that touch a
   vertex whose unary cell this step changed: a pair whose two unary cells
   are unchanged met its strengthening bound before the step, and the step
   only lowered its cell. The result is the full pass's, cell for cell. *)
let close_after_add e a b c =
  let m = e.cells and n = e.n in
  if c < m.((a * n) + b) then begin
    let a' = bar a and b' = bar b in
    let s = work e in
    let col_a = 0 and col_b' = n and row_b = 2 * n and row_a' = 3 * n in
    let rows = 4 * n and cols = 5 * n and unary = 6 * n and before = 7 * n and changed = 8 * n in
    for i = 0 to n - 1 do
      s.(before + i) <- m.((i * n) + bar i)
    done;
    Array.blit m (b * n) s row_b n;
    Array.blit m (a' * n) s row_a' n;
    let nr = ref 0 in
    for i = 0 to n - 1 do
      let ia = m.((i * n) + a) and ib' = m.((i * n) + b') in
      s.(col_a + i) <- ia;
      s.(col_b' + i) <- ib';
      if ia < inf || ib' < inf then begin
        s.(rows + !nr) <- i;
        incr nr
      end
    done;
    let nc = ref 0 in
    for j = 0 to n - 1 do
      if s.(row_b + j) < inf || s.(row_a' + j) < inf then begin
        s.(cols + !nc) <- j;
        incr nc
      end
    done;
    let w_bb' = s.(row_b + b') and w_a'a = s.(row_a' + a) in
    for r = 0 to !nr - 1 do
      let i = s.(rows + r) in
      let ia = s.(col_a + i) and ib' = s.(col_b' + i) in
      (* i -> a -> b, or i -> bar b -> bar a ->* a -> b; then b -> j *)
      let via_b = imin (ia +! c) (ib' +! c +! w_a'a +! c) in
      (* i -> bar b -> bar a, or i -> a -> b ->* bar b -> bar a; then bar a -> j *)
      let via_a' = imin (ib' +! c) (ia +! c +! w_bb' +! c) in
      let base = i * n in
      for k = 0 to !nc - 1 do
        let j = s.(cols + k) in
        let best = imin (via_b +! s.(row_b + j)) (via_a' +! s.(row_a' + j)) in
        if best < m.(base + j) then m.(base + j) <- best
      done
    done;
    (* Unary cells encode 2c: floor to even, then strengthen by combining
       the two unary half-bounds. *)
    let nu = ref 0 and nch = ref 0 in
    for i = 0 to n - 1 do
      let k = (i * n) + bar i in
      let u = floor_even m.(k) in
      m.(k) <- u;
      if u / 2 < inf / 4 then begin
        s.(unary + !nu) <- i;
        incr nu;
        if u <> s.(before + i) then begin
          s.(changed + !nch) <- i;
          incr nch
        end
      end
    done;
    if e.strong_e then
      for x = 0 to !nch - 1 do
        let c = s.(changed + x) in
        for y = 0 to !nu - 1 do
          let o = s.(unary + y) in
          strengthen m n c o;
          strengthen m n o c
        done
      done
    else
      for x = 0 to !nu - 1 do
        let i = s.(unary + x) in
        for y = 0 to !nu - 1 do
          strengthen m n i s.(unary + y)
        done
      done;
    e.strong_e <- true
  end

(* ---- queries --------------------------------------------------------- *)

(* On bottom both bounds collapse to the empty pair. *)
let no_bounds = (Some 0, Some (-1))

(* Bounds of x_v as (lo option, hi option); None = unconstrained on that
   side. *)
let var_bounds_in m n v =
  let p = 2 * v and q = (2 * v) + 1 in
  let hi = m.((q * n) + p) and lo = m.((p * n) + q) in
  ( (if lo = inf then None else Some (-(floor_even lo / 2))),
    if hi = inf then None else Some (floor_even hi / 2) )

(* Bounds of x_u - x_v: (lo option, hi option). *)
let diff_bounds_in m n ~u ~v =
  let ub = m.((2 * v * n) + (2 * u)) and nlb = m.((2 * u * n) + (2 * v)) in
  ( (if nlb = inf then None else Some (-nlb)),
    if ub = inf then None else Some ub )

(* ---- in-place operations -------------------------------------------- *)

(* Every operation is a no-op on bottom; one that finds the matrix
   inconsistent turns the edit into bottom. *)
module Edit = struct
  let is_bot e = e.bot

  let add e a b c =
    if not e.bot then begin
      close_after_add e a b c;
      normalize e
    end

  (* x_u - x_v <= c *)
  let add_diff e ~u ~v c =
    if u = v then (if c < 0 then e.bot <- true) else add e (2 * v) (2 * u) c

  (* x_u + x_v <= c *)
  let add_sum_ub e ~u ~v c =
    if u = v then add e ((2 * u) + 1) (2 * u) (floor_even c) else add e ((2 * v) + 1) (2 * u) c

  (* -x_u - x_v <= c, i.e. x_u + x_v >= -c *)
  let add_sum_lb e ~u ~v c =
    if u = v then add e (2 * u) ((2 * u) + 1) (floor_even c) else add e (2 * v) ((2 * u) + 1) c

  let add_ub e v c = add_sum_ub e ~u:v ~v (2 * c)
  let add_lb e v c = add_sum_lb e ~u:v ~v (-2 * c)

  (* Drop every constraint mentioning [v]. On a closed matrix the result
     is closed (removing a variable cannot invalidate closure elsewhere). *)
  let forget e v =
    if not e.bot then begin
      let m = e.cells and n = e.n in
      let p = 2 * v and q = (2 * v) + 1 in
      Array.fill m (p * n) (2 * n) inf;
      for i = 0 to n - 1 do
        m.((i * n) + p) <- inf;
        m.((i * n) + q) <- inf
      done;
      m.((p * n) + p) <- 0;
      m.((q * n) + q) <- 0
    end

  (* x_v := x_v + c: an exact shift of the two DBM vertices of [v]. The
     caller guarantees no machine wraparound. Preserves closure. *)
  let shift e v c =
    if not e.bot then begin
      let m = e.cells and n = e.n in
      let p = 2 * v and q = (2 * v) + 1 in
      for i = 0 to n - 1 do
        if i <> p && i <> q then begin
          (* V_p grows by c: bounds on V_p - V_i grow, on V_i - V_p shrink. *)
          m.((i * n) + p) <- m.((i * n) + p) +! c;
          m.((p * n) + i) <- m.((p * n) + i) +! -c;
          (* V_q = -x_v shrinks by c. *)
          m.((i * n) + q) <- m.((i * n) + q) +! -c;
          m.((q * n) + i) <- m.((q * n) + i) +! c
        end
      done;
      m.((q * n) + p) <- m.((q * n) + p) +! (2 * c);
      m.((p * n) + q) <- m.((p * n) + q) +! (-2 * c);
      normalize e
    end

  (* x_v := -x_v + c (used for  x := c - x ): swap the vertices, then
     shift. *)
  let negate_shift e v c =
    if not e.bot then begin
      let m = e.cells and n = e.n in
      let p = 2 * v and q = (2 * v) + 1 in
      for i = 0 to n - 1 do
        let tmp = m.((i * n) + p) in
        m.((i * n) + p) <- m.((i * n) + q);
        m.((i * n) + q) <- tmp
      done;
      for i = 0 to n - 1 do
        let tmp = m.((p * n) + i) in
        m.((p * n) + i) <- m.((q * n) + i);
        m.((q * n) + i) <- tmp
      done;
      normalize e;
      shift e v c
    end

  (* x_d := x_s + c  (d <> s handled by forget+add; d = s by shift). *)
  let assign_var_plus e ~dst ~src c =
    if dst = src then shift e dst c
    else begin
      forget e dst;
      add_diff e ~u:dst ~v:src c;
      add_diff e ~u:src ~v:dst (-c)
    end

  (* x_d := c - x_s. *)
  let assign_const_minus e ~dst ~src c =
    if dst = src then negate_shift e dst c
    else begin
      forget e dst;
      add_sum_ub e ~u:dst ~v:src c;
      add_sum_lb e ~u:dst ~v:src (-c)
    end

  let assign_interval e dst (lo, hi) =
    forget e dst;
    add_ub e dst hi;
    add_lb e dst lo

  let var_bounds e v = if e.bot then no_bounds else var_bounds_in e.cells e.n v
  let diff_bounds e ~u ~v = if e.bot then no_bounds else diff_bounds_in e.cells e.n ~u ~v
end

(* ---- pure operations ------------------------------------------------- *)

(* One copy, one kernel: bottom passes through. *)
let pure f t =
  let e = edit t in
  f e;
  freeze e

let add_diff t ~u ~v c = pure (fun e -> Edit.add_diff e ~u ~v c) t
let add_sum_ub t ~u ~v c = pure (fun e -> Edit.add_sum_ub e ~u ~v c) t
let add_sum_lb t ~u ~v c = pure (fun e -> Edit.add_sum_lb e ~u ~v c) t
let add_ub t v c = pure (fun e -> Edit.add_ub e v c) t
let add_lb t v c = pure (fun e -> Edit.add_lb e v c) t
let forget t v = pure (fun e -> Edit.forget e v) t
let assign_var_plus t ~dst ~src c = pure (fun e -> Edit.assign_var_plus e ~dst ~src c) t
let assign_const_minus t ~dst ~src c = pure (fun e -> Edit.assign_const_minus e ~dst ~src c) t
let assign_interval t v range = pure (fun e -> Edit.assign_interval e v range) t

let var_bounds t v = match t.m with Some m -> var_bounds_in m (2 * t.dim) v | None -> no_bounds

let diff_bounds t ~u ~v =
  match t.m with Some m -> diff_bounds_in m (2 * t.dim) ~u ~v | None -> no_bounds

(* ---- lattice --------------------------------------------------------- *)

let leq a b =
  match (a.m, b.m) with
  | None, _ -> true
  | Some _, None -> false
  | Some ma, Some mb ->
    let len = Array.length ma in
    let k = ref 0 in
    while !k < len && ma.(!k) <= mb.(!k) do incr k done;
    !k = len

let equal a b =
  match (a.m, b.m) with
  | None, None -> true
  | Some ma, Some mb -> ma = mb
  | _ -> false

(* Cell-wise max. The join of two strongly closed octagons is strongly
   closed; on partially closed inputs it is merely a sound upper bound. *)
let join a b =
  match (a.m, b.m) with
  | None, _ -> b
  | _, None -> a
  | Some ma, Some mb ->
    let m = Array.copy ma in
    for k = 0 to Array.length m - 1 do
      if mb.(k) > m.(k) then m.(k) <- mb.(k)
    done;
    { a with m = Some m; strong = a.strong && b.strong }

(* Cell-wise meet (no re-closure: precision-only). *)
let meet a b =
  match (a.m, b.m) with
  | None, _ -> a
  | _, None -> b
  | Some ma, Some mb ->
    let m = Array.copy ma in
    for k = 0 to Array.length m - 1 do
      if mb.(k) < m.(k) then m.(k) <- mb.(k)
    done;
    { a with m = (if consistent m (2 * a.dim) then Some m else None); strong = false }

(* Threshold widening: a cell that grew jumps to the smallest threshold
   that still covers it (infinity when none does); stable cells keep their
   old bound. Each cell ascends a finite chain, so widening sequences
   terminate. The result is deliberately not re-closed. *)
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
    let m = Array.copy ma in
    for k = 0 to Array.length m - 1 do
      let y = mb.(k) in
      if y > m.(k) then m.(k) <- jump y
    done;
    { a with m = Some m; strong = false }

let pp ppf t =
  match t.m with
  | None -> Format.fprintf ppf "bottom"
  | Some m ->
    let n = 2 * t.dim in
    let printed = ref 0 in
    Format.fprintf ppf "@[<v>";
    for v = 0 to t.dim - 1 do
      match var_bounds t v with
      | None, None -> ()
      | lo, hi ->
        let side = function Some c -> string_of_int c | None -> "?" in
        Format.fprintf ppf "x%d in [%s,%s]@," v (side lo) (side hi);
        incr printed
    done;
    for u = 0 to t.dim - 1 do
      for v = 0 to t.dim - 1 do
        if u <> v then begin
          let c = m.((2 * v * n) + (2 * u)) in
          if c < inf then begin
            Format.fprintf ppf "x%d - x%d <= %d@," u v c;
            incr printed
          end
        end
      done
    done;
    if !printed = 0 then Format.fprintf ppf "top";
    Format.fprintf ppf "@]"

(* Full strong closure (Floyd-Warshall + strengthening), exposed for the
   property tests; the incremental operations above keep matrices closed
   in normal operation. *)
let close t =
  match t.m with
  | None -> t
  | Some m ->
    let m = Array.copy m in
    let n = 2 * t.dim in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        let ik = m.((i * n) + k) in
        if ik < inf then
          for j = 0 to n - 1 do
            let via = ik +! m.((k * n) + j) in
            if via < m.((i * n) + j) then m.((i * n) + j) <- via
          done
      done
    done;
    for i = 0 to n - 1 do
      m.((i * n) + bar i) <- floor_even m.((i * n) + bar i)
    done;
    for i = 0 to n - 1 do
      let ui = floor_even m.((i * n) + bar i) / 2 in
      if ui < inf / 4 then
        for j = 0 to n - 1 do
          let uj = floor_even m.((bar j * n) + j) / 2 in
          if uj < inf / 4 && ui + uj < m.((i * n) + j) then m.((i * n) + j) <- ui + uj
        done
    done;
    { t with m = (if consistent m n then Some m else None); strong = true }
