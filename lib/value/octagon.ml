(* Octagon abstract domain: conjunctions of constraints of the form
   [±x ±y <= c] over a fixed set of integer variables (registers plus
   tracked stack/global slots), represented as a difference-bound matrix
   in Mine's encoding.

   Each octagon variable [v] contributes two DBM vertices: [2v] standing
   for [+x_v] and [2v+1] for [-x_v]. Cell (i, j) of the [n*n] matrix
   ([n = 2*dim]) is an upper bound on [V_j - V_i] (max_int =
   unconstrained), so

     x_u - x_v <= c   lives at  (2v, 2u)
     x_u + x_v <= c   lives at  (2v+1, 2u)
    -x_u - x_v <= c   lives at  (2v, 2u+1)
         x_v <= c     lives at  (2v+1, 2v)  as  2c
        -x_v <= c     lives at  (2v, 2v+1)  as  2c

   with the coherence invariant [(i, j) = (bar j, bar i)] where [bar]
   flips the low bit. The matrix stores one cell of each coherent pair:
   Mine's half-matrix layout ("The Octagon Abstract Domain", HOSC 2006).
   Cell (i, j) is stored when [j <= i lor 1], at [j + (i+1)^2/2], in one
   flat array of [n*(n+2)/2] cells; the 2x2 diagonal blocks, whose mirror
   pairs both lie inside the block, are stored whole. Any other cell is
   read through its mirror.

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
  dim : int;  (* octagon variables; the matrix is 2*dim square *)
  m : int array option;  (* stored half; None = bottom *)
  thr : int array;  (* widening thresholds, sorted ascending *)
  strong : bool;
}

type edit = {
  base : t;  (* dimension and thresholds of the result *)
  n : int;  (* 2 * dim *)
  cells : int array;  (* owned copy of the stored half; meaningless once [bot] *)
  mutable bot : bool;
  mutable strong_e : bool;  (* [t.strong] of the cells being edited *)
  mutable work : int array;  (* closure working sets, allocated on first use *)
}

let bar i = i lxor 1

(* Index of the stored cell (i, j), [j <= i lor 1]. *)
let[@inline] pos i j = j + ((i + 1) * (i + 1) / 2)

(* Index of any cell: itself when stored, else its coherent mirror
   (bar j, bar i), which then is. *)
let[@inline] idx i j = if j <= i lor 1 then pos i j else pos (bar j) (bar i)

let half_size n = n * (n + 2) / 2

let imin (a : int) b = if a <= b then a else b

(* Saturating addition of path weights. *)
let ( +! ) a b = if a = inf || b = inf then inf else a + b

(* Round down to an even value (unary cells encode 2c). *)
let floor_even c = if c = inf then inf else c - (c land 1)

let no_thresholds = [||]

let top ?(thresholds = no_thresholds) dim =
  let n = 2 * dim in
  let m = Array.make (half_size n) inf in
  for i = 0 to n - 1 do
    m.(pos i i) <- 0
  done;
  { dim; m = Some m; thr = thresholds; strong = true }

let bottom ?(thresholds = no_thresholds) dim = { dim; m = None; thr = thresholds; strong = true }
let is_bot t = t.m = None
let dim t = t.dim

let cells t =
  let n = 2 * t.dim in
  Option.map (fun m -> Array.init n (fun i -> Array.init n (fun j -> m.(idx i j)))) t.m

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
    if m.(pos i i) < 0 then ok := false;
    if m.(pos i (bar i)) +! m.(pos (bar i) i) < 0 then ok := false
  done;
  !ok

let normalize e = if (not e.bot) && not (consistent e.cells e.n) then e.bot <- true

(* ---- incremental closure -------------------------------------------- *)

(* Working-set layout, [n] ints each: the snapshots of rows [b] and
   [bar a], then the column, unary and changed-vertex working sets and the
   unary cells before the step. *)
let work e =
  if Array.length e.work = 0 then e.work <- Array.make (7 * e.n) 0;
  e.work

(* The strengthening candidate of the vertex pair {i, j'}: cell
   (i, bar j') and its coherent mirror (j', bar i) are at most the sum of
   the two unary half-bounds. Outside a diagonal block the two are one
   stored cell; inside one, both are stored. *)
let strengthen m i j' =
  let v = (m.(pos i (bar i)) / 2) + (m.(pos j' (bar j')) / 2) in
  let k = idx i (bar j') in
  if v < m.(k) then m.(k) <- v;
  if i lor 1 = j' lor 1 then begin
    let k = pos j' (bar i) in
    if v < m.(k) then m.(k) <- v
  end

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

   Only columns with a finite cell in row [b] or [bar a] can get a finite
   candidate, and by coherence the rows that can are their mirrors: column
   [a] is row [bar a] read backwards ([m(i, a) = m(bar a, bar i)]), and
   column [bar b] is row [b] ([m(i, bar b) = m(b, bar i)]). So the two row
   snapshots are the whole working set. Each stored cell of that product
   is written once: the columns are visited in ascending order up to
   [i lor 1]. The strengthening pass pairs only vertices with a finite
   unary cell: it never rewrites a unary cell (the candidate for
   (i, bar i) is the cell itself), so that set is fixed before the pass.
   None of this assumes a closed input, so it holds after widening too.

   On a [strong] input the pass revisits only the pairs that touch a
   vertex whose unary cell this step changed: a pair whose two unary cells
   are unchanged met its strengthening bound before the step, and the step
   only lowered its cell. The result is the full pass's, cell for cell. *)
let close_after_add e a b c =
  let m = e.cells and n = e.n in
  if c < m.(idx a b) then begin
    let a' = bar a in
    let s = work e in
    let row_b = 0 and row_a' = n and cols = 2 * n and unary = 3 * n in
    let changed = 4 * n and before = 5 * n in
    for i = 0 to n - 1 do
      s.(before + i) <- m.(pos i (bar i))
    done;
    for j = 0 to n - 1 do
      s.(row_b + j) <- m.(idx b j);
      s.(row_a' + j) <- m.(idx a' j)
    done;
    let nc = ref 0 in
    for j = 0 to n - 1 do
      if s.(row_b + j) < inf || s.(row_a' + j) < inf then begin
        s.(cols + !nc) <- j;
        incr nc
      end
    done;
    let w_bb' = s.(row_b + bar b) and w_a'a = s.(row_a' + a) in
    for r = 0 to !nc - 1 do
      let i = bar s.(cols + r) in
      let ia = s.(row_a' + bar i) and ib' = s.(row_b + bar i) in
      (* i -> a -> b, or i -> bar b -> bar a ->* a -> b; then b -> j *)
      let via_b = imin (ia +! c) (ib' +! c +! w_a'a +! c) in
      (* i -> bar b -> bar a, or i -> a -> b ->* bar b -> bar a; then bar a -> j *)
      let via_a' = imin (ib' +! c) (ia +! c +! w_bb' +! c) in
      let base = pos i 0 and last = i lor 1 in
      let k = ref 0 in
      while !k < !nc && s.(cols + !k) <= last do
        let j = s.(cols + !k) in
        let best = imin (via_b +! s.(row_b + j)) (via_a' +! s.(row_a' + j)) in
        if best < m.(base + j) then m.(base + j) <- best;
        incr k
      done
    done;
    (* Unary cells encode 2c: floor to even, then strengthen by combining
       the two unary half-bounds. *)
    let nu = ref 0 and nch = ref 0 in
    for i = 0 to n - 1 do
      let k = pos i (bar i) in
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
      (* A pair of two changed vertices is visited from its smaller one. *)
      for x = 0 to !nch - 1 do
        let c = s.(changed + x) in
        for y = 0 to !nu - 1 do
          let o = s.(unary + y) in
          if o > c || m.(pos o (bar o)) = s.(before + o) then strengthen m c o
        done
      done
    else
      for x = 0 to !nu - 1 do
        let i = s.(unary + x) in
        for y = x + 1 to !nu - 1 do
          strengthen m i s.(unary + y)
        done
      done;
    e.strong_e <- true
  end

(* ---- queries --------------------------------------------------------- *)

(* On bottom both bounds collapse to the empty pair. *)
let no_bounds = (Some 0, Some (-1))

(* Bounds of x_v as (lo option, hi option); None = unconstrained on that
   side. *)
let var_bounds_in m v =
  let p = 2 * v and q = (2 * v) + 1 in
  let hi = m.(pos q p) and lo = m.(pos p q) in
  ( (if lo = inf then None else Some (-(floor_even lo / 2))),
    if hi = inf then None else Some (floor_even hi / 2) )

(* Bounds of x_u - x_v: (lo option, hi option). *)
let diff_bounds_in m ~u ~v =
  let ub = m.(idx (2 * v) (2 * u)) and nlb = m.(idx (2 * u) (2 * v)) in
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

  (* The stored cells that mention [v]'s vertices [p = 2v] and [q = p+1]
     are rows [p] and [q] up to column [q] (adjacent in the layout) and
     columns [p] and [q] below row [q]; the other cells of those rows and
     columns are these cells' mirrors. *)

  (* Drop every constraint mentioning [v]. On a closed matrix the result
     is closed (removing a variable cannot invalidate closure elsewhere). *)
  let forget e v =
    if not e.bot then begin
      let m = e.cells and n = e.n in
      let p = 2 * v and q = (2 * v) + 1 in
      Array.fill m (pos p 0) (2 * (q + 1)) inf;
      for i = q + 1 to n - 1 do
        m.(pos i p) <- inf;
        m.(pos i q) <- inf
      done;
      m.(pos p p) <- 0;
      m.(pos q q) <- 0
    end

  (* x_v := x_v + c: an exact shift of the two DBM vertices of [v]. The
     caller guarantees no machine wraparound. Preserves closure. *)
  let shift e v c =
    if not e.bot then begin
      let m = e.cells and n = e.n in
      let p = 2 * v and q = (2 * v) + 1 in
      (* V_p grows by c: bounds on V_p - V_i grow, on V_i - V_p shrink;
         V_q = -x_v shrinks by c. *)
      for j = 0 to p - 1 do
        m.(pos p j) <- m.(pos p j) +! -c;
        m.(pos q j) <- m.(pos q j) +! c
      done;
      for i = q + 1 to n - 1 do
        m.(pos i p) <- m.(pos i p) +! c;
        m.(pos i q) <- m.(pos i q) +! -c
      done;
      m.(pos q p) <- m.(pos q p) +! (2 * c);
      m.(pos p q) <- m.(pos p q) +! (-2 * c);
      normalize e
    end

  (* x_v := -x_v + c (used for  x := c - x ): swap the vertices, then
     shift. *)
  let negate_shift e v c =
    if not e.bot then begin
      let m = e.cells and n = e.n in
      let p = 2 * v and q = (2 * v) + 1 in
      let swap k k' =
        let tmp = m.(k) in
        m.(k) <- m.(k');
        m.(k') <- tmp
      in
      for j = 0 to p - 1 do
        swap (pos p j) (pos q j)
      done;
      for i = q + 1 to n - 1 do
        swap (pos i p) (pos i q)
      done;
      swap (pos p p) (pos q q);
      swap (pos p q) (pos q p);
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

  let var_bounds e v = if e.bot then no_bounds else var_bounds_in e.cells v
  let diff_bounds e ~u ~v = if e.bot then no_bounds else diff_bounds_in e.cells ~u ~v
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

let var_bounds t v = match t.m with Some m -> var_bounds_in m v | None -> no_bounds
let diff_bounds t ~u ~v = match t.m with Some m -> diff_bounds_in m ~u ~v | None -> no_bounds

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
          let c = m.(idx (2 * v) (2 * u)) in
          if c < inf then begin
            Format.fprintf ppf "x%d - x%d <= %d@," u v c;
            incr printed
          end
        end
      done
    done;
    if !printed = 0 then Format.fprintf ppf "top";
    Format.fprintf ppf "@]"

(* Full strong closure (Floyd-Warshall + strengthening) on the expanded
   matrix, compressed back to its stored half; exposed for the property
   tests, the incremental operations above keep matrices closed in normal
   operation. *)
let close t =
  match t.m with
  | None -> t
  | Some h ->
    let n = 2 * t.dim in
    let m = Array.init (n * n) (fun k -> h.(idx (k / n) (k mod n))) in
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
    let h = Array.make (half_size n) inf in
    for i = 0 to n - 1 do
      for j = 0 to i lor 1 do
        h.(pos i j) <- m.((i * n) + j)
      done
    done;
    { t with m = (if consistent h n then Some h else None); strong = true }
