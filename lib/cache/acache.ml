module Cache_config = Pred32_hw.Cache_config

(* The lines of one cache set with an age each, sorted by line. *)
type lines = Nil | Cons of { line : int; age : int; rest : lines }

(* must: line -> maximal possible age (present in every concrete state with
   at most this age); at most [assoc] lines. may: line -> minimal possible
   age; absent lines are provably uncached. After joins may holds the lines
   of both sides, so it can hold more than [assoc]. *)
type set = { must : lines; may : lines }

(* One abstract set per cache set, indexed by [Cache_config.set_of_line].
   After an unknown access nothing can be proven absent: [may_universal]
   is set and every may part is kept empty, so states that [leq] orders
   both ways are also structurally equal. *)
type t = { cfg : Cache_config.t; sets : set array; may_universal : bool }

let empty_set = { must = Nil; may = Nil }
let empty cfg = { cfg; sets = Array.make cfg.Cache_config.sets empty_set; may_universal = false }

let rec find line default = function
  | Nil -> default
  | Cons c -> if c.line < line then find line default c.rest else if c.line = line then c.age else default

let mem line l = find line (-1) l >= 0

(* The lines younger than [limit] age by one and leave the set at
   [assoc]; the others keep their age. *)
let aged assoc limit line age rest =
  if age >= limit then Cons { line; age; rest }
  else if age + 1 >= assoc then rest
  else Cons { line; age = age + 1; rest }

let rec age_below assoc limit = function
  | Nil -> Nil
  | Cons c -> aged assoc limit c.line c.age (age_below assoc limit c.rest)

(* [line] at age 0 in its place, the other lines aged by [age_below]. *)
let rec touch assoc limit line = function
  | Cons c when c.line < line -> aged assoc limit c.line c.age (touch assoc limit line c.rest)
  | Cons c when c.line = line -> Cons { line; age = 0; rest = age_below assoc limit c.rest }
  | l -> Cons { line; age = 0; rest = age_below assoc limit l }

(* An access to the line that is already youngest in its set changes
   nothing, and three fetches in four are such accesses. Must-age 0 says
   exactly that. Only an access to [line] gives it must-age 0, and that
   access also gives it may-age 0 and ages every other line of the set past
   may-age 0; [join] keeps must-age 0 only where both sides have it, and
   [access_unknown] ages it away. So while [line] has must-age 0 it has
   may-age 0 and no other line of its set does, and a rewrite would return
   an equal state. Otherwise only the accessed set is rewritten: must ages
   the lines strictly younger than the line's old must-age, may the lines
   no older than its old may-age. *)
let access t line =
  let assoc = t.cfg.Cache_config.assoc in
  let i = Cache_config.set_of_line t.cfg line in
  let s = t.sets.(i) in
  let old_must_age = find line assoc s.must in
  if old_must_age = 0 then t
  else
    let must = touch assoc old_must_age line s.must in
    let may =
      if t.may_universal then Nil else touch assoc (find line assoc s.may + 1) line s.may
    in
    let sets = Array.copy t.sets in
    sets.(i) <- { must; may };
    { t with sets }

(* One unknown line is touched: in every set, any line may age by one;
   nothing new can be proven absent afterwards. *)
let access_unknown t =
  let assoc = t.cfg.Cache_config.assoc in
  let age_set = function
    | { must = Nil; may = Nil } as s -> s
    | s -> { must = age_below assoc assoc s.must; may = Nil }
  in
  { t with sets = Array.map age_set t.sets; may_universal = true }

let must_contains t line = mem line t.sets.(Cache_config.set_of_line t.cfg line).must

let may_excludes t line =
  (not t.may_universal) && not (mem line t.sets.(Cache_config.set_of_line t.cfg line).may)

(* The lines of both, each at the older of its two ages. *)
let rec meet_must a b =
  match (a, b) with
  | Nil, _ | _, Nil -> Nil
  | Cons x, Cons y ->
    if x.line < y.line then meet_must x.rest b
    else if x.line > y.line then meet_must a y.rest
    else Cons { line = x.line; age = max x.age y.age; rest = meet_must x.rest y.rest }

(* The lines of either, each at the younger of its ages. *)
let rec union_may a b =
  match (a, b) with
  | Nil, l | l, Nil -> l
  | Cons x, Cons y ->
    if x.line < y.line then Cons { x with rest = union_may x.rest b }
    else if x.line > y.line then Cons { y with rest = union_may a y.rest }
    else Cons { line = x.line; age = min x.age y.age; rest = union_may x.rest y.rest }

let join a b =
  if a == b then a
  else
    let may_universal = a.may_universal || b.may_universal in
    let join_set sa sb =
      if sa == sb then sa
      else
        {
          must = meet_must sa.must sb.must;
          may = (if may_universal then Nil else union_may sa.may sb.may);
        }
    in
    { cfg = a.cfg; sets = Array.map2 join_set a.sets b.sets; may_universal }

(* Every line of [b] is in [a], at most as old. *)
let rec covers a b =
  match (a, b) with
  | _, Nil -> true
  | Nil, Cons _ -> false
  | Cons x, Cons y ->
    if x.line < y.line then covers x.rest b
    else x.line = y.line && x.age <= y.age && covers x.rest y.rest

(* a is at least as precise as b: a's must covers b's, and b's may covers
   a's unless b is may-universal. *)
let leq a b =
  (b.may_universal || not a.may_universal)
  && Array.for_all2
       (fun sa sb ->
         sa == sb || (covers sa.must sb.must && (b.may_universal || covers sb.may sa.may)))
       a.sets b.sets

let set t i = t.sets.(i)
let may_universal t = t.may_universal

let bindings part t =
  let rec to_list acc = function
    | Nil -> acc
    | Cons c -> to_list ((c.line, c.age) :: acc) c.rest
  in
  List.sort compare (Array.fold_left (fun acc s -> to_list acc (part s)) [] t.sets)

let must_bindings t = bindings (fun s -> s.must) t
let may_bindings t = bindings (fun s -> s.may) t

let pp ppf t =
  let pp_lines = List.iter (fun (l, a) -> Format.fprintf ppf " %d@%d" l a) in
  Format.fprintf ppf "must:{";
  pp_lines (must_bindings t);
  Format.fprintf ppf " } may:{";
  if t.may_universal then Format.fprintf ppf " *" else pp_lines (may_bindings t);
  Format.fprintf ppf " }"
