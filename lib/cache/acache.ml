module Cache_config = Pred32_hw.Cache_config
module Line_map = Map.Make (Int)

(* must: line -> maximal possible age (present in every concrete state with
   at most this age). may: line -> minimal possible age; absent lines are
   provably uncached — unless [may_universal] is set (after an unknown
   access nothing can be proven absent). *)
type t = {
  cfg : Cache_config.t;
  must : int Line_map.t;
  may : int Line_map.t;
  may_universal : bool;
}

let empty cfg = { cfg; must = Line_map.empty; may = Line_map.empty; may_universal = false }

let same_set cfg a b = Cache_config.set_of_line cfg a = Cache_config.set_of_line cfg b

let rebuild t line =
  let assoc = t.cfg.Cache_config.assoc in
  let old_must_age = match Line_map.find_opt line t.must with Some a -> a | None -> assoc in
  let must =
    Line_map.filter_map
      (fun m age ->
        if m = line then Some 0
        else if same_set t.cfg m line && age < old_must_age then
          if age + 1 >= assoc then None else Some (age + 1)
        else Some age)
      t.must
  in
  let must = Line_map.add line 0 must in
  let old_may_age = match Line_map.find_opt line t.may with Some a -> a | None -> assoc in
  let may =
    Line_map.filter_map
      (fun m age ->
        if m = line then Some 0
        else if same_set t.cfg m line && age <= old_may_age && age + 1 >= assoc then None
        else if same_set t.cfg m line && age <= old_may_age then Some (age + 1)
        else Some age)
      t.may
  in
  let may = Line_map.add line 0 may in
  { t with must; may }

(* An access to the line that is already youngest in its set changes
   nothing, and three fetches in four are such accesses. Must-age 0 says
   exactly that. Only an access to [line] gives it must-age 0, and that
   access also gives it may-age 0 and ages every other line of the set past
   may-age 0; [join] keeps must-age 0 only where both sides have it, and
   [access_unknown] ages it away. So while [line] has must-age 0 it has
   may-age 0 and no other line of its set does, and [rebuild] would return
   an equal state. *)
let access t line =
  match Line_map.find_opt line t.must with Some 0 -> t | _ -> rebuild t line

let access_unknown t =
  (* One unknown line is touched: in every set, any line may age by one;
     nothing new can be proven absent afterwards. *)
  let assoc = t.cfg.Cache_config.assoc in
  let must =
    Line_map.filter_map (fun _ age -> if age + 1 >= assoc then None else Some (age + 1)) t.must
  in
  { t with must; may_universal = true }

let must_contains t line = Line_map.mem line t.must
let may_excludes t line = (not t.may_universal) && not (Line_map.mem line t.may)

let join a b =
  let must =
    Line_map.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y -> Some (max x y)
        | Some _, None | None, Some _ | None, None -> None)
      a.must b.must
  in
  let may =
    Line_map.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y -> Some (min x y)
        | Some x, None -> Some x
        | None, Some y -> Some y
        | None, None -> None)
      a.may b.may
  in
  { cfg = a.cfg; must; may; may_universal = a.may_universal || b.may_universal }

let leq a b =
  (* a is at least as precise as b *)
  Line_map.for_all
    (fun line age ->
      match Line_map.find_opt line a.must with
      | Some a_age -> a_age <= age
      | None -> false)
    b.must
  && (b.may_universal || (not a.may_universal)
     && Line_map.for_all
          (fun line age ->
            match Line_map.find_opt line b.may with
            | Some b_age -> b_age <= age
            | None -> false)
          a.may)

let equal a b =
  Line_map.equal Int.equal a.must b.must
  && Line_map.equal Int.equal a.may b.may
  && a.may_universal = b.may_universal

let pp ppf t =
  Format.fprintf ppf "must:{";
  Line_map.iter (fun l a -> Format.fprintf ppf " %d@%d" l a) t.must;
  Format.fprintf ppf " } may:{";
  if t.may_universal then Format.fprintf ppf " *"
  else Line_map.iter (fun l a -> Format.fprintf ppf " %d@%d" l a) t.may;
  Format.fprintf ppf " }"
