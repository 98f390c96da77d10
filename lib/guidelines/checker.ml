module Tast = Minic.Tast
module Types = Minic.Types

type rule = R13_4 | R13_6 | R14_1 | R14_4 | R14_5 | R16_1 | R16_2 | R20_4 | R20_7

type violation = { rule : rule; func : string; message : string }

let all_rules = [ R13_4; R13_6; R14_1; R14_4; R14_5; R16_1; R16_2; R20_4; R20_7 ]

let rule_name = function
  | R13_4 -> "13.4"
  | R13_6 -> "13.6"
  | R14_1 -> "14.1"
  | R14_4 -> "14.4"
  | R14_5 -> "14.5"
  | R16_1 -> "16.1"
  | R16_2 -> "16.2"
  | R20_4 -> "20.4"
  | R20_7 -> "20.7"

let wcet_impact = function
  | R13_4 ->
    "float loop conditions defeat integer loop-bound analysis; conforming loops are bounded \
     automatically"
  | R13_6 ->
    "irregularly updated counters defeat the constant-step induction pattern the loop-bound \
     analysis relies on"
  | R14_1 ->
    "unreachable code inflates the over-approximated control flow and can only add spurious \
     WCET paths"
  | R14_4 ->
    "goto can build irreducible loops, for which no automatic bound exists; annotations are \
     then mandatory and virtual unrolling is lost"
  | R14_5 ->
    "continue only adds back edges to the existing loop header; it cannot create irreducible \
     flow — a pure style rule (the paper corrects Wenzel et al. here)"
  | R16_1 ->
    "variadic functions iterate over their argument list, a data-dependent loop that is hard \
     to bound automatically"
  | R16_2 ->
    "recursion needs an explicit depth annotation, like goto it can even make the call graph \
     irreducible"
  | R20_4 ->
    "heap addresses are statically unknown, so data-cache analysis degrades and unknown \
     writes destroy tracked memory"
  | R20_7 -> "setjmp/longjmp builds irreducible cross-function flow, as rule 14.4 does"

(* --- helpers over the typed AST --- *)

let expr_has_float e =
  let found = ref false in
  Tast.iter_expr
    (fun e ->
      match e.Tast.ty with
      | Types.Tfloat -> found := true
      | _ -> (
        match e.Tast.desc with
        | Tast.Tbinop ((Tast.Ofadd | Tast.Ofsub | Tast.Ofmul | Tast.Ofdiv | Tast.Oflt
                       | Tast.Ofle | Tast.Ofgt | Tast.Ofge | Tast.Ofeq | Tast.Ofne), _, _) ->
          found := true
        | _ -> ()))
    e;
  !found

(* Local slots assigned (directly or via address-taking) in an expression. *)
let assigned_slots e =
  let slots = ref [] in
  Tast.iter_expr
    (fun e ->
      match e.Tast.desc with
      | Tast.Tassign_local (slot, _) -> slots := slot :: !slots
      | _ -> ())
    e;
  !slots

let stmt_assigned_slots stmts =
  let slots = ref [] in
  List.iter
    (Tast.iter_stmt (fun e ->
         match e.Tast.desc with
         | Tast.Tassign_local (slot, _) -> slots := slot :: !slots
         | _ -> ()))
    stmts;
  !slots

let slot_address_taken stmts slot =
  let found = ref false in
  List.iter
    (Tast.iter_stmt (fun e ->
         match e.Tast.desc with
         | Tast.Tlocal_addr s when s = slot -> found := true
         | _ -> ()))
    stmts;
  !found

(* --- per-rule checks --- *)

let check_13_4 (f : Tast.tfunc) =
  let out = ref [] in
  let rec go s =
    (match s with
    | Tast.Sfor (_, Some cond, _, _) when expr_has_float cond ->
      out :=
        { rule = R13_4; func = f.Tast.name;
          message = "for-loop controlling expression involves floating point" }
        :: !out
    | _ -> ());
    match s with
    | Tast.Sif (_, a, b) ->
      List.iter go a;
      List.iter go b
    | Tast.Swhile (_, b) | Tast.Sdo_while (b, _) -> List.iter go b
    | Tast.Sfor (i, _, _, b) ->
      List.iter go i;
      List.iter go b
    | Tast.Sblock b -> List.iter go b
    | Tast.Sexpr _ | Tast.Sreturn _ | Tast.Sbreak | Tast.Scontinue | Tast.Sgoto _
    | Tast.Slabel _ ->
      ()
  in
  List.iter go f.Tast.body;
  !out

let check_13_6 (f : Tast.tfunc) =
  let out = ref [] in
  let rec go s =
    (match s with
    | Tast.Sfor (_, _, Some step, body) ->
      let counters = assigned_slots step in
      let body_assigned = stmt_assigned_slots body in
      List.iter
        (fun c ->
          if List.mem c body_assigned then
            out :=
              { rule = R13_6; func = f.Tast.name;
                message = "loop counter is modified in the loop body" }
              :: !out
          else if slot_address_taken body c then
            out :=
              { rule = R13_6; func = f.Tast.name;
                message = "loop counter may be modified through its address" }
              :: !out)
        counters
    | _ -> ());
    match s with
    | Tast.Sif (_, a, b) ->
      List.iter go a;
      List.iter go b
    | Tast.Swhile (_, b) | Tast.Sdo_while (b, _) -> List.iter go b
    | Tast.Sfor (i, _, _, b) ->
      List.iter go i;
      List.iter go b
    | Tast.Sblock b -> List.iter go b
    | Tast.Sexpr _ | Tast.Sreturn _ | Tast.Sbreak | Tast.Scontinue | Tast.Sgoto _
    | Tast.Slabel _ ->
      ()
  in
  List.iter go f.Tast.body;
  !out

(* Syntactic unreachability: statements directly following a return, break,
   continue or goto inside the same block (labels re-enable reachability). *)
let check_14_1 (f : Tast.tfunc) =
  let out = ref [] in
  let rec block stmts =
    match stmts with
    | [] -> ()
    | s :: rest ->
      (match s with
      | Tast.Sreturn _ | Tast.Sbreak | Tast.Scontinue | Tast.Sgoto _ -> (
        match rest with
        | next :: _ when not (match next with Tast.Slabel _ -> true | _ -> false) ->
          out :=
            { rule = R14_1; func = f.Tast.name; message = "statement is unreachable" } :: !out
        | _ -> ())
      | _ -> ());
      inner s;
      block rest
  and inner = function
    | Tast.Sif (_, a, b) ->
      block a;
      block b
    | Tast.Swhile (_, b) | Tast.Sdo_while (b, _) -> block b
    | Tast.Sfor (i, _, _, b) ->
      block i;
      block b
    | Tast.Sblock b -> block b
    | Tast.Sexpr _ | Tast.Sreturn _ | Tast.Sbreak | Tast.Scontinue | Tast.Sgoto _
    | Tast.Slabel _ ->
      ()
  in
  block f.Tast.body;
  !out

let check_stmt_kind rule message pred (f : Tast.tfunc) =
  let out = ref [] in
  let rec go s =
    if pred s then out := { rule; func = f.Tast.name; message } :: !out;
    match s with
    | Tast.Sif (_, a, b) ->
      List.iter go a;
      List.iter go b
    | Tast.Swhile (_, b) | Tast.Sdo_while (b, _) -> List.iter go b
    | Tast.Sfor (i, _, _, b) ->
      List.iter go i;
      List.iter go b
    | Tast.Sblock b -> List.iter go b
    | Tast.Sexpr _ | Tast.Sreturn _ | Tast.Sbreak | Tast.Scontinue | Tast.Sgoto _
    | Tast.Slabel _ ->
      ()
  in
  List.iter go f.Tast.body;
  !out

let check_14_4 = check_stmt_kind R14_4 "goto statement used" (function
  | Tast.Sgoto _ -> true
  | _ -> false)

let check_14_5 = check_stmt_kind R14_5 "continue statement used" (function
  | Tast.Scontinue -> true
  | _ -> false)

let check_16_1 (f : Tast.tfunc) =
  if f.Tast.varargs then
    [ { rule = R16_1; func = f.Tast.name; message = "function has a variable argument list" } ]
  else []

(* Direct-call graph cycles (Tarjan-free: simple DFS per function). Calls
   through pointers are reported separately as potential recursion. *)
let check_16_2 (p : Tast.tprogram) =
  let calls_of f = List.sort_uniq compare (Tast.func_calls f) in
  let table = List.map (fun f -> (f.Tast.name, calls_of f)) p.Tast.funcs in
  let callees name = Option.value ~default:[] (List.assoc_opt name table) in
  let can_reach_itself name =
    let visited = Hashtbl.create 16 in
    let rec go f =
      if not (Hashtbl.mem visited f) then begin
        Hashtbl.add visited f ();
        List.iter go (callees f)
      end
    in
    List.iter go (callees name);
    Hashtbl.mem visited name
  in
  List.filter_map
    (fun (name, _) ->
      if can_reach_itself name then
        Some
          { rule = R16_2; func = name;
            message = "function can call itself (directly or indirectly)" }
      else None)
    table

let check_expr_kind rule message pred (f : Tast.tfunc) =
  let out = ref [] in
  List.iter
    (Tast.iter_stmt (fun e -> if pred e then out := { rule; func = f.Tast.name; message } :: !out))
    f.Tast.body;
  !out

let check_20_4 = check_expr_kind R20_4 "dynamic heap allocation (malloc)" (fun e ->
  match e.Tast.desc with
  | Tast.Tmalloc _ -> true
  | _ -> false)

let check_20_7 = check_expr_kind R20_7 "setjmp/longjmp used" (fun e ->
  match e.Tast.desc with
  | Tast.Tsetjmp _ | Tast.Tlongjmp _ -> true
  | _ -> false)

let check (p : Tast.tprogram) =
  let per_func f =
    check_13_4 f @ check_13_6 f @ check_14_1 f @ check_14_4 f @ check_14_5 f @ check_16_1 f
    @ check_20_4 f @ check_20_7 f
  in
  List.concat_map per_func p.Tast.funcs @ check_16_2 p

let is_runtime_func name = String.length name >= 2 && String.sub name 0 2 = "__"
let check_user p = List.filter (fun v -> not (is_runtime_func v.func)) (check p)

let pp_violation ppf v =
  Format.fprintf ppf "rule %s in %s: %s" (rule_name v.rule) v.func v.message
