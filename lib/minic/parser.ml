exception Error of string * Ast.loc

type state = { tokens : (Lexer.token * Ast.loc) array; mutable index : int }

let peek st = fst st.tokens.(st.index)
let peek2 st = if st.index + 1 < Array.length st.tokens then fst st.tokens.(st.index + 1) else Lexer.EOF
let loc st = snd st.tokens.(st.index)
let advance st = if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let error st msg = raise (Error (msg, loc st))

let expect st tok =
  if peek st = tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_name tok)
         (Lexer.token_name (peek st)))

let expect_ident st =
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    name
  | t -> error st (Printf.sprintf "expected identifier but found %s" (Lexer.token_name t))

let is_type_start = function
  | Lexer.KW_INT | Lexer.KW_UNSIGNED | Lexer.KW_FLOAT | Lexer.KW_VOID -> true
  | _ -> false

(* type := base '*'* *)
let parse_type st =
  let base =
    match peek st with
    | Lexer.KW_INT -> Types.Tint
    | Lexer.KW_UNSIGNED -> Types.Tunsigned
    | Lexer.KW_FLOAT -> Types.Tfloat
    | Lexer.KW_VOID -> Types.Tvoid
    | t -> error st (Printf.sprintf "expected type but found %s" (Lexer.token_name t))
  in
  advance st;
  let ty = ref base in
  while peek st = Lexer.STAR do
    advance st;
    ty := Types.Tptr !ty
  done;
  !ty

(* A declarator after a base type: either a plain identifier (possibly an
   array), or the function-pointer form [( * name )(params)]. Returns the
   final type and the declared name. *)
let rec parse_declarator st base =
  match peek st with
  | Lexer.LPAREN ->
    (* function pointer: ( * name ) ( params ) *)
    advance st;
    expect st Lexer.STAR;
    let name = expect_ident st in
    expect st Lexer.RPAREN;
    expect st Lexer.LPAREN;
    let params, varargs = parse_param_types st in
    expect st Lexer.RPAREN;
    (Types.Tptr (Types.Tfun { Types.params; varargs; ret = base }), name)
  | Lexer.IDENT _ ->
    let name = expect_ident st in
    if peek st = Lexer.LBRACKET then begin
      advance st;
      let n =
        match peek st with
        | Lexer.INT n ->
          advance st;
          n
        | t -> error st (Printf.sprintf "expected array size but found %s" (Lexer.token_name t))
      in
      expect st Lexer.RBRACKET;
      (Types.Tarray (base, n), name)
    end
    else (base, name)
  | t -> error st (Printf.sprintf "expected declarator but found %s" (Lexer.token_name t))

(* Parameter type list for function-pointer types: types only, names
   optional and ignored. *)
and parse_param_types st =
  if peek st = Lexer.RPAREN then ([], false)
  else if peek st = Lexer.KW_VOID && peek2 st = Lexer.RPAREN then begin
    advance st;
    ([], false)
  end
  else
    let rec go acc =
      if peek st = Lexer.ELLIPSIS then begin
        advance st;
        (List.rev acc, true)
      end
      else
        let ty = parse_type st in
        let ty =
          match peek st with
          | Lexer.IDENT _ ->
            let t, _ = parse_declarator st ty in
            t
          | Lexer.LPAREN ->
            let t, _ = parse_declarator st ty in
            t
          | _ -> ty
        in
        if peek st = Lexer.COMMA then begin
          advance st;
          go (Types.decay ty :: acc)
        end
        else (List.rev (Types.decay ty :: acc), false)
    in
    go []

let mk loc desc = { Ast.desc; loc }

let rec parse_expression st = parse_assignment st

(* Compound assignment desugars to [lhs = lhs op rhs]; the left-hand side
   is duplicated, which is fine for the simple lvalues MiniC has (the
   address computation has no side effects). *)
and parse_assignment st =
  let l = loc st in
  let lhs = parse_conditional st in
  let compound op =
    advance st;
    let rhs = parse_assignment st in
    mk l (Ast.Assign (lhs, mk l (Ast.Binop (op, lhs, rhs))))
  in
  match peek st with
  | Lexer.ASSIGN ->
    advance st;
    let rhs = parse_assignment st in
    mk l (Ast.Assign (lhs, rhs))
  | Lexer.PLUSEQ -> compound Ast.Add
  | Lexer.MINUSEQ -> compound Ast.Sub
  | Lexer.STAREQ -> compound Ast.Mul
  | Lexer.SLASHEQ -> compound Ast.Div
  | Lexer.PERCENTEQ -> compound Ast.Mod
  | Lexer.AMPEQ -> compound Ast.Band
  | Lexer.PIPEEQ -> compound Ast.Bor
  | Lexer.CARETEQ -> compound Ast.Bxor
  | Lexer.SHLEQ -> compound Ast.Shl
  | Lexer.SHREQ -> compound Ast.Shr
  | _ -> lhs

and parse_conditional st =
  let l = loc st in
  let cond = parse_logical_or st in
  if peek st = Lexer.QUESTION then begin
    advance st;
    let then_ = parse_expression st in
    expect st Lexer.COLON;
    let else_ = parse_conditional st in
    mk l (Ast.Ternary (cond, then_, else_))
  end
  else cond

and binop_level ops next st =
  let l = loc st in
  let lhs = ref (next st) in
  let rec go () =
    match List.assoc_opt (peek st) ops with
    | Some op ->
      advance st;
      let rhs = next st in
      lhs := mk l (Ast.Binop (op, !lhs, rhs));
      go ()
    | None -> ()
  in
  go ();
  !lhs

and parse_logical_or st = binop_level [ (Lexer.PIPEPIPE, Ast.Lor) ] parse_logical_and st
and parse_logical_and st = binop_level [ (Lexer.AMPAMP, Ast.Land) ] parse_bit_or st
and parse_bit_or st = binop_level [ (Lexer.PIPE, Ast.Bor) ] parse_bit_xor st
and parse_bit_xor st = binop_level [ (Lexer.CARET, Ast.Bxor) ] parse_bit_and st
and parse_bit_and st = binop_level [ (Lexer.AMP, Ast.Band) ] parse_equality st

and parse_equality st =
  binop_level [ (Lexer.EQEQ, Ast.Eq); (Lexer.NE, Ast.Ne) ] parse_relational st

and parse_relational st =
  binop_level
    [ (Lexer.LT, Ast.Lt); (Lexer.LE, Ast.Le); (Lexer.GT, Ast.Gt); (Lexer.GE, Ast.Ge) ]
    parse_shift st

and parse_shift st = binop_level [ (Lexer.SHL, Ast.Shl); (Lexer.SHR, Ast.Shr) ] parse_additive st

and parse_additive st =
  binop_level [ (Lexer.PLUS, Ast.Add); (Lexer.MINUS, Ast.Sub) ] parse_multiplicative st

and parse_multiplicative st =
  binop_level
    [ (Lexer.STAR, Ast.Mul); (Lexer.SLASH, Ast.Div); (Lexer.PERCENT, Ast.Mod) ]
    parse_unary st

and incr_assign l e op =
  (* ++/-- desugar to [e = e op 1]; both forms evaluate to the updated
     value (i.e. postfix behaves like prefix — MiniC dialect). *)
  { Ast.desc = Ast.Assign (e, { Ast.desc = Ast.Binop (op, e, { Ast.desc = Ast.Int_lit 1; loc = l }); loc = l }); loc = l }

and parse_unary st =
  let l = loc st in
  match peek st with
  | Lexer.PLUSPLUS ->
    advance st;
    incr_assign l (parse_unary st) Ast.Add
  | Lexer.MINUSMINUS ->
    advance st;
    incr_assign l (parse_unary st) Ast.Sub
  | Lexer.MINUS ->
    advance st;
    mk l (Ast.Unop (Ast.Neg, parse_unary st))
  | Lexer.BANG ->
    advance st;
    mk l (Ast.Unop (Ast.Lnot, parse_unary st))
  | Lexer.TILDE ->
    advance st;
    mk l (Ast.Unop (Ast.Bnot, parse_unary st))
  | Lexer.STAR ->
    advance st;
    mk l (Ast.Deref (parse_unary st))
  | Lexer.AMP ->
    advance st;
    mk l (Ast.Addr_of (parse_unary st))
  | Lexer.LPAREN when is_type_start (peek2 st) ->
    advance st;
    let ty = parse_type st in
    expect st Lexer.RPAREN;
    mk l (Ast.Cast (ty, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st =
  let l = loc st in
  let e = ref (parse_primary st) in
  let rec go () =
    match peek st with
    | Lexer.LPAREN ->
      advance st;
      let args = parse_args st in
      expect st Lexer.RPAREN;
      e := mk l (Ast.Call (!e, args));
      go ()
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expression st in
      expect st Lexer.RBRACKET;
      e := mk l (Ast.Index (!e, idx));
      go ()
    | Lexer.PLUSPLUS ->
      advance st;
      e := incr_assign l !e Ast.Add;
      go ()
    | Lexer.MINUSMINUS ->
      advance st;
      e := incr_assign l !e Ast.Sub;
      go ()
    | _ -> ()
  in
  go ();
  !e

and parse_args st =
  if peek st = Lexer.RPAREN then []
  else
    let rec go acc =
      let e = parse_expression st in
      if peek st = Lexer.COMMA then begin
        advance st;
        go (e :: acc)
      end
      else List.rev (e :: acc)
    in
    go []

and parse_primary st =
  let l = loc st in
  match peek st with
  | Lexer.INT n ->
    advance st;
    mk l (Ast.Int_lit n)
  | Lexer.FLOATLIT f ->
    advance st;
    mk l (Ast.Float_lit f)
  | Lexer.IDENT name ->
    advance st;
    mk l (Ast.Var name)
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expression st in
    expect st Lexer.RPAREN;
    e
  | t -> error st (Printf.sprintf "expected expression but found %s" (Lexer.token_name t))

let rec parse_stmt st =
  match peek st with
  | Lexer.SEMI ->
    advance st;
    Ast.Sblock []
  | Lexer.LBRACE ->
    advance st;
    let body = parse_stmts_until st Lexer.RBRACE in
    expect st Lexer.RBRACE;
    Ast.Sblock body
  | t when is_type_start t ->
    let base = parse_type st in
    let ty, name = parse_declarator st base in
    let init =
      if peek st = Lexer.ASSIGN then begin
        advance st;
        Some (parse_expression st)
      end
      else None
    in
    expect st Lexer.SEMI;
    Ast.Sdecl (ty, name, init)
  | Lexer.KW_IF ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expression st in
    expect st Lexer.RPAREN;
    let then_ = parse_block_or_stmt st in
    let else_ =
      if peek st = Lexer.KW_ELSE then begin
        advance st;
        parse_block_or_stmt st
      end
      else []
    in
    Ast.Sif (cond, then_, else_)
  | Lexer.KW_WHILE ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expression st in
    expect st Lexer.RPAREN;
    Ast.Swhile (cond, parse_block_or_stmt st)
  | Lexer.KW_DO ->
    advance st;
    let body = parse_block_or_stmt st in
    expect st Lexer.KW_WHILE;
    expect st Lexer.LPAREN;
    let cond = parse_expression st in
    expect st Lexer.RPAREN;
    expect st Lexer.SEMI;
    Ast.Sdo_while (body, cond)
  | Lexer.KW_FOR ->
    advance st;
    expect st Lexer.LPAREN;
    let init =
      if peek st = Lexer.SEMI then begin
        advance st;
        None
      end
      else if is_type_start (peek st) then Some (parse_stmt st)
        (* parse_stmt consumes the semicolon of a declaration *)
      else begin
        let e = parse_expression st in
        expect st Lexer.SEMI;
        Some (Ast.Sexpr e)
      end
    in
    let cond =
      if peek st = Lexer.SEMI then None
      else Some (parse_expression st)
    in
    expect st Lexer.SEMI;
    let step = if peek st = Lexer.RPAREN then None else Some (parse_expression st) in
    expect st Lexer.RPAREN;
    Ast.Sfor (init, cond, step, parse_block_or_stmt st)
  | Lexer.KW_RETURN ->
    advance st;
    if peek st = Lexer.SEMI then begin
      advance st;
      Ast.Sreturn None
    end
    else begin
      let e = parse_expression st in
      expect st Lexer.SEMI;
      Ast.Sreturn (Some e)
    end
  | Lexer.KW_BREAK ->
    advance st;
    expect st Lexer.SEMI;
    Ast.Sbreak
  | Lexer.KW_CONTINUE ->
    advance st;
    expect st Lexer.SEMI;
    Ast.Scontinue
  | Lexer.KW_GOTO ->
    advance st;
    let label = expect_ident st in
    expect st Lexer.SEMI;
    Ast.Sgoto label
  | Lexer.IDENT name when peek2 st = Lexer.COLON ->
    advance st;
    advance st;
    Ast.Slabel name
  | _ ->
    let e = parse_expression st in
    expect st Lexer.SEMI;
    Ast.Sexpr e

and parse_block_or_stmt st =
  match parse_stmt st with
  | Ast.Sblock body -> body
  | s -> [ s ]

and parse_stmts_until st stop =
  let rec go acc = if peek st = stop then List.rev acc else go (parse_stmt st :: acc) in
  go []

(* Named parameter list of a function definition. *)
let parse_params st =
  if peek st = Lexer.RPAREN then ([], false)
  else if peek st = Lexer.KW_VOID && peek2 st = Lexer.RPAREN then begin
    advance st;
    ([], false)
  end
  else
    let rec go acc =
      if peek st = Lexer.ELLIPSIS then begin
        advance st;
        (List.rev acc, true)
      end
      else begin
        let base = parse_type st in
        let ty, name = parse_declarator st base in
        let acc = (Types.decay ty, name) :: acc in
        if peek st = Lexer.COMMA then begin
          advance st;
          go acc
        end
        else (List.rev acc, false)
      end
    in
    go []

let parse_global_init st =
  if peek st <> Lexer.ASSIGN then None
  else begin
    advance st;
    let parse_int () =
      match peek st with
      | Lexer.INT n ->
        advance st;
        n
      | Lexer.MINUS ->
        advance st;
        (match peek st with
        | Lexer.INT n ->
          advance st;
          -n
        | t -> error st (Printf.sprintf "expected integer but found %s" (Lexer.token_name t)))
      | t -> error st (Printf.sprintf "expected integer but found %s" (Lexer.token_name t))
    in
    if peek st = Lexer.LBRACE then begin
      advance st;
      let rec go acc =
        let v = parse_int () in
        if peek st = Lexer.COMMA then begin
          advance st;
          go (v :: acc)
        end
        else List.rev (v :: acc)
      in
      let values = go [] in
      expect st Lexer.RBRACE;
      Some values
    end
    else Some [ parse_int () ]
  end

let parse_global st =
  let placement =
    match peek st with
    | Lexer.KW_SCRATCH ->
      advance st;
      Ast.Pscratch
    | Lexer.KW_ROM ->
      advance st;
      Ast.Prom
    | _ -> Ast.Pram
  in
  let floc = loc st in
  let base = parse_type st in
  let ty, name = parse_declarator st base in
  match peek st with
  | Lexer.LPAREN when not (match ty with Types.Tptr (Types.Tfun _) -> true | _ -> false) ->
    (* function definition *)
    advance st;
    let params, varargs = parse_params st in
    expect st Lexer.RPAREN;
    expect st Lexer.LBRACE;
    let body = parse_stmts_until st Lexer.RBRACE in
    expect st Lexer.RBRACE;
    Ast.Gfunc { Ast.fname = name; params; varargs; ret = ty; body; floc }
  | _ ->
    let init = parse_global_init st in
    expect st Lexer.SEMI;
    Ast.Gvar { placement; ty; name; init }

let parse source =
  let st = { tokens = Array.of_list (Lexer.tokenize source); index = 0 } in
  let rec go acc = if peek st = Lexer.EOF then List.rev acc else go (parse_global st :: acc) in
  go []
