exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let frontend source =
  try Typecheck.check (Parser.parse source) with
  | Lexer.Error (msg, loc) -> error "lexical error at %a: %s" Ast.pp_loc loc msg
  | Parser.Error (msg, loc) -> error "syntax error at %a: %s" Ast.pp_loc loc msg
  | Typecheck.Error (msg, loc) -> error "type error at %a: %s" Ast.pp_loc loc msg

(* Compared in place: the scan runs once per runtime name over the whole
   source, so it must not allocate per position. *)
let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec matches_at i k =
    k = nl || (haystack.[i + k] = needle.[k] && matches_at i (k + 1))
  in
  let rec go i = i + nl <= hl && (matches_at i 0 || go (i + 1)) in
  go 0

(* Decide which runtime clusters the program needs: clusters whose functions
   the source calls by name (e.g. the predictable divider baseline), plus
   clusters the generated code will call implicitly (soft-float operators,
   software division). The float cluster's divider uses the division
   operator, so software-division targets that use floats need the division
   cluster as well. *)
let with_runtime ~(options : Codegen.options) source =
  let combined ~div ~flt =
    (if div then Runtime.div_source else "")
    ^ (if flt then Runtime.float_source else "")
    ^ source
  in
  let div0 = List.exists (contains_substring source) Runtime.div_functions in
  let flt0 = List.exists (contains_substring source) Runtime.float_functions in
  let source0 = combined ~div:div0 ~flt:flt0 in
  let tast0 = frontend source0 in
  let deps = Codegen.runtime_deps ~options tast0 in
  let need name = List.mem name deps in
  let flt = flt0 || List.exists need Runtime.float_functions in
  let div = div0 || need "__udiv32" || need "__urem32" || (flt && options.Codegen.soft_div) in
  if div = div0 && flt = flt0 then (source0, tast0)
  else
    let source1 = combined ~div ~flt in
    (source1, frontend source1)

let frontend_with_runtime ?(options = Codegen.default_options) source =
  snd (with_runtime ~options source)

let compile_to_unit ?(options = Codegen.default_options) source =
  let _, tast = with_runtime ~options source in
  try Codegen.gen_program ~options tast with Codegen.Error msg -> error "codegen: %s" msg

let compile ?(options = Codegen.default_options) ?map ?(entry = "main") source =
  let unit_ = compile_to_unit ~options source in
  try Pred32_asm.Assembler.link ?map ~entry unit_ with
  | Pred32_asm.Assembler.Error msg -> error "link: %s" msg
