type t =
  | Tint
  | Tunsigned
  | Tfloat
  | Tvoid
  | Tptr of t
  | Tarray of t * int
  | Tfun of signature

and signature = { params : t list; varargs : bool; ret : t }

let rec size_words = function
  | Tint | Tunsigned | Tfloat | Tptr _ -> 1
  | Tarray (elt, n) -> n * size_words elt
  | Tvoid -> invalid_arg "Types.size_words: void"
  | Tfun _ -> invalid_arg "Types.size_words: function"

let decay = function
  | Tarray (elt, _) -> Tptr elt
  | (Tint | Tunsigned | Tfloat | Tvoid | Tptr _ | Tfun _) as ty -> ty

let is_arith = function
  | Tint | Tunsigned | Tfloat -> true
  | Tvoid | Tptr _ | Tarray _ | Tfun _ -> false

let rec equal a b =
  match (a, b) with
  | Tint, Tint | Tunsigned, Tunsigned | Tfloat, Tfloat | Tvoid, Tvoid -> true
  | Tptr a, Tptr b -> equal a b
  | Tarray (a, n), Tarray (b, m) -> n = m && equal a b
  | Tfun a, Tfun b ->
    a.varargs = b.varargs && equal a.ret b.ret
    && List.length a.params = List.length b.params
    && List.for_all2 equal a.params b.params
  | (Tint | Tunsigned | Tfloat | Tvoid | Tptr _ | Tarray _ | Tfun _), _ -> false

let rec pp ppf = function
  | Tint -> Format.pp_print_string ppf "int"
  | Tunsigned -> Format.pp_print_string ppf "unsigned"
  | Tfloat -> Format.pp_print_string ppf "float"
  | Tvoid -> Format.pp_print_string ppf "void"
  | Tptr t -> Format.fprintf ppf "%a*" pp t
  | Tarray (t, n) -> Format.fprintf ppf "%a[%d]" pp t n
  | Tfun { params; varargs; ret } ->
    Format.fprintf ppf "%a(*)(%a%s)" pp ret
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
      params
      (if varargs then ", ..." else "")
