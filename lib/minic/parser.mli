(** Recursive-descent MiniC parser. *)

exception Error of string * Ast.loc

(** [parse source] parses a full translation unit. *)
val parse : string -> Ast.program
