(** One-call MiniC compilation driver: parse, typecheck, pull in the needed
    runtime clusters, generate code and link. *)

exception Error of string

(** [compile ?options ?map ?entry source] produces a linked program whose
    startup stub calls [entry] (default ["main"]). Raises [Error] with a
    located message on any front-end, code-generation or link failure. *)
val compile :
  ?options:Codegen.options ->
  ?map:Pred32_memory.Memory_map.t ->
  ?entry:string ->
  string ->
  Pred32_asm.Program.t

(** [compile_to_unit ?options source] stops after code generation (used by
    tests that inspect the assembly). *)
val compile_to_unit : ?options:Codegen.options -> string -> Pred32_asm.Ast.unit_

(** [contains_substring haystack needle]: [needle] occurs in [haystack]
    (the empty needle occurs everywhere). The runtime-cluster scan matches
    the source text with it, so a comment naming a runtime routine pulls
    its cluster in too. *)
val contains_substring : string -> string -> bool

(** [frontend source] parses and typechecks without generating code. *)
val frontend : string -> Tast.tprogram

(** [frontend_with_runtime ?options source] like {!frontend} but with the
    runtime clusters the program needs included (so sources calling runtime
    routines by name typecheck). *)
val frontend_with_runtime : ?options:Codegen.options -> string -> Tast.tprogram
