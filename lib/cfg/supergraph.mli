(** The interprocedural, context-expanded control-flow graph the analyses
    run on.

    Every call site creates a fresh analysis context for its callee (virtual
    inlining), so value and cache analyses are fully context-sensitive —
    the precision technique the paper's references (VIVU) describe. Physical
    code is not duplicated: several nodes may share the same block
    addresses but carry distinct analysis states.

    Recursive calls need an annotated maximum depth (the paper's point that
    recursion bounds are knowledge the analysis must be given); a call that
    would exceed the annotated depth is linked straight to its return site,
    trusting the annotation that it cannot happen. *)

type edge_kind =
  | Efall  (** fallthrough or unconditional jump *)
  | Etaken  (** taken side of a conditional branch *)
  | Enottaken
  | Ecall
  | Ereturn
  | Eindirect  (** resolved indirect jump (e.g. longjmp) *)

type node = {
  id : int;
  ctx : int;
  func : string;
  block : Func_cfg.block;
  mutable succs : (edge_kind * int) list;
  mutable preds : (edge_kind * int) list;
}

type context = {
  cid : int;
  cfunc : string;
  parent : (int * int) option;  (** (parent context, call-site node id) *)
}

type t = {
  nodes : node array;
  contexts : context array;
  entry : int;  (** node id *)
  program : Pred32_asm.Program.t;
  unresolved_calls : (int * int) list;
      (** (node id, site) of indirect calls left unresolved; only non-empty
          when built with [allow_unresolved] or [degrade] *)
  unresolved_jumps : int list;
      (** sites of indirect jumps left as dead ends; only non-empty when
          built with [degrade] *)
}

exception Build_error of string

(** [build ?allow_unresolved ?degrade ?resolver program] expands from the
    startup stub. Raises [Build_error] on unresolved indirect control flow
    (unless [allow_unresolved], which records such calls in
    [unresolved_calls] and leaves them without successors for a later
    value-analysis-driven resolution round), unannotated recursion, or
    decode failures (wrapping {!Func_cfg.Decode_error}).

    [degrade] is the graceful-degradation mode: unresolved or empty-target
    indirect calls are recorded in [unresolved_calls] {e and} linked
    straight to their return site (an analysis hole — the caller's
    remainder stays analyzable while the callee's cost is excluded), and
    unresolved indirect jumps become successor-less dead ends recorded in
    [unresolved_jumps] instead of build errors. *)
val build :
  ?allow_unresolved:bool -> ?degrade:bool -> ?resolver:Resolver.t -> Pred32_asm.Program.t -> t

(** Halting nodes (no successors). *)
val exits : t -> int list

(** [call_string g node] is the chain of function names from the entry
    context to the node's context, for reporting. *)
val call_string : t -> node -> string list
