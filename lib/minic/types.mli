(** MiniC types.

    Every scalar value is one 32-bit word: [int] (signed), [unsigned],
    [float] (IEEE binary32 stored in a word, computed by software routines),
    and pointers. Arrays live in memory and decay to pointers; function
    types only occur behind pointers or as declarations. *)

type t =
  | Tint
  | Tunsigned
  | Tfloat
  | Tvoid
  | Tptr of t
  | Tarray of t * int
  | Tfun of signature

and signature = { params : t list; varargs : bool; ret : t }

(** [size_words ty] is the in-memory size; scalars are 1. Raises
    [Invalid_argument] on [Tvoid] and [Tfun]. *)
val size_words : t -> int

(** [decay ty] converts arrays to pointers (function arguments, expression
    contexts). *)
val decay : t -> t

val is_arith : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
