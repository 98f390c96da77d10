(** General-purpose registers of the PRED32 target.

    Sixteen registers [r0]..[r15]. [r0] is hardwired to zero (writes are
    discarded), as on classic RISC targets; the ABI reserves [r12] as frame
    pointer, [r13] as stack pointer and [r14] as link register. *)

type t

val of_int : int -> t

(** [to_int r] is the register index in [0, 15]. *)
val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val zero : t  (** [r0], hardwired zero *)

val fp : t  (** [r12], frame pointer *)

val sp : t  (** [r13], stack pointer *)

val lr : t  (** [r14], link register *)

val rv : t  (** [r1], return value / first scratch *)

(** All sixteen registers in index order. *)
val all : t list

val pp : Format.formatter -> t -> unit
val name : t -> string
