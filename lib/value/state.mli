(** Abstract machine state of the loop/value analysis: one interval per
    register plus a map of tracked memory words.

    Memory addresses absent from the tracked map read as the ROM image
    constant when they fall in ROM, and as [Top] otherwise (RAM contents are
    unknown at program start — inputs are poked there). A write through an
    unresolvable pointer discards all tracked RAM knowledge, reproducing the
    paper's "any write access to an unknown memory location destroys all
    known information" (Section 4.3); frame-linkage words (saved fp/lr) are
    exempt under the standard stack-discipline assumption. *)

module Addr_map : Map.S with type key = int

type t = {
  regs : Aval.t array;  (** 16 entries; index [Reg.to_int] *)
  mem : Aval.t Addr_map.t;  (** tracked (written) memory words *)
  origins : int option array;  (** register came from this memory word *)
}

val entry_state : assumes:(int * Aval.t) list -> t

val get_reg : t -> Pred32_isa.Reg.t -> Aval.t
val set_reg : t -> Pred32_isa.Reg.t -> Aval.t -> t

val load : program:Pred32_asm.Program.t -> t -> int -> Aval.t

(** [store ~linkage t addr v] strong update at a concrete address. *)
val store : linkage:(int -> bool) -> t -> int -> Aval.t -> t

(** [store_weak ~linkage t addrs v] weak update over candidate addresses. *)
val store_weak : linkage:(int -> bool) -> t -> int list -> Aval.t -> t

(** [havoc ~linkage t] forgets all tracked memory except linkage words. *)
val havoc : linkage:(int -> bool) -> t -> t

(** {2 In-place editing}

    A block transfer writes many registers. [edit t] takes private copies
    of [t]'s register file and origins (memory is a persistent map, shared
    until written), the {!Edit} operations update them in place with
    exactly the semantics of the pure operations above (which are each one
    [edit], one {!Edit} operation and one {!freeze}), and [freeze] hands
    them over as the result. [t] itself is never written. An edit must not
    be used after it is frozen. *)

type edit

val edit : t -> edit
val freeze : edit -> t

module Edit : sig
  val get_reg : edit -> Pred32_isa.Reg.t -> Aval.t
  val set_reg : edit -> Pred32_isa.Reg.t -> Aval.t -> unit

  (** [set_reg_origin e r v ~origin] also records the memory word [v] was
      loaded from. *)
  val set_reg_origin : edit -> Pred32_isa.Reg.t -> Aval.t -> origin:int -> unit

  val load : program:Pred32_asm.Program.t -> edit -> int -> Aval.t
  val store : linkage:(int -> bool) -> edit -> int -> Aval.t -> unit
  val store_weak : linkage:(int -> bool) -> edit -> int list -> Aval.t -> unit
  val havoc : linkage:(int -> bool) -> edit -> unit

  (** [blit_regs e dst] copies the register file, indexed by
      [Reg.to_int], into [dst] (16 entries). *)
  val blit_regs : edit -> Aval.t array -> unit
end

val leq : t -> t -> bool
val join : t -> t -> t
val widen : t -> t -> t

(** Greatest lower bound (used by the octagon escalation to fold relational
    refinements back under the interval result). *)
val meet : t -> t -> t
val pp : Format.formatter -> t -> unit
