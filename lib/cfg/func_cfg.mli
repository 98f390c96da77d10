(** Intraprocedural control-flow reconstruction: decode one function's code
    range into basic blocks (the first half of the paper's "decoding phase",
    Figure 1). *)

exception Decode_error of string

type terminator =
  | Term_fall of int  (** falls through to the given address *)
  | Term_branch of {
      cond : Pred32_isa.Insn.branch_cond;
      rs1 : Pred32_isa.Reg.t;
      rs2 : Pred32_isa.Reg.t;
      taken : int;
      fall : int;
    }
  | Term_jump of int
  | Term_call of { target : int; return_to : int }
  | Term_call_indirect of { reg : Pred32_isa.Reg.t; site : int; return_to : int }
  | Term_return  (** [jr lr] *)
  | Term_jump_indirect of { reg : Pred32_isa.Reg.t; site : int }
  | Term_halt

type block = {
  entry : int;  (** address of the first instruction *)
  insns : (int * Pred32_isa.Insn.t) array;  (** includes the terminator *)
  term : terminator;
}

(** [build ?extra_leaders program func] decodes and partitions a function.
    [extra_leaders] adds block boundaries at the given addresses (targets of
    indirect jumps supplied by annotations, e.g. setjmp continuations).
    Raises [Decode_error] on an illegal instruction, a branch leaving the
    function, or a [Jump_reg] through a register other than [lr] with no way
    to split (those are legal, they terminate a block; the error cases are
    undecodable words). *)
val build :
  ?extra_leaders:int list -> Pred32_asm.Program.t -> Pred32_asm.Program.func_info -> block list

val pp_block : Format.formatter -> block -> unit
