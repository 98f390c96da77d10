(** PRED32 instruction set.

    A 32-bit load/store RISC designed so that every coding pattern studied in
    the paper has a direct binary representation: compare-and-branch
    conditionals, absolute and register-indirect jumps and calls (function
    pointers), and a conditional move [Cmovnz] enabling single-path code
    generation (the Puschner/Kirner transformation discussed in the paper's
    related work).

    All instructions are one word (4 bytes). Branch displacements are in
    words, relative to the *next* instruction. Jump/call targets are absolute
    word indices (byte address / 4). *)

type alu_op =
  | Add
  | Sub
  | Mul
  | Divu  (** unsigned division; hardware-assisted, fixed worst-case latency *)
  | Remu
  | And
  | Or
  | Xor
  | Shl
  | Shr  (** logical right shift *)
  | Sra  (** arithmetic right shift *)
  | Slt  (** signed set-less-than *)
  | Sltu  (** unsigned set-less-than *)

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t  (** [Alu (op, rd, rs1, rs2)] *)
  | Alui of alu_op * Reg.t * Reg.t * int
      (** [rd := rs1 op imm]. The immediate is a sign-extended 16-bit value
          for arithmetic/compare/shift ops and a zero-extended one for
          [And]/[Or]/[Xor] (so [Lui] + [Or]-immediate builds any constant);
          the AST stores the already-extended value. *)
  | Lui of Reg.t * int  (** [rd := imm16 << 16] *)
  | Load of Reg.t * Reg.t * int  (** [rd := mem32\[rs1 + sext(imm16)\]] *)
  | Store of Reg.t * Reg.t * int  (** [mem32\[rs1 + sext(imm16)\] := rs2]; [Store (rs2, rs1, imm)] *)
  | Branch of branch_cond * Reg.t * Reg.t * int  (** pc-relative word offset *)
  | Jump of int  (** absolute word index *)
  | Call of int  (** absolute word index, links pc+4 into [lr] *)
  | Jump_reg of Reg.t  (** indirect jump (computed goto, [ret] is [Jump_reg lr]) *)
  | Call_reg of Reg.t  (** indirect call through a function pointer *)
  | Cmovnz of Reg.t * Reg.t * Reg.t  (** [if rs1 <> 0 then rd := rs2] (predicated) *)
  | Halt
  | Nop
  | Illegal of int32  (** any word that decodes to nothing above *)

val equal : t -> t -> bool

(** {2 Static classification, used by CFG reconstruction and timing} *)

type control_flow =
  | Fallthrough
  | Branch_to of int  (** conditional: falls through or jumps to word offset *)
  | Jump_to of int  (** absolute word index *)
  | Call_to of int
  | Indirect_jump
  | Indirect_call
  | Stop  (** halt *)

val control_flow : t -> control_flow

(** [is_block_terminator i] is true when [i] ends a basic block. Calls do not
    terminate blocks from the CFG's point of view (they return), but the CFG
    builder still splits there to attach callee timing. *)
val is_block_terminator : t -> bool

val writes_memory : t -> bool

(** Registers read / written (architectural; [Reg.zero] writes excluded). *)
val uses : t -> Reg.t list

val defs : t -> Reg.t list

val pp_cond : Format.formatter -> branch_cond -> unit
val pp : Format.formatter -> t -> unit
