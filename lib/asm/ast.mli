(** Structured PRED32 assembly, the interface between the MiniC code
    generator and the assembler/linker.

    Control-flow targets are symbolic labels; the assembler lays out
    functions and data, resolves labels and emits machine words. *)

type reg = Pred32_isa.Reg.t

(** One instruction-level item inside a function body. *)
type item =
  | Label of string  (** must be globally unique in the unit *)
  | Raw of Pred32_isa.Insn.t  (** already-concrete instruction *)
  | Li of reg * int  (** load 32-bit constant (1 or 2 words) *)
  | La of reg * string  (** load address of a symbol (2 words) *)
  | Bc of Pred32_isa.Insn.branch_cond * reg * reg * string  (** branch to label *)
  | J of string  (** jump to label *)
  | Call_sym of string  (** call a function by name *)
  | Comment of string  (** zero-width, for readable listings *)

(** Initializers for a data block. *)
type datum =
  | Word of int  (** one initialized 32-bit word *)
  | Zeros of int  (** [n] zero words *)
  | Addr_of of string  (** one word holding a symbol's address (e.g. a
                           function pointer table entry) *)

type placement =
  | In_ram  (** default data placement *)
  | In_scratch  (** fast scratchpad *)
  | In_rom  (** read-only data *)

type chunk =
  | Func of string * item list  (** code, placed in ROM; name is a symbol *)
  | Data of string * placement * datum list

(** A compilation unit: chunks in layout order. The entry function is chosen
    at link time. *)
type unit_ = chunk list
