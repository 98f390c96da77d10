(** A linked PRED32 program: the loaded memory image plus the symbol and
    function tables the decoder, analyses and test harnesses navigate by. *)

type func_info = {
  name : string;
  entry : int;  (** byte address of the first instruction *)
  limit : int;  (** first byte address past the function's code *)
}

type t = {
  image : Pred32_memory.Image.t;  (** pristine image; simulator runs on copies *)
  map : Pred32_memory.Memory_map.t;
  entry : int;  (** address of the startup stub *)
  text_base : int;
  text_limit : int;
  functions : func_info list;
  symbols : (string * int) list;  (** every label and data symbol *)
}

(** [symbol t name] raises [Not_found] if undefined. *)
val symbol : t -> string -> int

val symbol_opt : t -> string -> int option

(** [function_at t addr] is the function whose code range contains [addr]. *)
val function_at : t -> int -> func_info option

val find_function : t -> string -> func_info option

(** [decode_at t addr] decodes the instruction word at [addr]. *)
val decode_at : t -> int -> Pred32_isa.Insn.t

(** [code_digest t f] is the hex digest of [f]'s code words: it changes
    exactly when the function's own code does. *)
val code_digest : t -> func_info -> string

(** [disassemble t f] lists [(address, instruction)] for a function. *)
val disassemble : t -> func_info -> (int * Pred32_isa.Insn.t) list

val pp_disassembly : t -> Format.formatter -> func_info -> unit
