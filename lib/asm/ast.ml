type reg = Pred32_isa.Reg.t

type item =
  | Label of string
  | Raw of Pred32_isa.Insn.t
  | Li of reg * int
  | La of reg * string
  | Bc of Pred32_isa.Insn.branch_cond * reg * reg * string
  | J of string
  | Call_sym of string
  | Comment of string

type datum = Word of int | Zeros of int | Addr_of of string

type placement = In_ram | In_scratch | In_rom

type chunk = Func of string * item list | Data of string * placement * datum list

type unit_ = chunk list
