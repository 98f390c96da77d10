type alu_op = Add | Sub | Mul | Divu | Remu | And | Or | Xor | Shl | Shr | Sra | Slt | Sltu

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_op * Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Load of Reg.t * Reg.t * int
  | Store of Reg.t * Reg.t * int
  | Branch of branch_cond * Reg.t * Reg.t * int
  | Jump of int
  | Call of int
  | Jump_reg of Reg.t
  | Call_reg of Reg.t
  | Cmovnz of Reg.t * Reg.t * Reg.t
  | Halt
  | Nop
  | Illegal of int32

let equal = ( = )

type control_flow =
  | Fallthrough
  | Branch_to of int
  | Jump_to of int
  | Call_to of int
  | Indirect_jump
  | Indirect_call
  | Stop

let control_flow = function
  | Branch (_, _, _, off) -> Branch_to off
  | Jump w -> Jump_to w
  | Call w -> Call_to w
  | Jump_reg _ -> Indirect_jump
  | Call_reg _ -> Indirect_call
  | Halt -> Stop
  | Illegal _ -> Stop
  | Alu _ | Alui _ | Lui _ | Load _ | Store _ | Cmovnz _ | Nop -> Fallthrough

let is_block_terminator i =
  match control_flow i with
  | Fallthrough -> false
  | Branch_to _ | Jump_to _ | Call_to _ | Indirect_jump | Indirect_call | Stop -> true

let writes_memory = function
  | Store _ -> true
  | Alu _ | Alui _ | Lui _ | Load _ | Branch _ | Jump _ | Call _ | Jump_reg _ | Call_reg _
  | Cmovnz _ | Halt | Nop | Illegal _ ->
    false

let uses = function
  | Alu (_, _, rs1, rs2) -> [ rs1; rs2 ]
  | Alui (_, _, rs1, _) -> [ rs1 ]
  | Lui _ -> []
  | Load (_, rs1, _) -> [ rs1 ]
  | Store (rs2, rs1, _) -> [ rs1; rs2 ]
  | Branch (_, rs1, rs2, _) -> [ rs1; rs2 ]
  | Jump _ | Call _ -> []
  | Jump_reg rs | Call_reg rs -> [ rs ]
  | Cmovnz (rd, rs1, rs2) -> [ rd; rs1; rs2 ]
  | Halt | Nop | Illegal _ -> []

let defs = function
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _) | Load (rd, _, _) | Cmovnz (rd, _, _)
    ->
    if Reg.equal rd Reg.zero then [] else [ rd ]
  | Call _ | Call_reg _ -> [ Reg.lr ]
  | Store _ | Branch _ | Jump _ | Jump_reg _ | Halt | Nop | Illegal _ -> []

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Divu -> "divu"
  | Remu -> "remu"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sra -> "sra"
  | Slt -> "slt"
  | Sltu -> "sltu"

let cond_name = function
  | Beq -> "beq"
  | Bne -> "bne"
  | Blt -> "blt"
  | Bge -> "bge"
  | Bltu -> "bltu"
  | Bgeu -> "bgeu"

let pp_cond ppf c = Format.pp_print_string ppf (cond_name c)

let pp ppf = function
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %a, %a, %a" (alu_op_name op) Reg.pp rd Reg.pp rs1 Reg.pp rs2
  | Alui (op, rd, rs1, imm) ->
    Format.fprintf ppf "%si %a, %a, %d" (alu_op_name op) Reg.pp rd Reg.pp rs1 imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %a, 0x%x" Reg.pp rd imm
  | Load (rd, rs1, imm) -> Format.fprintf ppf "lw %a, %d(%a)" Reg.pp rd imm Reg.pp rs1
  | Store (rs2, rs1, imm) -> Format.fprintf ppf "sw %a, %d(%a)" Reg.pp rs2 imm Reg.pp rs1
  | Branch (c, rs1, rs2, off) ->
    Format.fprintf ppf "%s %a, %a, %+d" (cond_name c) Reg.pp rs1 Reg.pp rs2 off
  | Jump w -> Format.fprintf ppf "j 0x%x" (w * 4)
  | Call w -> Format.fprintf ppf "call 0x%x" (w * 4)
  | Jump_reg rs ->
    if Reg.equal rs Reg.lr then Format.fprintf ppf "ret"
    else Format.fprintf ppf "jr %a" Reg.pp rs
  | Call_reg rs -> Format.fprintf ppf "callr %a" Reg.pp rs
  | Cmovnz (rd, rs1, rs2) ->
    Format.fprintf ppf "cmovnz %a, %a, %a" Reg.pp rd Reg.pp rs1 Reg.pp rs2
  | Halt -> Format.pp_print_string ppf "halt"
  | Nop -> Format.pp_print_string ppf "nop"
  | Illegal w -> Format.fprintf ppf ".word 0x%08lx" w
