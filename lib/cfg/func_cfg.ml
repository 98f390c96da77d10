module Insn = Pred32_isa.Insn
module Reg = Pred32_isa.Reg
module Program = Pred32_asm.Program

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

type terminator =
  | Term_fall of int
  | Term_branch of {
      cond : Insn.branch_cond;
      rs1 : Reg.t;
      rs2 : Reg.t;
      taken : int;
      fall : int;
    }
  | Term_jump of int
  | Term_call of { target : int; return_to : int }
  | Term_call_indirect of { reg : Reg.t; site : int; return_to : int }
  | Term_return
  | Term_jump_indirect of { reg : Reg.t; site : int }
  | Term_halt

type block = { entry : int; insns : (int * Insn.t) array; term : terminator }

let branch_target addr off = addr + 4 + (4 * off)

let build ?(extra_leaders = []) program (func : Program.func_info) =
  let insns = Program.disassemble program func in
  let in_range a = a >= func.Program.entry && a < func.Program.limit in
  (* Collect leaders. *)
  let leaders = Hashtbl.create 16 in
  let add_leader a = if in_range a then Hashtbl.replace leaders a () else () in
  add_leader func.Program.entry;
  List.iter add_leader extra_leaders;
  List.iter
    (fun (addr, insn) ->
      match insn with
      | Insn.Illegal w -> decode_error "illegal instruction 0x%08lx at 0x%x" w addr
      | Insn.Branch (_, _, _, off) ->
        let target = branch_target addr off in
        if not (in_range target) then
          decode_error "branch at 0x%x leaves function %s" addr func.Program.name;
        add_leader target;
        add_leader (addr + 4)
      | Insn.Jump w ->
        let target = 4 * w in
        if not (in_range target) then
          decode_error "jump at 0x%x leaves function %s" addr func.Program.name;
        add_leader target;
        add_leader (addr + 4)
      | Insn.Call _ | Insn.Call_reg _ -> add_leader (addr + 4)
      | Insn.Jump_reg _ | Insn.Halt -> add_leader (addr + 4)
      | Insn.Alu _ | Insn.Alui _ | Insn.Lui _ | Insn.Load _ | Insn.Store _ | Insn.Cmovnz _
      | Insn.Nop ->
        ())
    insns;
  (* Partition into blocks. *)
  let insn_array = Array.of_list insns in
  let n = Array.length insn_array in
  let blocks = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let start_addr = fst insn_array.(start) in
    (* Advance until the next leader or a terminator instruction. *)
    let j = ref start in
    let continue = ref true in
    while !continue do
      let addr, insn = insn_array.(!j) in
      if Insn.is_block_terminator insn then continue := false
      else if !j + 1 >= n then continue := false
      else if Hashtbl.mem leaders (addr + 4) then continue := false
      else incr j
    done;
    let last_addr, last_insn = insn_array.(!j) in
    let term =
      match last_insn with
      | Insn.Branch (cond, rs1, rs2, off) ->
        Term_branch { cond; rs1; rs2; taken = branch_target last_addr off; fall = last_addr + 4 }
      | Insn.Jump w -> Term_jump (4 * w)
      | Insn.Call w -> Term_call { target = 4 * w; return_to = last_addr + 4 }
      | Insn.Call_reg reg -> Term_call_indirect { reg; site = last_addr; return_to = last_addr + 4 }
      | Insn.Jump_reg reg ->
        if Reg.equal reg Reg.lr then Term_return else Term_jump_indirect { reg; site = last_addr }
      | Insn.Halt -> Term_halt
      | Insn.Illegal w -> decode_error "illegal instruction 0x%08lx at 0x%x" w last_addr
      | Insn.Alu _ | Insn.Alui _ | Insn.Lui _ | Insn.Load _ | Insn.Store _ | Insn.Cmovnz _
      | Insn.Nop ->
        if last_addr + 4 >= func.Program.limit then
          decode_error "function %s falls off its end at 0x%x" func.Program.name last_addr;
        Term_fall (last_addr + 4)
    in
    let body = Array.sub insn_array start (!j - start + 1) in
    blocks := { entry = start_addr; insns = body; term } :: !blocks;
    i := !j + 1
  done;
  List.rev !blocks

let pp_term ppf = function
  | Term_fall a -> Format.fprintf ppf "fall -> 0x%x" a
  | Term_branch { taken; fall; _ } -> Format.fprintf ppf "branch -> 0x%x / 0x%x" taken fall
  | Term_jump a -> Format.fprintf ppf "jump -> 0x%x" a
  | Term_call { target; return_to } -> Format.fprintf ppf "call 0x%x, returns 0x%x" target return_to
  | Term_call_indirect { site; return_to; _ } ->
    Format.fprintf ppf "indirect call at 0x%x, returns 0x%x" site return_to
  | Term_return -> Format.pp_print_string ppf "return"
  | Term_jump_indirect { site; _ } -> Format.fprintf ppf "indirect jump at 0x%x" site
  | Term_halt -> Format.pp_print_string ppf "halt"

let pp_block ppf b =
  Format.fprintf ppf "@[<v>block 0x%x (%d insns) %a@]" b.entry (Array.length b.insns) pp_term
    b.term
