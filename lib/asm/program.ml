type func_info = { name : string; entry : int; limit : int }

type t = {
  image : Pred32_memory.Image.t;
  map : Pred32_memory.Memory_map.t;
  entry : int;
  text_base : int;
  text_limit : int;
  functions : func_info list;
  symbols : (string * int) list;
}

let symbol t name = List.assoc name t.symbols
let symbol_opt t name = List.assoc_opt name t.symbols

let function_at t addr =
  List.find_opt (fun (f : func_info) -> addr >= f.entry && addr < f.limit) t.functions

let find_function t name = List.find_opt (fun f -> f.name = name) t.functions

let decode_at t addr =
  Pred32_isa.Encode.decode (Pred32_isa.Word.to_int32 (Pred32_memory.Image.read_word t.image addr))

let code_digest t (f : func_info) =
  let b = Buffer.create 256 in
  let addr = ref f.entry in
  while !addr < f.limit do
    Buffer.add_string b (string_of_int (Pred32_memory.Image.read_word t.image !addr));
    Buffer.add_char b ';';
    addr := !addr + 4
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let disassemble t f =
  let rec go addr acc =
    if addr >= f.limit then List.rev acc else go (addr + 4) ((addr, decode_at t addr) :: acc)
  in
  go f.entry []

let pp_disassembly t ppf f =
  Format.fprintf ppf "@[<v>%s:@,%a@]" f.name
    (Format.pp_print_list (fun ppf (addr, i) ->
         Format.fprintf ppf "  %08x: %a" addr Pred32_isa.Insn.pp i))
    (disassemble t f)
