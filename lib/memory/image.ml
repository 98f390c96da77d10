(* The words a program holds, by address; writing 0 drops the binding, so
   an unbound address reads 0 and the table never holds a zero word. *)
module Words = Hashtbl.Make (Int)

type t = { map : Memory_map.t; words : int Words.t }

exception Bus_error of int
exception Write_to_rom of int

let create map = { map; words = Words.create 64 }

let region t addr =
  if addr land 3 <> 0 then raise (Bus_error addr);
  match Memory_map.find t.map addr with None -> raise (Bus_error addr) | Some r -> r

let read_word t addr =
  ignore (region t addr);
  Option.value (Words.find_opt t.words addr) ~default:0

let set t addr v =
  match Pred32_isa.Word.mask v with
  | 0 -> Words.remove t.words addr
  | w -> Words.replace t.words addr w

let write_word t addr v =
  if not (region t addr).Region.writable then raise (Write_to_rom addr);
  set t addr v

let load_words t ~base words =
  Array.iteri
    (fun i w ->
      let addr = base + (4 * i) in
      ignore (region t addr);
      set t addr w)
    words

let contents t =
  Words.fold (fun addr w acc -> (addr, w) :: acc) t.words []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let copy t = { map = t.map; words = Words.copy t.words }
