type t = int

let of_int i =
  assert (i >= 0 && i <= 15);
  i

let to_int r = r
let equal = Int.equal
let compare = Int.compare
let zero = 0
let rv = 1
let fp = 12
let sp = 13
let lr = 14
let all = List.init 16 (fun i -> i)

let name r =
  match r with
  | 12 -> "fp"
  | 13 -> "sp"
  | 14 -> "lr"
  | _ -> "r" ^ string_of_int r

let pp ppf r = Format.pp_print_string ppf (name r)
