type t = { sets : int; assoc : int; line_bytes : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let make ~sets ~assoc ~line_bytes =
  assert (is_pow2 sets && is_pow2 line_bytes && line_bytes >= 4 && assoc >= 1);
  { sets; assoc; line_bytes }

let line_of_addr t addr = addr / t.line_bytes
let set_of_line t line = line land (t.sets - 1)

let lines_of_range t ~addr ~size =
  assert (size > 0);
  let first = line_of_addr t addr and last = line_of_addr t (addr + size - 1) in
  List.init (last - first + 1) (fun i -> first + i)

let words_per_line t = t.line_bytes / 4
let capacity_bytes t = t.sets * t.assoc * t.line_bytes
let default_icache = make ~sets:16 ~assoc:2 ~line_bytes:16
let default_dcache = make ~sets:16 ~assoc:2 ~line_bytes:16

let pp ppf t =
  Format.fprintf ppf "%d sets x %d ways x %dB lines (%dB)" t.sets t.assoc t.line_bytes
    (capacity_bytes t)
