type t = { regions : Region.t list }

let make regions =
  let sorted = List.sort (fun (a : Region.t) b -> compare a.base b.base) regions in
  let rec check = function
    | a :: (b : Region.t) :: rest ->
      if Region.limit a > b.base then
        invalid_arg
          (Format.asprintf "Memory_map.make: %a overlaps %a" Region.pp a Region.pp b);
      check (b :: rest)
    | [ _ ] | [] -> ()
  in
  check sorted;
  { regions = sorted }

let regions t = t.regions
let find t addr = List.find_opt (fun r -> Region.contains r addr) t.regions
let find_by_name t name = List.find_opt (fun (r : Region.t) -> r.name = name) t.regions

let data_regions t = List.filter (fun (r : Region.t) -> r.kind <> Region.Rom) t.regions

let worst_read_latency t =
  List.fold_left (fun acc (r : Region.t) -> max acc r.read_latency) 1 (data_regions t)

let default =
  make
    [
      Region.make ~name:"rom" ~kind:Region.Rom ~base:0x00000000 ~size:(256 * 1024)
        ~read_latency:2 ~write_latency:2 ~cacheable:true ~writable:false;
      Region.make ~name:"ram" ~kind:Region.Ram ~base:0x10000000 ~size:(1024 * 1024)
        ~read_latency:6 ~write_latency:6 ~cacheable:true ~writable:true;
      Region.make ~name:"scratch" ~kind:Region.Scratchpad ~base:0x20000000 ~size:(64 * 1024)
        ~read_latency:1 ~write_latency:1 ~cacheable:false ~writable:true;
      Region.make ~name:"io" ~kind:Region.Io ~base:0xF0000000 ~size:(64 * 1024)
        ~read_latency:40 ~write_latency:40 ~cacheable:false ~writable:true;
    ]

let default_stack_top = 0x10000000 + (1024 * 1024)
let default_heap_base = 0x10080000

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list Region.pp) t.regions
