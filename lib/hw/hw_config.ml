type t = {
  map : Pred32_memory.Memory_map.t;
  icache : Cache_config.t option;
  dcache : Cache_config.t option;
  branch_taken_penalty : int;
  mul_latency : int;
  div_latency : int;
  has_hw_div : bool;
}

let default =
  {
    map = Pred32_memory.Memory_map.default;
    icache = Some Cache_config.default_icache;
    dcache = Some Cache_config.default_dcache;
    branch_taken_penalty = 2;
    mul_latency = 3;
    div_latency = 12;
    has_hw_div = true;
  }

let no_hw_div = { default with has_hw_div = false }
let uncached = { default with icache = None; dcache = None }
let profiles = [ ("default", default); ("uncached", uncached); ("no-hw-div", no_hw_div) ]

let pp ppf t =
  let pp_cache ppf = function
    | None -> Format.pp_print_string ppf "off"
    | Some c -> Cache_config.pp ppf c
  in
  Format.fprintf ppf "@[<v>icache: %a@,dcache: %a@,branch penalty: %d, mul: %d, div: %s@,%a@]"
    pp_cache t.icache pp_cache t.dcache t.branch_taken_penalty t.mul_latency
    (if t.has_hw_div then string_of_int t.div_latency else "software")
    Pred32_memory.Memory_map.pp t.map
