module Insn = Pred32_isa.Insn
module Region = Pred32_memory.Region
module Hw_config = Pred32_hw.Hw_config
module Timing = Pred32_hw.Timing
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Analysis = Wcet_value.Analysis
module CA = Wcet_cache.Cache_analysis
module Persistence = Wcet_cache.Persistence

module Metrics = Wcet_obs.Metrics

let m_blocks =
  Metrics.counter ~name:"pipeline_blocks" ~help:"Basic blocks assigned a timing bound" ()

let m_block_wcet =
  Metrics.histogram ~name:"pipeline_block_wcet_cycles"
    ~help:"Per-block worst-case cycle bounds"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]
    ()

type t = { wcet : int array; bcet : int array }

let fetch_worst (cfg : Hw_config.t) ~addr = function
  | CA.Always_hit -> Timing.fetch_cycles cfg ~outcome:Timing.Cached_hit ~addr
  | CA.Always_miss | CA.Not_classified ->
    Timing.fetch_cycles cfg ~outcome:Timing.Cached_miss ~addr
  | CA.Bypass -> Timing.fetch_cycles cfg ~outcome:Timing.Uncached ~addr

let fetch_best (cfg : Hw_config.t) ~addr = function
  | CA.Always_hit | CA.Not_classified ->
    Timing.fetch_cycles cfg ~outcome:Timing.Cached_hit ~addr
  | CA.Always_miss -> Timing.fetch_cycles cfg ~outcome:Timing.Cached_miss ~addr
  | CA.Bypass -> Timing.fetch_cycles cfg ~outcome:Timing.Uncached ~addr

let data_worst (cfg : Hw_config.t) ~is_store kind regions =
  if is_store then Timing.worst_data_write_cycles cfg regions
  else
    match kind with
    | CA.Always_hit -> 1
    | CA.Always_miss | CA.Not_classified -> Timing.worst_data_read_cycles cfg regions
    | CA.Bypass ->
      List.fold_left (fun acc (r : Region.t) -> max acc r.Region.read_latency) 1 regions

let data_best (cfg : Hw_config.t) ~is_store kind regions =
  ignore cfg;
  if is_store then
    List.fold_left (fun acc (r : Region.t) -> min acc r.Region.write_latency) max_int
      (match regions with [] -> [] | rs -> rs)
    |> fun v -> if v = max_int then 1 else v
  else
    match kind with
    | CA.Always_hit | CA.Not_classified -> 1
    | CA.Always_miss | CA.Bypass ->
      let v =
        List.fold_left (fun acc (r : Region.t) -> min acc r.Region.read_latency) max_int regions
      in
      if v = max_int then 1 else v

let control_penalty (cfg : Hw_config.t) insn ~worst =
  match Insn.control_flow insn with
  | Insn.Branch_to _ -> if worst then cfg.Hw_config.branch_taken_penalty else 0
  | Insn.Jump_to _ | Insn.Call_to _ | Insn.Indirect_jump | Insn.Indirect_call ->
    cfg.Hw_config.branch_taken_penalty
  | Insn.Fallthrough | Insn.Stop -> 0

let insn_best_cycles cfg ~fetch_class ~data ~addr insn =
  let fetch = fetch_best cfg ~addr fetch_class in
  let base = Timing.base_cycles cfg insn in
  let data_cost =
    match data with
    | None -> 0
    | Some (kind, regions) -> data_best cfg ~is_store:(Insn.writes_memory insn) kind regions
  in
  fetch + base + data_cost + control_penalty cfg insn ~worst:false

(* The position in its node's plan of instruction [idx]'s data access, or
   -1 when it makes none. [next] is the cursor of a walk in instruction
   order. *)
let access_at (accesses : CA.planned_access array) next idx =
  let k = !next in
  if k < Array.length accesses && accesses.(k).CA.access.Analysis.insn_index = idx then begin
    incr next;
    k
  end
  else -1

(* Per-node worst-case cycles under progressively optimistic assumptions.
   With all flags false this is exactly the bound side ([compute]'s wcet);
   each flag can only lower per-instruction cost, so the four ladder levels
   are pointwise monotone decreasing — the property that keeps the
   telescoped slack-attribution buckets non-negative.

   - [nc_as_hit]: cost not-classified fetches and not-classified data loads
     as cache hits (what a perfect cache classification could recover);
   - [best_region]: cost data accesses whose address interval spans several
     memory regions at their single cheapest candidate (what an exact value
     analysis could recover);
   - [no_branch_stall]: drop the taken-penalty of conditional branches
     (unconditional transfers always pay it in the simulator too, so only
     the conditional pessimism is conservatism). *)
let worst_level (cfg : Hw_config.t) (value : Analysis.result) (cache : CA.result)
    ~(persistence : Persistence.t) ~nc_as_hit ~best_region ~no_branch_stall =
  let nodes = value.Analysis.graph.Supergraph.nodes in
  let n = Array.length nodes in
  let out = Array.make n 0 in
  Array.iteri
    (fun i node ->
      let accesses = cache.CA.plan.(i).CA.accesses in
      let next = ref 0 in
      let w = ref persistence.Persistence.entry_extra.(i) in
      Array.iteri
        (fun idx (addr, insn) ->
          (* Persistence downgrades a not-classified access to a hit; its
             one-time miss charge sits in entry_extra of the loop entries. *)
          let fetch_class =
            if Persistence.fetch_persistent persistence i idx then CA.Always_hit
            else cache.CA.fetch.(i).(idx)
          in
          let fetch_class =
            if nc_as_hit && fetch_class = CA.Not_classified then CA.Always_hit
            else fetch_class
          in
          let is_store = Insn.writes_memory insn in
          let data_cost =
            match access_at accesses next idx with
            | -1 -> 0
            | k ->
              let kind =
                match cache.CA.data.(i).(k) with
                | CA.Not_classified when Persistence.data_persistent persistence i k ->
                  CA.Always_hit
                | CA.Not_classified when nc_as_hit && not is_store -> CA.Always_hit
                | kind -> kind
              in
              let regions =
                match accesses.(k).CA.regions with
                | _ :: _ :: _ as regions when best_region ->
                  let cost r = data_worst cfg ~is_store kind [ r ] in
                  [
                    List.fold_left
                      (fun best r -> if cost r < cost best then r else best)
                      (List.hd regions) (List.tl regions);
                  ]
                | rs -> rs
              in
              data_worst cfg ~is_store kind regions
          in
          w :=
            !w
            + fetch_worst cfg ~addr fetch_class
            + Timing.base_cycles cfg insn + data_cost
            + control_penalty cfg insn ~worst:(not no_branch_stall))
        node.Supergraph.block.Func_cfg.insns;
      out.(i) <- !w)
    nodes;
  out

type ladder = {
  full : int array;  (* identical to [compute]'s wcet *)
  nc_hit : int array;
  cheap_region : int array;
  no_stall : int array;
}

let ladder cfg value cache ~persistence =
  {
    full =
      worst_level cfg value cache ~persistence ~nc_as_hit:false ~best_region:false
        ~no_branch_stall:false;
    nc_hit =
      worst_level cfg value cache ~persistence ~nc_as_hit:true ~best_region:false
        ~no_branch_stall:false;
    cheap_region =
      worst_level cfg value cache ~persistence ~nc_as_hit:true ~best_region:true
        ~no_branch_stall:false;
    no_stall =
      worst_level cfg value cache ~persistence ~nc_as_hit:true ~best_region:true
        ~no_branch_stall:true;
  }

let compute (cfg : Hw_config.t) (value : Analysis.result) (cache : CA.result)
    ~(persistence : Persistence.t) =
  let nodes = value.Analysis.graph.Supergraph.nodes in
  let n = Array.length nodes in
  let wcet =
    worst_level cfg value cache ~persistence ~nc_as_hit:false ~best_region:false
      ~no_branch_stall:false
  in
  let bcet = Array.make n 0 in
  Array.iteri
    (fun i node ->
      let accesses = cache.CA.plan.(i).CA.accesses in
      let next = ref 0 in
      let b = ref 0 in
      Array.iteri
        (fun idx (addr, insn) ->
          let data =
            match access_at accesses next idx with
            | -1 -> None
            | k -> Some (cache.CA.data.(i).(k), accesses.(k).CA.regions)
          in
          b := !b + insn_best_cycles cfg ~fetch_class:cache.CA.fetch.(i).(idx) ~data ~addr insn)
        node.Supergraph.block.Func_cfg.insns;
      bcet.(i) <- !b)
    nodes;
  Metrics.incr m_blocks n;
  if Wcet_obs.Obs.on () then Array.iter (Metrics.observe m_block_wcet) wcet;
  { wcet; bcet }
