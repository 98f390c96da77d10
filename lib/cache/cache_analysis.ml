module Insn = Pred32_isa.Insn
module Region = Pred32_memory.Region
module Memory_map = Pred32_memory.Memory_map
module Cache_config = Pred32_hw.Cache_config
module Hw_config = Pred32_hw.Hw_config
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Analysis = Wcet_value.Analysis
module Aval = Wcet_value.Aval
module Summary = Wcet_value.Summary

module Metrics = Wcet_obs.Metrics

let m_transfers =
  Metrics.counter ~labels:[ ("analysis", "cache") ] ~name:"fixpoint_transfers"
    ~help:"Transfer-function applications until the cache fixpoint" ()

let m_widenings =
  Metrics.counter ~labels:[ ("analysis", "cache") ] ~name:"fixpoint_widenings"
    ~help:"State merges that used widening in the cache analysis" ()

let m_joins =
  Metrics.counter ~labels:[ ("analysis", "cache") ] ~name:"fixpoint_joins"
    ~help:"State merges that used join in the cache analysis" ()

let m_worklist_peak =
  Metrics.gauge ~labels:[ ("analysis", "cache") ] ~name:"fixpoint_worklist_peak"
    ~help:"Peak worklist occupancy of the cache fixpoint" ()

let m_fetch_class cls =
  Metrics.counter ~labels:[ ("class", cls) ] ~name:"cache_fetch_class"
    ~help:("Instruction fetches classified " ^ cls) ()

let m_fetch_ah = m_fetch_class "always_hit"
let m_fetch_am = m_fetch_class "always_miss"
let m_fetch_nc = m_fetch_class "not_classified"
let m_fetch_bp = m_fetch_class "bypass"

let m_data_class cls =
  Metrics.counter ~labels:[ ("class", cls) ] ~name:"cache_data_class"
    ~help:("Data accesses classified " ^ cls) ()

let m_data_ah = m_data_class "always_hit"
let m_data_am = m_data_class "always_miss"
let m_data_nc = m_data_class "not_classified"
let m_data_bp = m_data_class "bypass"

type classification = Always_hit | Always_miss | Not_classified | Bypass

type data_access = {
  insn_index : int;
  is_store : bool;
  kind : classification;
  regions : Region.t list;
}

(* Abstract state: a pair of optional caches. *)
module Cstate = struct
  type t = { ic : Acache.t option; dc : Acache.t option }

  let map2 f a b =
    match (a, b) with
    | Some x, Some y -> Some (f x y)
    | None, None -> None
    | Some _, None | None, Some _ -> assert false

  let for_both f a b =
    let ok x y = match (x, y) with
      | Some x, Some y -> f x y
      | None, None -> true
      | Some _, None | None, Some _ -> assert false
    in
    ok a.ic b.ic && ok a.dc b.dc

  let leq = for_both Acache.leq
  let equal = for_both Acache.equal

  let join a b = { ic = map2 Acache.join a.ic b.ic; dc = map2 Acache.join a.dc b.dc }
  let widen = join
end

type result = {
  fetch : classification array array;
  data : data_access list array;
  node_in : Cstate.t option array;
  node_out : Cstate.t option array;
  transfers : int;
}

module FP = Wcet_util.Fixpoint.Make (Cstate)

(* Candidate memory regions of a data access. *)
let candidate_regions map av hint =
  let all_data () =
    match hint with
    | Some regions -> regions
    | None ->
      List.filter (fun (r : Region.t) -> r.Region.kind <> Region.Rom) (Memory_map.regions map)
  in
  match Aval.range av with
  | None -> all_data ()
  | Some (lo, hi) ->
    let overlapping =
      List.filter
        (fun (r : Region.t) -> r.Region.base <= hi && lo < Region.limit r)
        (Memory_map.regions map)
    in
    (match overlapping with
    | [] -> all_data ()
    | regions -> (
      match hint with
      | Some hinted when List.length regions > 1 ->
        (* the annotation narrows a multi-region candidate set *)
        let inter = List.filter (fun r -> List.memq r hinted || List.mem r hinted) regions in
        if inter = [] then hinted else inter
      | _ -> regions))

(* Lines an access may touch, or None when too imprecise to enumerate. *)
let candidate_lines dcache_cfg av =
  match Aval.range av with
  | None -> None
  | Some (lo, hi) ->
    if hi - lo > 8 * dcache_cfg.Cache_config.line_bytes then None
    else Some (Cache_config.lines_of_range dcache_cfg ~addr:lo ~size:(hi - lo + 1))

type access_info = {
  classification : classification;
  regions : Region.t list;
  update : Acache.t option -> Acache.t option;
}

(* Analyze one data access against the current data-cache state. *)
let data_access_info (cfg : Hw_config.t) hint av ~is_store dc =
  let regions = candidate_regions cfg.Hw_config.map av hint in
  let all_uncacheable = List.for_all (fun (r : Region.t) -> not r.Region.cacheable) regions in
  if is_store then
    (* write-around: no cache effect *)
    { classification = Bypass; regions; update = Fun.id }
  else
    match (dc, cfg.Hw_config.dcache) with
    | None, _ | _, None -> { classification = Bypass; regions; update = Fun.id }
    | Some dcache, Some dcache_cfg ->
      if all_uncacheable then { classification = Bypass; regions; update = Fun.id }
      else (
        match candidate_lines dcache_cfg av with
        | Some [ line ] ->
          let classification =
            if Acache.must_contains dcache line then Always_hit
            else if Acache.may_excludes dcache line then Always_miss
            else Not_classified
          in
          { classification; regions; update = Option.map (fun c -> Acache.access c line) }
        | Some lines ->
          (* one of a few lines: join of the possible outcomes *)
          let update =
            Option.map (fun c ->
                match List.map (Acache.access c) lines with
                | [] -> c
                | first :: rest -> List.fold_left Acache.join first rest)
          in
          { classification = Not_classified; regions; update }
        | None ->
          (* imprecise access: the paper's cache-damage case *)
          { classification = Not_classified; regions; update = Option.map Acache.access_unknown })

let fetch_info (cfg : Hw_config.t) map addr ic =
  match (ic, cfg.Hw_config.icache) with
  | None, _ | _, None -> (Bypass, Fun.id)
  | Some icache, Some icache_cfg -> (
    match Memory_map.find map addr with
    | Some r when r.Region.cacheable ->
      let line = Cache_config.line_of_addr icache_cfg addr in
      let classification =
        if Acache.must_contains icache line then Always_hit
        else if Acache.may_excludes icache line then Always_miss
        else Not_classified
      in
      (classification, Option.map (fun c -> Acache.access c line))
    | Some _ | None -> (Bypass, Fun.id))

(* Summary rows of the component-scheduled cache analysis, the access-set
   transformer analogue of Wcet_value.Summary. Validity additionally
   requires the value states the access sets were derived from to match:
   the caller gates rows on that (Report_cache.cache_slice). *)
type summary_slice = int -> Cstate.t Wcet_util.Fixpoint.row option

let equal_cstate = Cstate.equal

(* Per-node transfer, optionally recording classifications. *)
let make_transfer (cfg : Hw_config.t) (value : Analysis.result) ~region_hints =
  let nodes = value.Analysis.graph.Supergraph.nodes in
  let transfer record i (st : Cstate.t) =
    let node = nodes.(i) in
    let hint = region_hints node.Supergraph.func in
    let accesses = value.Analysis.accesses.(i) in
    let st = ref st in
    Array.iteri
      (fun idx (addr, insn) ->
        let fetch_class, ic_update = fetch_info cfg cfg.Hw_config.map addr !st.Cstate.ic in
        (match record with
        | Some (fetch_rec, _) -> fetch_rec.(idx) <- fetch_class
        | None -> ());
        st := { !st with Cstate.ic = ic_update !st.Cstate.ic };
        match insn with
        | Insn.Load _ | Insn.Store _ -> (
          let is_store = Insn.writes_memory insn in
          let access =
            List.find_opt (fun (a : Analysis.access) -> a.Analysis.insn_index = idx) accesses
          in
          match access with
          | None -> ()
          | Some a ->
            let info = data_access_info cfg hint a.Analysis.addr ~is_store !st.Cstate.dc in
            (match record with
            | Some (_, data_rec) ->
              data_rec :=
                { insn_index = idx; is_store; kind = info.classification; regions = info.regions }
                :: !data_rec
            | None -> ());
            st := { !st with Cstate.dc = info.update !st.Cstate.dc })
        | _ -> ())
      node.Supergraph.block.Func_cfg.insns;
    !st
  in
  transfer

(* Shared tail of [run] / [run_scheduled]: a recording pass over the
   converged states to classify every fetch and data access, plus the
   fixpoint and classification metrics. *)
let finish ~transfer ~nodes (solution : FP.result) =
  let n = Array.length nodes in
  let fetch =
    Array.map
      (fun node -> Array.make (Array.length node.Supergraph.block.Func_cfg.insns) Not_classified)
      nodes
  in
  let data = Array.make n [] in
  Array.iteri
    (fun i _ ->
      match solution.FP.in_state i with
      | None -> ()
      | Some st ->
        let data_rec = ref [] in
        ignore (transfer (Some (fetch.(i), data_rec)) i st);
        data.(i) <- List.rev !data_rec)
    nodes;
  Metrics.incr m_transfers solution.FP.transfers;
  Metrics.incr m_widenings solution.FP.widenings;
  Metrics.incr m_joins solution.FP.joins;
  Metrics.set_max m_worklist_peak solution.FP.max_pending;
  if Wcet_obs.Obs.on () then begin
    let fetch_metric = function
      | Always_hit -> m_fetch_ah
      | Always_miss -> m_fetch_am
      | Not_classified -> m_fetch_nc
      | Bypass -> m_fetch_bp
    in
    let data_metric = function
      | Always_hit -> m_data_ah
      | Always_miss -> m_data_am
      | Not_classified -> m_data_nc
      | Bypass -> m_data_bp
    in
    Array.iter (Array.iter (fun c -> Metrics.incr (fetch_metric c) 1)) fetch;
    Array.iter (List.iter (fun a -> Metrics.incr (data_metric a.kind) 1)) data
  end;
  {
    fetch;
    data;
    node_in = Array.init n solution.FP.in_state;
    node_out = Array.init n solution.FP.out_state;
    transfers = solution.FP.transfers;
  }

(* The reachability-filtered problem both solvers run, with its
   recording transfer. *)
let problem (cfg : Hw_config.t) (value : Analysis.result) ~region_hints =
  let graph = value.Analysis.graph in
  let nodes = graph.Supergraph.nodes in
  let initial =
    {
      Cstate.ic = Option.map Acache.empty cfg.Hw_config.icache;
      dc = Option.map Acache.empty cfg.Hw_config.dcache;
    }
  in
  let transfer = make_transfer cfg value ~region_hints in
  ( transfer,
    {
      FP.num_nodes = Array.length nodes;
      entries = [ (graph.Supergraph.entry, initial) ];
      succs =
        (fun i ->
          if Analysis.reachable value i then
            List.filter_map
              (fun (_, t) -> if Analysis.reachable value t then Some t else None)
              nodes.(i).Supergraph.succs
          else []);
      transfer = (fun i st -> transfer None i st);
      widening_points = (fun _ -> false);
      widening_delay = max_int;
    } )

let run ?cancel cfg (value : Analysis.result) ~region_hints =
  let transfer, p = problem cfg value ~region_hints in
  finish ~transfer ~nodes:value.Analysis.graph.Supergraph.nodes (FP.solve ?cancel p)

(* [run_scheduled] solves the same problem one component at a time (its
   condensation can be finer than the value analysis': infeasible edges
   drop out of the plan); the engine applies rows whose recorded external
   cache state equals the delivered one. *)
let run_scheduled ?slice ?cancel cfg (value : Analysis.result) ~region_hints =
  let graph = value.Analysis.graph in
  let transfer, p = problem cfg value ~region_hints in
  let plan =
    Wcet_cfg.Callgraph.condense ~num_nodes:p.FP.num_nodes ~entries:[ graph.Supergraph.entry ]
      ~succs:p.FP.succs
  in
  let solution, pinfo = FP.solve_plan ?rows:slice ?cancel ~plan p in
  Summary.account Summary.Cache graph plan pinfo;
  (finish ~transfer ~nodes:graph.Supergraph.nodes solution, pinfo.Wcet_util.Fixpoint.ext_input)

let pp_classification ppf = function
  | Always_hit -> Format.pp_print_string ppf "AH"
  | Always_miss -> Format.pp_print_string ppf "AM"
  | Not_classified -> Format.pp_print_string ppf "NC"
  | Bypass -> Format.pp_print_string ppf "BP"
