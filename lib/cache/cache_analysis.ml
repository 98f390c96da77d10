module Region = Pred32_memory.Region
module Memory_map = Pred32_memory.Memory_map
module Cache_config = Pred32_hw.Cache_config
module Hw_config = Pred32_hw.Hw_config
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Analysis = Wcet_value.Analysis
module Aval = Wcet_value.Aval

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

type data_step = Data_bypass | Data_line of int | Data_lines of int list | Data_unknown

type planned_access = {
  access : Analysis.access;
  step : data_step;
  regions : Region.t list;
}

type node_plan = { fetch_lines : int array; accesses : planned_access array }

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

  let leq a b = a == b || for_both Acache.leq a b

  let join a b = { ic = map2 Acache.join a.ic b.ic; dc = map2 Acache.join a.dc b.dc }
  let widen = join
end

type result = {
  plan : node_plan array;
  fetch : classification array array;
  data : classification array array;
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

(* The data-cache step of one access. A store is write-around and an
   access whose candidates are all uncacheable bypasses the cache; a range
   wider than eight lines is too imprecise to enumerate. *)
let data_step (cfg : Hw_config.t) (a : Analysis.access) regions =
  match cfg.Hw_config.dcache with
  | None -> Data_bypass
  | Some _ when a.Analysis.is_store -> Data_bypass
  | Some _ when List.for_all (fun (r : Region.t) -> not r.Region.cacheable) regions -> Data_bypass
  | Some dcache_cfg -> (
    match Aval.range a.Analysis.addr with
    | None -> Data_unknown
    | Some (lo, hi) ->
      if hi - lo > 8 * dcache_cfg.Cache_config.line_bytes then Data_unknown
      else (
        match Cache_config.lines_of_range dcache_cfg ~addr:lo ~size:(hi - lo + 1) with
        | [ line ] -> Data_line line
        | lines -> Data_lines lines))

let empty_plan = { fetch_lines = [||]; accesses = [||] }

(* Everything a transfer needs that does not depend on the cache state,
   per reachable node: the I-cache line of every fetch (-1 for a fetch
   that bypasses the cache) and the data step of every access. *)
let build_plan (cfg : Hw_config.t) (value : Analysis.result) ~region_hints =
  let map = cfg.Hw_config.map in
  let fetch_line addr =
    match cfg.Hw_config.icache with
    | None -> -1
    | Some icache_cfg -> (
      match Memory_map.find map addr with
      | Some r when r.Region.cacheable -> Cache_config.line_of_addr icache_cfg addr
      | Some _ | None -> -1)
  in
  Array.mapi
    (fun i (node : Supergraph.node) ->
      if not (Analysis.reachable value i) then empty_plan
      else
        let hint = region_hints node.Supergraph.func in
        {
          fetch_lines = Array.map (fun (addr, _) -> fetch_line addr) node.Supergraph.block.Func_cfg.insns;
          accesses =
            Array.of_list
              (List.map
                 (fun (a : Analysis.access) ->
                   let regions = candidate_regions map a.Analysis.addr hint in
                   { access = a; step = data_step cfg a regions; regions })
                 value.Analysis.accesses.(i));
        })
    value.Analysis.graph.Supergraph.nodes

let classify c line =
  if Acache.must_contains c line then Always_hit
  else if Acache.may_excludes c line then Always_miss
  else Not_classified

(* Per-node transfer. It writes the classifications of the node's fetches
   and data accesses into [fetch] and [data] on every application, so
   each node's last one stands; [Fixpoint.solve] re-transfers a node
   whenever its in-state changes, so that last application saw the final
   in-state. Returns [st] itself when neither cache changed. *)
let make_transfer plan ~fetch ~data i (st : Cstate.t) =
  let p = plan.(i) in
  let ic =
    match st.Cstate.ic with
    | None ->
      Array.fill fetch.(i) 0 (Array.length fetch.(i)) Bypass;
      st.Cstate.ic
    | Some c0 ->
      let classes = fetch.(i) in
      let c = ref c0 in
      Array.iteri
        (fun idx line ->
          if line < 0 then classes.(idx) <- Bypass
          else begin
            classes.(idx) <- classify !c line;
            c := Acache.access !c line
          end)
        p.fetch_lines;
      if !c == c0 then st.Cstate.ic else Some !c
  in
  let dc =
    match st.Cstate.dc with
    | None ->
      Array.fill data.(i) 0 (Array.length data.(i)) Bypass;
      st.Cstate.dc
    | Some c0 ->
      let kinds = data.(i) in
      let c = ref c0 in
      Array.iteri
        (fun k a ->
          match a.step with
          | Data_bypass -> kinds.(k) <- Bypass
          | Data_line line ->
            kinds.(k) <- classify !c line;
            c := Acache.access !c line
          | Data_lines lines ->
            (* one of a few lines: join of the possible outcomes *)
            kinds.(k) <- Not_classified;
            (match List.map (Acache.access !c) lines with
            | [] -> ()
            | first :: rest -> c := List.fold_left Acache.join first rest)
          | Data_unknown ->
            (* imprecise access: the paper's cache-damage case *)
            kinds.(k) <- Not_classified;
            c := Acache.access_unknown !c)
        p.accesses;
      if !c == c0 then st.Cstate.dc else Some !c
  in
  if ic == st.Cstate.ic && dc == st.Cstate.dc then st else { Cstate.ic; dc }

(* The fixpoint and classification metrics, and the result. *)
let finish ~plan ~fetch ~data (solution : FP.result) =
  let n = Array.length plan in
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
    Array.iter (Array.iter (fun c -> Metrics.incr (data_metric c) 1)) data
  end;
  {
    plan;
    fetch;
    data;
    node_in = Array.init n solution.FP.in_state;
    node_out = Array.init n solution.FP.out_state;
    transfers = solution.FP.transfers;
  }

(* One solve over the reachability-filtered supergraph. A fetch of a node
   the solve never reaches stays not-classified. *)
let run ?cancel (cfg : Hw_config.t) (value : Analysis.result) ~region_hints =
  let graph = value.Analysis.graph in
  let nodes = graph.Supergraph.nodes in
  let plan = build_plan cfg value ~region_hints in
  let fetch =
    Array.map
      (fun node -> Array.make (Array.length node.Supergraph.block.Func_cfg.insns) Not_classified)
      nodes
  in
  let data = Array.map (fun p -> Array.make (Array.length p.accesses) Not_classified) plan in
  let initial =
    {
      Cstate.ic = Option.map Acache.empty cfg.Hw_config.icache;
      dc = Option.map Acache.empty cfg.Hw_config.dcache;
    }
  in
  let solution =
    FP.solve ?cancel
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
        transfer = make_transfer plan ~fetch ~data;
        widening_points = (fun _ -> false);
        widening_delay = max_int;
      }
  in
  (* The value analysis can reach a node that the solve does not: an
     escalation can cut the only way in. Such a node has no classified
     data access, as it had none when the classifications were replayed
     from the converged states. *)
  Array.iteri
    (fun i p ->
      if Array.length p.accesses > 0 && solution.FP.in_state i = None then begin
        plan.(i) <- { p with accesses = [||] };
        data.(i) <- [||]
      end)
    plan;
  finish ~plan ~fetch ~data solution

(* The frozen benchmark's entry point: the whole-program solve. *)
type slice = |

let run_scheduled ?slice:(_ : slice option) ?cancel cfg value ~region_hints =
  (run ?cancel cfg value ~region_hints, ())
