module Insn = Pred32_isa.Insn
module Region = Pred32_memory.Region
module Memory_map = Pred32_memory.Memory_map
module Cache_config = Pred32_hw.Cache_config
module Hw_config = Pred32_hw.Hw_config
module Timing = Pred32_hw.Timing
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops
module Analysis = Wcet_value.Analysis
module Aval = Wcet_value.Aval

module Metrics = Wcet_obs.Metrics

let m_promotions cache =
  Metrics.counter ~labels:[ ("cache", cache) ] ~name:"cache_persistence_promotions"
    ~help:("Not-classified " ^ cache ^ " accesses promoted to loop-persistent") ()

let m_promotions_fetch = m_promotions "fetch"
let m_promotions_data = m_promotions "data"

type t = {
  persistent_fetch : bool array array;
  persistent_data : bool array array;
  entry_extra : int array;
}

let none ~num_nodes =
  {
    persistent_fetch = Array.make num_nodes [||];
    persistent_data = Array.make num_nodes [||];
    entry_extra = Array.make num_nodes 0;
  }

let marked marks i k =
  let m = marks.(i) in
  Array.length m > 0 && m.(k)

let fetch_persistent t i idx = marked t.persistent_fetch i idx
let data_persistent t i k = marked t.persistent_data i k

let mark marks i k ~len =
  if Array.length marks.(i) = 0 then marks.(i) <- Array.make len false;
  marks.(i).(k) <- true

let count_marked = Array.fold_left (Array.fold_left (fun n b -> if b then n + 1 else n)) 0
let promotions t = (count_marked t.persistent_fetch, count_marked t.persistent_data)

(* The single cacheable line of a load's address interval, if that precise. *)
let data_line (cfg : Hw_config.t) dcache_cfg av =
  match Aval.range av with
  | None -> `Unknown
  | Some (lo, hi) -> (
    match Cache_config.lines_of_range dcache_cfg ~addr:lo ~size:(hi - lo + 1) with
    | [ line ] -> (
      match Memory_map.find cfg.Hw_config.map lo with
      | Some r when r.Region.cacheable -> `Line line
      | Some _ -> `Uncached
      | None -> `Unknown)
    | _ :: _ :: _ -> `Several
    | [] -> `Uncached)

let uncached = -1
let imprecise = -2

(* [fits lines ccfg line]: the distinct [lines] that map to [line]'s set
   fit in its associativity. *)
let set_fits lines ccfg =
  let per_set = Array.make ccfg.Cache_config.sets 0 in
  List.iter
    (fun line ->
      let s = Cache_config.set_of_line ccfg line in
      per_set.(s) <- per_set.(s) + 1)
    (List.sort_uniq Int.compare lines);
  fun line -> per_set.(Cache_config.set_of_line ccfg line) <= ccfg.Cache_config.assoc

let compute (cfg : Hw_config.t) (value : Analysis.result) (loops : Loops.info)
    (cache : Cache_analysis.result) =
  let graph = value.Analysis.graph in
  let nodes = graph.Supergraph.nodes in
  let n = Array.length nodes in
  let plan = cache.Cache_analysis.plan in
  let result = none ~num_nodes:n in
  (* Per node, once: its data accesses, and the line of each, or
     [uncached] (a store too) or [imprecise]. The accesses are the value
     analysis's, which the plan's follow where the cache solve reached the
     node. *)
  let loads =
    let memo = Array.make n None in
    fun dcfg nid ->
      match memo.(nid) with
      | Some l -> l
      | None ->
        let accesses = Array.of_list value.Analysis.accesses.(nid) in
        let lines =
          Array.map
            (fun (a : Analysis.access) ->
              if a.Analysis.is_store then uncached
              else
                match data_line cfg dcfg a.Analysis.addr with
                | `Line line -> line
                | `Uncached -> uncached
                | `Several | `Unknown -> imprecise)
            accesses
        in
        memo.(nid) <- Some (accesses, lines);
        (accesses, lines)
  in
  (* Outermost loops first, so each line is charged in its widest persistent
     scope. *)
  let order =
    List.sort
      (fun a b -> compare loops.Loops.loops.(a).Loops.depth loops.Loops.loops.(b).Loops.depth)
      (List.init (Array.length loops.Loops.loops) Fun.id)
  in
  List.iter
    (fun li ->
      let loop = loops.Loops.loops.(li) in
      let body = List.filter (Analysis.reachable value) loop.Loops.body in
      if body <> [] then begin
        (* Accesses are promoted and charged in reverse body order. *)
        let rev_body = List.rev body in
        let extra = ref 0 in
        (match cfg.Hw_config.icache with
        | None -> ()
        | Some icfg ->
          let fits =
            set_fits
              (List.concat_map
                 (fun nid ->
                   List.filter (fun l -> l >= 0) (Array.to_list plan.(nid).Cache_analysis.fetch_lines))
                 body)
              icfg
          in
          let charged = Hashtbl.create 16 in
          List.iter
            (fun nid ->
              let lines = plan.(nid).Cache_analysis.fetch_lines in
              let fetch = cache.Cache_analysis.fetch.(nid) in
              for idx = Array.length lines - 1 downto 0 do
                let line = lines.(idx) in
                if
                  line >= 0 && fits line
                  && fetch.(idx) = Cache_analysis.Not_classified
                  && not (marked result.persistent_fetch nid idx)
                then begin
                  mark result.persistent_fetch nid idx ~len:(Array.length lines);
                  if not (Hashtbl.mem charged line) then begin
                    Hashtbl.replace charged line ();
                    let addr = fst nodes.(nid).Supergraph.block.Func_cfg.insns.(idx) in
                    extra := !extra + Timing.icache_miss_cycles cfg ~addr
                  end
                end
              done)
            rev_body);
        (match cfg.Hw_config.dcache with
        | None -> ()
        | Some dcfg ->
          let lines = List.concat_map (fun nid -> Array.to_list (snd (loads dcfg nid))) body in
          (* An imprecise load may evict anything. *)
          if not (List.mem imprecise lines) then begin
            let fits = set_fits (List.filter (fun l -> l >= 0) lines) dcfg in
            let charged = Hashtbl.create 16 in
            List.iter
              (fun nid ->
                let accesses, lines = loads dcfg nid in
                let data = cache.Cache_analysis.data.(nid) in
                for k = Array.length lines - 1 downto 0 do
                  let line = lines.(k) in
                  if
                    line >= 0
                    && k < Array.length data
                    && data.(k) = Cache_analysis.Not_classified
                    && fits line
                    && not (marked result.persistent_data nid k)
                  then begin
                    mark result.persistent_data nid k ~len:(Array.length lines);
                    if not (Hashtbl.mem charged line) then begin
                      Hashtbl.replace charged line ();
                      let region =
                        match Aval.range accesses.(k).Analysis.addr with
                        | Some (lo, _) -> Memory_map.find cfg.Hw_config.map lo
                        | None -> None
                      in
                      match region with
                      | Some r -> extra := !extra + Timing.dcache_miss_cycles cfg ~region:r
                      | None -> ()
                    end
                  end
                done)
              rev_body
          end);
        if !extra > 0 then begin
          (* One-time charges: once per loop entry, at every entry source. *)
          let sources = List.sort_uniq compare (List.map fst loop.Loops.entry_edges) in
          List.iter (fun src -> result.entry_extra.(src) <- result.entry_extra.(src) + !extra) sources
        end
      end)
    order;
  let fetch_promoted, data_promoted = promotions result in
  Metrics.incr m_promotions_fetch fetch_promoted;
  Metrics.incr m_promotions_data data_promoted;
  result
