(* Slack attribution: decompose bound − observed cycles into typed
   pessimism sources, exactly.

   The bound side of a block b (all supergraph contexts sharing one block
   entry address) is A(b) = Σ count(n)·T0(n) — the IPET solution — and the
   observed side is the simulator's per-address cycle tally summed over the
   block. The difference is bridged by a ladder of per-execution costs
   T0 ≥ T1 ≥ T2 ≥ T3 (Block_timing.ladder: full, NC-as-hit, cheapest
   region, no conditional-branch stall), each dropping one worst-case
   assumption. Writing T̂k(b) for the max over b's contexts and n(b) for
   the observed entry count, the slack of b telescopes:

     slack(b) = [A(b) − n(b)·T̂0(b)]        flow_count
              + n(b)·[T̂0(b) − T̂1(b)]       cache_unclassified
              + n(b)·[T̂1(b) − T̂2(b)]       value_multi_region
              + n(b)·[T̂2(b) − T̂3(b)]       pipeline_stall
              + [n(b)·T̂3(b) − obs(b)]      dynamic_residual

   The inner brackets cancel pairwise, so the five buckets sum to
   A(b) − obs(b) per block and to bound − observed over the program — no
   residue, which `check` asserts on every corpus program. The middle
   three buckets are non-negative (the ladder is pointwise monotone and
   max preserves order); flow_count and dynamic_residual are signed:
   flow_count is negative on blocks the ILP under-visits relative to this
   run's path, and dynamic_residual is negative where an optimistic ladder
   assumption (an NC access costed as a hit) actually missed at runtime.
   cache_unclassified therefore reads as the *maximum recoverable* cycles
   from perfect classification, with the dynamic shortfall returned by the
   residual — the totals still sum exactly. *)

module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops
module Block_timing = Wcet_pipeline.Block_timing
module Persistence = Wcet_cache.Persistence
module Analysis = Wcet_value.Analysis
module Ipet = Wcet_ipet.Ipet
module Sim = Pred32_sim.Simulator
module Diag = Wcet_diag.Diag
module Json = Wcet_diag.Json
module Metrics = Wcet_obs.Metrics

type source =
  | Cache_unclassified
  | Value_multi_region
  | Pipeline_stall
  | Flow_count
  | Dynamic_residual

let sources =
  [ Cache_unclassified; Value_multi_region; Pipeline_stall; Flow_count; Dynamic_residual ]

let source_name = function
  | Cache_unclassified -> "cache_unclassified"
  | Value_multi_region -> "value_multi_region"
  | Pipeline_stall -> "pipeline_stall"
  | Flow_count -> "flow_count"
  | Dynamic_residual -> "dynamic_residual"

let source_help = function
  | Cache_unclassified -> "not-classified cache accesses costed as misses"
  | Value_multi_region -> "imprecise addresses costed at the worst candidate region"
  | Pipeline_stall -> "conditional branches costed as taken"
  | Flow_count -> "loop/path bounds exceeding this run's execution counts"
  | Dynamic_residual -> "dynamic behaviour vs the fully optimistic model (signed)"

(* Gauges, not counters: flow_count and dynamic_residual are signed. One
   gauge per source, set on every attribution run. *)
let m_slack =
  List.map
    (fun s ->
      ( s,
        Metrics.gauge
          ~labels:[ ("source", source_name s) ]
          ~name:"wcet_slack_cycles"
          ~help:("Last attribution run's slack cycles: " ^ source_help s)
          () ))
    sources

type block_row = {
  addr : int;
  func : string;
  bound_count : int;  (* Σ IPET counts over the block's contexts *)
  obs_count : int;  (* simulator executions of the block entry *)
  bound_cycles : int;  (* Σ count·T0 *)
  obs_cycles : int;
  slack : int;  (* bound_cycles − obs_cycles *)
  by_source : (source * int) list;
}

type loop_row = {
  header_addr : int;
  loop_func : string;
  loop_bound : int option;  (* effective iteration bound *)
  observed_head : int;  (* simulator executions of the header block *)
}

type t = {
  a_bound : int;
  a_observed : int;
  a_slack : int;
  a_totals : (source * int) list;
  a_blocks : block_row list;  (* descending by slack, then address *)
  a_loops : loop_row list;
  a_uncovered : int;  (* observed cycles at addresses outside any block *)
}

let err ?hint ~code fmt = Format.kasprintf (fun m -> Diag.make ?hint Diag.Error Diag.Obs ~code m) fmt

let of_report ?(pokes = []) ?(fuel = 2_000_000) (r : Analyzer.report) : (t, Diag.t) result =
  match r.Analyzer.verdict with
  | Analyzer.Partial ->
    Error
      (err ~code:"E0805"
         ~hint:"discharge the analysis holes (annotations) to attribute a complete bound"
         "slack attribution requires a complete bound; this one is conditional on %d hole(s)"
         (List.length r.Analyzer.holes))
  | Analyzer.Complete -> (
    let sim = Sim.create r.Analyzer.hw r.Analyzer.program in
    List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
    match Sim.run ~fuel sim with
    | Sim.Faulted _ ->
      Error (err ~code:"E0805" "slack attribution requires a halting simulation; this run faulted")
    | Sim.Out_of_fuel _ ->
      Error
        (err ~code:"E0805"
           "slack attribution requires a halting simulation; this run ran out of fuel")
    | Sim.Halted { cycles = observed; _ } ->
      let graph = r.Analyzer.graph in
      let nodes = graph.Supergraph.nodes in
      let counts = r.Analyzer.solution.Ipet.node_counts in
      let persistence =
        Persistence.compute r.Analyzer.hw r.Analyzer.value r.Analyzer.loops r.Analyzer.cache
      in
      let ladder =
        Block_timing.ladder r.Analyzer.hw r.Analyzer.value r.Analyzer.cache ~persistence
      in
      (* Group context nodes by block entry address (addresses are globally
         unique: blocks partition functions, functions partition the
         image). *)
      let by_addr : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
      Array.iteri
        (fun i (n : Supergraph.node) ->
          let a = n.Supergraph.block.Func_cfg.entry in
          match Hashtbl.find_opt by_addr a with
          | Some cell -> cell := i :: !cell
          | None -> Hashtbl.add by_addr a (ref [ i ]))
        nodes;
      let addrs = Hashtbl.fold (fun a _ acc -> a :: acc) by_addr [] |> List.sort compare in
      let covered = ref 0 in
      let blocks =
        List.map
          (fun addr ->
            let node_ids = !(Hashtbl.find by_addr addr) in
            let rep = nodes.(List.hd node_ids) in
            let block = rep.Supergraph.block in
            let bound_count = List.fold_left (fun acc i -> acc + counts.(i)) 0 node_ids in
            let bound_cycles =
              List.fold_left
                (fun acc i -> acc + (counts.(i) * ladder.Block_timing.full.(i)))
                0 node_ids
            in
            let level arr = List.fold_left (fun acc i -> max acc arr.(i)) 0 node_ids in
            let t0 = level ladder.Block_timing.full
            and t1 = level ladder.Block_timing.nc_hit
            and t2 = level ladder.Block_timing.cheap_region
            and t3 = level ladder.Block_timing.no_stall in
            let obs_count = Sim.exec_count sim addr in
            let obs_cycles =
              Array.fold_left
                (fun acc (ia, _) -> acc + Sim.cycles_at sim ia)
                0 block.Func_cfg.insns
            in
            covered := !covered + obs_cycles;
            let by_source =
              [
                (Flow_count, bound_cycles - (obs_count * t0));
                (Cache_unclassified, obs_count * (t0 - t1));
                (Value_multi_region, obs_count * (t1 - t2));
                (Pipeline_stall, obs_count * (t2 - t3));
                (Dynamic_residual, (obs_count * t3) - obs_cycles);
              ]
            in
            {
              addr;
              func = rep.Supergraph.func;
              bound_count;
              obs_count;
              bound_cycles;
              obs_cycles;
              slack = bound_cycles - obs_cycles;
              by_source;
            })
          addrs
      in
      (* Cycles observed at addresses no block covers (none for a sound
         complete analysis): returned through the signed residual so the
         totals still sum to bound − observed exactly. *)
      let uncovered = observed - !covered in
      let total s =
        List.fold_left (fun acc b -> acc + List.assoc s b.by_source) 0 blocks
        - if s = Dynamic_residual then uncovered else 0
      in
      let totals = List.map (fun s -> (s, total s)) sources in
      let slack = r.Analyzer.wcet - observed in
      let sum = List.fold_left (fun acc (_, v) -> acc + v) 0 totals in
      if sum <> slack then
        Error
          (err ~code:"E0804"
             "slack attribution sums to %d cycles but bound − observed is %d (internal error)"
             sum slack)
      else begin
        List.iter (fun (s, g) -> Metrics.set g (List.assoc s totals)) m_slack;
        let loops =
          Array.to_list r.Analyzer.loops.Loops.loops
          |> List.mapi (fun li (loop : Loops.loop) ->
                 let header = nodes.(loop.Loops.header) in
                 let header_addr = header.Supergraph.block.Func_cfg.entry in
                 {
                   header_addr;
                   loop_func = header.Supergraph.func;
                   loop_bound = List.assoc_opt li r.Analyzer.effective_bounds;
                   observed_head = Sim.exec_count sim header_addr;
                 })
          |> List.filter (fun l -> l.observed_head > 0 || l.loop_bound <> None)
        in
        let blocks =
          List.filter (fun b -> b.slack <> 0 || b.obs_count > 0 || b.bound_count > 0) blocks
          |> List.sort (fun a b -> compare (b.slack, a.addr) (a.slack, b.addr))
        in
        Ok
          {
            a_bound = r.Analyzer.wcet;
            a_observed = observed;
            a_slack = slack;
            a_totals = totals;
            a_blocks = blocks;
            a_loops = loops;
            a_uncovered = uncovered;
          }
      end)

(* --- rendering --- *)

let pp ?(top = 10) ppf t =
  Format.fprintf ppf
    "@[<v>slack: %d cycles (bound %d − observed %d)@," t.a_slack t.a_bound t.a_observed;
  let share v = if t.a_slack = 0 then 0. else 100. *. float_of_int v /. float_of_int t.a_slack in
  let ranked =
    List.sort (fun (sa, a) (sb, b) -> compare (b, source_name sa) (a, source_name sb)) t.a_totals
  in
  List.iter
    (fun (s, v) ->
      Format.fprintf ppf "%10d cycles %6.1f%%  %-20s %s@," v (share v) (source_name s)
        (source_help s))
    ranked;
  if t.a_uncovered <> 0 then
    Format.fprintf ppf "(%d observed cycles outside analyzed blocks)@," t.a_uncovered;
  Format.fprintf ppf "top blocks by slack:@,";
  Format.fprintf ppf "%8s %8s %8s  %s@," "slack" "bound" "observed" "block";
  let shown = ref 0 in
  List.iter
    (fun b ->
      if !shown < top && b.slack <> 0 then begin
        incr shown;
        let dominant =
          List.fold_left
            (fun (bs, bv) (s, v) -> if abs v > abs bv then (s, v) else (bs, bv))
            (Dynamic_residual, 0) b.by_source
        in
        Format.fprintf ppf "%8d %8d %8d  %s:0x%x (mostly %s)@," b.slack b.bound_cycles
          b.obs_cycles b.func b.addr
          (source_name (fst dominant))
      end)
    t.a_blocks;
  List.iter
    (fun l ->
      match l.loop_bound with
      | Some bound when l.observed_head > 0 ->
        Format.fprintf ppf "loop at 0x%x in %s: bound %d, observed %d header visits@,"
          l.header_addr l.loop_func bound l.observed_head
      | _ -> ())
    t.a_loops;
  Format.fprintf ppf "@]"

let block_json b =
  Json.Obj
    [
      ("addr", Json.Int b.addr);
      ("func", Json.String b.func);
      ("bound_count", Json.Int b.bound_count);
      ("observed_count", Json.Int b.obs_count);
      ("bound_cycles", Json.Int b.bound_cycles);
      ("observed_cycles", Json.Int b.obs_cycles);
      ("slack", Json.Int b.slack);
      ( "sources",
        Json.Obj (List.map (fun (s, v) -> (source_name s, Json.Int v)) b.by_source) );
    ]

let loop_json l =
  Json.Obj
    [
      ("header", Json.Int l.header_addr);
      ("func", Json.String l.loop_func);
      ("bound", match l.loop_bound with Some b -> Json.Int b | None -> Json.Null);
      ("observed_head_count", Json.Int l.observed_head);
    ]

let to_json t =
  Json.Obj
    [
      ("bound", Json.Int t.a_bound);
      ("observed", Json.Int t.a_observed);
      ("slack", Json.Int t.a_slack);
      ( "sources",
        Json.Obj (List.map (fun (s, v) -> (source_name s, Json.Int v)) t.a_totals) );
      ("blocks", Json.List (List.map block_json t.a_blocks));
      ("loops", Json.List (List.map loop_json t.a_loops));
      ("uncovered_cycles", Json.Int t.a_uncovered);
    ]
