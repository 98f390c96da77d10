module Program = Pred32_asm.Program
module Hw_config = Pred32_hw.Hw_config
module Memory_map = Pred32_memory.Memory_map
module Region = Pred32_memory.Region
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops
module Resolver = Wcet_cfg.Resolver
module Aval = Wcet_value.Aval
module Analysis = Wcet_value.Analysis
module Loop_bounds = Wcet_value.Loop_bounds
module Resolve_iter = Wcet_value.Resolve_iter
module Modes = Wcet_value.Modes
module Cache_analysis = Wcet_cache.Cache_analysis
module Block_timing = Wcet_pipeline.Block_timing
module Ipet = Wcet_ipet.Ipet
module Path_analysis = Wcet_path.Path_analysis
module Portfolio = Wcet_path.Portfolio
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace

let m_runs_complete =
  Metrics.counter ~labels:[ ("verdict", "complete") ] ~name:"analyzer_runs"
    ~help:"Analyses finishing with a complete (unconditional) bound" ()

let m_runs_partial =
  Metrics.counter ~labels:[ ("verdict", "partial") ] ~name:"analyzer_runs"
    ~help:"Analyses finishing with a partial (hole-conditional) bound" ()

let m_failures =
  Metrics.counter ~name:"analyzer_failures" ~help:"Analyses aborted by a fatal diagnostic" ()

(* The fixpoint engine that drives the value and cache analyses: one
   whole-program solve each. The type has one constructor and its name
   ("summary", after a component-scheduled engine since removed) stays
   only as a report-cache key component. *)
type engine = Summary

let engine_name Summary = "summary"

exception Analysis_failed of Diag.t list

let () =
  Printexc.register_printer (function
    | Analysis_failed ds ->
      Some (Format.asprintf "Analysis_failed:@,%a" Diag.pp_list ds)
    | _ -> None)

type phase = Decode | Loop_value | Cache | Pipeline | Path

let phase_name = function
  | Decode -> "decoding / CFG reconstruction"
  | Loop_value -> "loop & value analysis"
  | Cache -> "cache analysis"
  | Pipeline -> "pipeline analysis"
  | Path -> "path analysis"

type confidence = Complete | Partial

let verdict_name = function Complete -> "complete" | Partial -> "partial"

type hole =
  | Hole_call of { site : int; func : string }
  | Hole_jump of { site : int; func : string }
  | Hole_loop of { header : int; func : string; reason : string }
  | Hole_irreducible of { blocks : int list; func : string }

(* What an octagon escalation changed, kept in the report so the auditor
   can mark the interval-pass findings the relational pass resolved
   ([discharged-by: octagon]) and the observability layer can attribute the
   precision gain. *)
type esc_info = {
  ei_funcs : string list;  (* functions that triggered the escalation *)
  ei_transfers : int;  (* product-domain transfer count *)
  ei_slots : int list;  (* tracked stack/global word addresses *)
  ei_discharged_loops : (int * string * string) list;
      (* (header addr, func, interval cause) of loops the interval pass
         left unbounded and the relational pass bounded *)
  ei_tightened_accesses : (int * string * Aval.t * Aval.t) list;
      (* (insn addr, func, interval addr, refined addr) of accesses whose
         address interval strictly tightened under the octagon *)
}

(* Why the [Auto] domain did or did not escalate a candidate function: one
   whose interval results left an imprecise access or a loop hole. Only
   imprecision that prices into the bound escalates — an access that may
   touch two or more memory regions, or a loop the interval pass could not
   bound for a reason a relation can discharge. *)
type esc_trigger =
  | Multi_region_access of { insn : int; addr : Aval.t; regions : string list }
  | Loop_hole of { header : int; cause : Loop_bounds.cause }

type esc_decision =
  | Esc_escalated of esc_trigger list
  | Esc_skipped of string list  (* the regions its imprecise accesses stay inside *)

let esc_decision_name = function Esc_escalated _ -> "escalate" | Esc_skipped _ -> "skip"

let aval_hex v =
  match Aval.range v with
  | Some (lo, hi) -> Printf.sprintf "[0x%x, 0x%x]" lo hi
  | None -> if Aval.is_bot v then "\u{22a5}" else "\u{22a4}"

let esc_trigger_reason = function
  | Multi_region_access { insn; addr; regions } ->
    Printf.sprintf "access at 0x%x: %s spans %d regions (%s)" insn (aval_hex addr)
      (List.length regions) (String.concat ", " regions)
  | Loop_hole { header; cause } ->
    Printf.sprintf "loop 0x%x %s" header (Loop_bounds.cause_name cause)

let esc_decision_reason = function
  | Esc_escalated triggers -> String.concat "; " (List.map esc_trigger_reason triggers)
  | Esc_skipped [ r ] -> Printf.sprintf "skipped: imprecise accesses confined to region `%s`" r
  | Esc_skipped [] -> "skipped: imprecise accesses touch no mapped region"
  | Esc_skipped rs ->
    Printf.sprintf "skipped: each imprecise access confined to one region (%s)"
      (String.concat ", " (List.map (Printf.sprintf "`%s`") rs))

(* One path backend's contribution to this run, kept in the report for
   explain, the daemon and the E5 bench table. *)
type backend_run = {
  br_name : string;
  br_bound : int option;  (* None = the backend failed *)
  br_error : (string * string) option;  (* (diag code, detail) *)
  br_wall_us : int;
  br_winner : bool;  (* supplied the bound the report carries *)
}

(* Whether the portfolio raced the model checker next to IPET. It can only
   undercut IPET through path correlation, and a mode guard is that
   correlation, so it races only where one exists. *)
type mc_gate =
  | Mc_raced of Modes.guard list  (* the guards that admitted it *)
  | Mc_gated  (* no mode guard: IPET ran alone *)

let mc_gate_decision = function Mc_raced _ -> "race" | Mc_gated -> "gated"

let mc_gate_reason = function
  | Mc_gated -> "no mode guard"
  | Mc_raced guards ->
    String.concat "; "
      (List.map
         (fun { Modes.symbol; sites } ->
           Printf.sprintf "mode guard %s at %s" symbol
             (String.concat ", "
                (List.map (fun (a, f) -> Printf.sprintf "0x%x (%s)" a f) sites)))
         guards)

type report = {
  program : Program.t;
  hw : Hw_config.t;
  graph : Supergraph.t;
  loops : Loops.info;
  value : Analysis.result;
  escalation : esc_info option;
  esc_gate : (string * esc_decision) list;
  derived_bounds : Loop_bounds.t;
  effective_bounds : (int * int) list;
  unbounded_loops : (int * string) list;
  cache : Cache_analysis.result;
  timing : Block_timing.t;
  solution : Ipet.solution;
  backend_runs : backend_run list;
  mc_gate : mc_gate;
  wcet : int;
  bcet : int;
  verdict : confidence;
  holes : hole list;
  diagnostics : Diag.t list;
  phase_seconds : (phase * float) list;
}

(* What the renderers, the ledger and the store read of a report: no
   supergraph, no per-node states. Small enough that a store entry costs
   about a kilobyte where the whole report cost sixty. *)
type answer = {
  an_wcet : int;
  an_bcet : int;
  an_verdict : confidence;
  an_nodes : int;
  an_contexts : int;
  an_loops : int;
  an_holes : hole list;
  an_diagnostics : Diag.t list;
  an_escalation : esc_info option;
  an_esc_gate : (string * esc_decision) list;
  an_backend_runs : backend_run list;
  an_mc_gate : mc_gate;
  an_loop_bounds : (int * string * int) list;  (* (header addr, func, bound) *)
  an_phase_seconds : (phase * float) list;
  an_precision : (string * int) list;
}

(* Higher-is-worse precision counters for the bound-drift ledger: any
   increase between two snapshots of the same program is a precision
   regression (Ledger.diff's convention). *)
let precision_counts (r : report) =
  let interval = ref 0 and unknown = ref 0 in
  Array.iter
    (List.iter (fun (a : Analysis.access) ->
         match Aval.singleton a.Analysis.addr with
         | Some _ -> ()
         | None -> (
           match Aval.range a.Analysis.addr with
           | Some _ -> incr interval
           | None -> incr unknown)))
    r.value.Analysis.accesses;
  let fetch_nc = ref 0 in
  Array.iter
    (Array.iter (fun c -> if c = Cache_analysis.Not_classified then incr fetch_nc))
    r.cache.Cache_analysis.fetch;
  let data_nc = ref 0 in
  Array.iter
    (List.iter (fun (d : Cache_analysis.data_access) ->
         if d.Cache_analysis.kind = Cache_analysis.Not_classified then incr data_nc))
    r.cache.Cache_analysis.data;
  [
    ("value_interval", !interval);
    ("value_unknown", !unknown);
    ("fetch_not_classified", !fetch_nc);
    ("data_not_classified", !data_nc);
    ("holes", List.length r.holes);
  ]

let answer (r : report) =
  {
    an_wcet = r.wcet;
    an_bcet = r.bcet;
    an_verdict = r.verdict;
    an_nodes = Array.length r.graph.Supergraph.nodes;
    an_contexts = Array.length r.graph.Supergraph.contexts;
    an_loops = Array.length r.loops.Loops.loops;
    an_holes = r.holes;
    an_diagnostics = r.diagnostics;
    an_escalation = r.escalation;
    an_esc_gate = r.esc_gate;
    an_backend_runs = r.backend_runs;
    an_mc_gate = r.mc_gate;
    an_loop_bounds =
      List.map
        (fun (li, b) ->
          let hn = r.graph.Supergraph.nodes.(r.loops.Loops.loops.(li).Loops.header) in
          (hn.Supergraph.block.Func_cfg.entry, hn.Supergraph.func, b))
        r.effective_bounds;
    an_phase_seconds = r.phase_seconds;
    an_precision = precision_counts r;
  }

let span_name = function
  | Decode -> "decode"
  | Loop_value -> "value"
  | Cache -> "cache"
  | Pipeline -> "pipeline"
  | Path -> "path"

(* [span] overrides the trace-span name when one phase covers several
   sub-steps (the Cache phase times both classification and persistence). *)
let timed ?span phases phase f =
  let name = match span with Some s -> s | None -> span_name phase in
  Trace.with_span ~cat:"analyzer" name (fun () ->
      let t0 = Wcet_util.Mono_clock.now () in
      let result = f () in
      let dt = Wcet_util.Mono_clock.now () -. t0 in
      phases := (phase, dt) :: !phases;
      result)

(* A fatal problem: record the diagnostic and abort with everything
   collected so far. *)
let fatal c phase ~code ?loc ?hint fmt =
  Format.kasprintf
    (fun message ->
      Metrics.incr m_failures 1;
      Diag.add c (Diag.make ?hint ?loc Diag.Error phase ~code message);
      raise (Analysis_failed (Diag.items c)))
    fmt

let warn c phase ~code ?loc ?hint fmt =
  Format.kasprintf
    (fun message -> Diag.add c (Diag.make ?hint ?loc Diag.Warning phase ~code message))
    fmt

(* Translate the annotation set into a resolver. Unknown function names are
   degraded to warnings: the offending target is dropped (the call site then
   either resolves from the remaining names or becomes an analysis hole). *)
let resolver_of_annot c program (annot : Annot.t) =
  let call_targets =
    List.filter_map
      (fun (site, names) ->
        let addrs =
          List.filter_map
            (fun name ->
              match Program.find_function program name with
              | Some f -> Some f.Program.entry
              | None ->
                warn c Diag.Annot ~code:"W0401" ~loc:(Diag.at_addr site)
                  "calltargets annotation names unknown function %s (ignored)" name;
                None)
            names
        in
        if addrs = [] then None else Some (site, addrs))
      annot.Annot.call_targets
  in
  let jump_targets =
    if annot.Annot.setjmp_auto then begin
      let continuations = Resolver.scan_setjmp_continuations program in
      (* every indirect jump site may target any setjmp continuation *)
      Some continuations
    end
    else None
  in
  let base = Resolver.auto program in
  let base =
    Resolver.with_overrides ~call_targets ~recursion_depths:annot.Annot.recursion_depths base
  in
  match jump_targets with
  | None -> base
  | Some continuations ->
    {
      base with
      Resolver.jump_targets =
        (fun ~site ~block ->
          match base.Resolver.jump_targets ~site ~block with
          | Some t -> Some t
          | None -> if continuations = [] then None else Some continuations);
    }

let assumes_of_annot c program (annot : Annot.t) =
  let user =
    List.filter_map
      (fun (sym, lo, hi) ->
        match Program.symbol_opt program sym with
        | Some addr -> Some (addr, Aval.interval lo hi)
        | None ->
          warn c Diag.Annot ~code:"W0402" "assume annotation names unknown symbol %s (ignored)"
            sym;
          None)
      annot.Annot.assumes
  in
  (* Compiler-runtime invariant: the heap bump pointer starts at its linked
     initial value. It is internal to the generated code - unlike user
     globals, no test harness pokes it - so treating the initializer as
     known is sound and keeps early heap blocks at known addresses. *)
  let runtime =
    match Program.symbol_opt program "__heap_ptr" with
    | Some addr ->
      [ (addr, Aval.const (Pred32_memory.Image.read_word program.Program.image addr)) ]
    | None -> []
  in
  runtime @ user

let region_hints_of_annot c program (annot : Annot.t) func =
  match List.assoc_opt func annot.Annot.memory_regions with
  | None -> None
  | Some names -> (
    match
      List.filter_map
        (fun name ->
          match Memory_map.find_by_name program.Program.map name with
          | Some r -> Some r
          | None ->
            warn c Diag.Annot ~code:"W0403" ~loc:(Diag.in_func func)
              "memory annotation names unknown region %s (ignored)" name;
            None)
        names
    with
    | [] -> None
    | rs -> Some rs)

(* Region hints resolved once per function of the graph, up front:
   resolving lazily in the cache transfer would emit one W0403 per node
   instead of one per function. *)
let region_hint_table c program annot (graph : Supergraph.t) =
  let tbl : (string, Pred32_memory.Region.t list option) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (n : Supergraph.node) ->
      let f = n.Supergraph.func in
      if not (Hashtbl.mem tbl f) then
        Hashtbl.add tbl f (region_hints_of_annot c program annot f))
    graph.Supergraph.nodes;
  fun f -> Option.join (Hashtbl.find_opt tbl f)

(* Nodes matching a place: block entries at an address, or entry blocks of a
   function (any context). *)
let nodes_of_place c (graph : Supergraph.t) program place =
  match place with
  | Annot.At_addr addr ->
    Array.to_list graph.Supergraph.nodes
    |> List.filter_map (fun (n : Supergraph.node) ->
           if n.Supergraph.block.Func_cfg.entry = addr then Some n.Supergraph.id else None)
  | Annot.In_function name -> (
    match Program.find_function program name with
    | None ->
      warn c Diag.Annot ~code:"W0401" "flow-fact annotation names unknown function %s (ignored)"
        name;
      []
    | Some f ->
      Array.to_list graph.Supergraph.nodes
      |> List.filter_map (fun (n : Supergraph.node) ->
             if n.Supergraph.block.Func_cfg.entry = f.Program.entry then Some n.Supergraph.id
             else None))

let loop_matches_place (graph : Supergraph.t) program (loops : Loops.info) li place =
  let header = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
  match place with
  | Annot.At_addr addr -> header.Supergraph.block.Func_cfg.entry = addr
  | Annot.In_function name ->
    ignore program;
    header.Supergraph.func = name

let facts_of_annot c graph program (annot : Annot.t) =
  List.filter_map
    (fun fact ->
      match fact with
      | Annot.Max_count (place, bound) -> (
        match nodes_of_place c graph program place with
        | [] -> None
        | nodes ->
          Some
            {
              Ipet.fact_coeffs = List.map (fun n -> (n, 1)) nodes;
              fact_bound = bound;
              fact_label =
                (match place with
                | Annot.At_addr a -> Printf.sprintf "maxcount at 0x%x" a
                | Annot.In_function f -> Printf.sprintf "maxcount %s" f);
            })
      | Annot.Exclusive places -> (
        match
          List.concat_map
            (fun p -> List.map (fun n -> (n, 1)) (nodes_of_place c graph program p))
            places
        with
        | [] -> None
        | coeffs -> Some { Ipet.fact_coeffs = coeffs; fact_bound = 1; fact_label = "exclusive paths" }))
    annot.Annot.flow_facts

(* Best-case bound: the shortest feasible walk from entry to a halting
   node, weighted by the optimistic per-block times. Weights are positive,
   so Dijkstra's shortest walk is a sound lower bound even through cycles
   (taking a cycle never shortens a walk). *)
let best_case_bound (value : Analysis.result) (timing : Block_timing.t) =
  let graph = value.Analysis.graph in
  let n = Array.length graph.Supergraph.nodes in
  let dist = Array.make n max_int in
  let visited = Array.make n false in
  let entry = graph.Supergraph.entry in
  dist.(entry) <- timing.Block_timing.bcet.(entry);
  let rec loop () =
    (* linear-scan Dijkstra: graphs are small *)
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not visited.(v)) && dist.(v) < max_int && (!u < 0 || dist.(v) < dist.(!u)) then
        u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      visited.(u) <- true;
      List.iter
        (fun (_, v) ->
          let w = dist.(u) + timing.Block_timing.bcet.(v) in
          if w < dist.(v) then dist.(v) <- w)
        (Analysis.feasible_successors value u);
      loop ()
    end
  in
  loop ();
  let best = ref max_int in
  for v = 0 to n - 1 do
    if dist.(v) < !best && Analysis.feasible_successors value v = [] then best := dist.(v)
  done;
  if !best = max_int then 0 else !best

let build_error_code msg =
  let contains affix =
    let al = String.length affix and ml = String.length msg in
    let rec go i = i + al <= ml && (String.sub msg i al = affix || go (i + 1)) in
    go 0
  in
  if contains "recursi" then
    ("E0202", Some "recursion <function> depth <n>")
  else ("E0201", None)

(* Pre-validate loop-bound annotation places so a bogus function name in a
   loop annotation surfaces as a diagnostic instead of silently never
   matching. *)
let validate_loop_places c program (annot : Annot.t) =
  List.iter
    (fun (place, _) ->
      match place with
      | Annot.In_function name ->
        if Program.find_function program name = None then
          warn c Diag.Annot ~code:"W0401"
            "loop-bound annotation names unknown function %s (ignored)" name
      | Annot.At_addr _ -> ())
    annot.Annot.loop_bounds

(* [verify] runs every reference cross-check (see analyzer.mli):
   octagon-refined vs interval states and bound (E0503), and the
   portfolio's certified-witness check with csolve as the structural
   witness and, on a fact-free spec, the simplex as the oracle of IPET's
   forest answer (E0303). *)
let rec analyze_inner ~hw ~annot ~domain ~verify ?cancel program =
  (* The token reaches the value/cache fixpoints (polled per transfer); the
     remaining phases poll it at their boundary so a deadline that expires
     between fixpoints still cancels before the next phase starts. *)
  let check_cancel () =
    match cancel with
    | Some c when c () -> raise Wcet_util.Fixpoint.Cancelled
    | Some _ | None -> ()
  in
  let c = Diag.collector () in
  let phases = ref [] in
  let holes = ref [] in
  let resolver = resolver_of_annot c program annot in
  let assumes = assumes_of_annot c program annot in
  validate_loop_places c program annot;
  let graph =
    timed phases Decode (fun () ->
        try Resolve_iter.build_graceful ~resolver ~assumes program
        with Supergraph.Build_error msg ->
          let code, hint = build_error_code msg in
          fatal c Diag.Decode ~code ?hint "%s: %s" (phase_name Decode) msg)
  in
  (* Remaining unresolved indirect control flow: analysis holes, one
     diagnostic per distinct site. *)
  let seen_sites = Hashtbl.create 4 in
  List.iter
    (fun (nid, site) ->
      if not (Hashtbl.mem seen_sites site) then begin
        Hashtbl.add seen_sites site ();
        let func = graph.Supergraph.nodes.(nid).Supergraph.func in
        holes := Hole_call { site; func } :: !holes;
        warn c Diag.Decode ~code:"W0301"
          ~loc:(Diag.at_addr ~func site)
          ~hint:(Printf.sprintf "calltargets at 0x%x = <function>, <function>" site)
          "indirect call cannot be resolved; the callee is excluded from the bound"
      end)
    graph.Supergraph.unresolved_calls;
  List.iter
    (fun site ->
      let func =
        match Program.function_at program site with
        | Some f -> f.Program.name
        | None -> "?"
      in
      holes := Hole_jump { site; func } :: !holes;
      warn c Diag.Decode ~code:"W0304"
        ~loc:(Diag.at_addr ~func site)
        ~hint:"setjmp auto   # if the jump implements longjmp"
        "indirect jump cannot be resolved; execution beyond it is excluded from the bound")
    graph.Supergraph.unresolved_jumps;
  let loops = Loops.analyze graph in
  (* Under a relational domain the value_accesses precision counters are
     published once, from whichever result ends up final (escalated or
     not); under the interval domain the run publishes as before. *)
  let publish = domain = Analysis.Interval in
  let value, derived_bounds =
    timed phases Loop_value (fun () ->
        match
          let value = Analysis.run ~assumes ?cancel ~publish graph loops in
          (value, Loop_bounds.analyze value loops)
        with
        | result -> result
        | exception Failure msg -> fatal c Diag.Loop_value ~code:"E0203" "%s" msg)
  in
  (* ---- Octagon escalation --------------------------------------------
     The interval pass above ran everywhere. Under [Auto], a function
     escalates when its interval results left an access that may touch two
     or more memory regions (the auditor's A0509, priced at the slowest
     candidate) or a loop unbounded for an input-dependent or aliased
     counter. Those functions are re-solved under the interval x octagon
     reduced product, and the refined result replaces the base one for
     every downstream phase (cache, pipeline, IPET). A function whose
     imprecise accesses each stay inside one region is a candidate that
     is skipped: its [esc_gate] entry says so, and [verify] polices the
     skip (W0502). The refinement is a per-node meet with the base states,
     so it can only tighten — asserted under [verify] below. *)
  let base_value = value and base_bounds = derived_bounds in
  let esc_gate =
    match domain with
    | Analysis.Interval -> []
    | Analysis.Auto ->
      let map = program.Program.map in
      (* per candidate function: its triggers, and the regions its
         single-region imprecise accesses touch *)
      let tbl : (string, esc_trigger list ref * string list ref) Hashtbl.t = Hashtbl.create 8 in
      let entry f =
        match Hashtbl.find_opt tbl f with
        | Some e -> e
        | None ->
          let e = (ref [], ref []) in
          Hashtbl.add tbl f e;
          e
      in
      (* an instruction triggers once, from the first context it spans in *)
      let triggered = Hashtbl.create 8 in
      Array.iteri
        (fun nid accs ->
          List.iter
            (fun (a : Analysis.access) ->
              if Aval.singleton a.Analysis.addr = None then begin
                let triggers, confined = entry graph.Supergraph.nodes.(nid).Supergraph.func in
                match Analysis.regions_spanned map a.Analysis.addr with
                | Some hit ->
                  if not (Hashtbl.mem triggered a.Analysis.insn_addr) then begin
                    Hashtbl.add triggered a.Analysis.insn_addr ();
                    triggers :=
                      Multi_region_access
                        {
                          insn = a.Analysis.insn_addr;
                          addr = a.Analysis.addr;
                          regions = List.map (fun (r : Region.t) -> r.Region.name) hit;
                        }
                      :: !triggers
                  end
                | None ->
                  List.iter
                    (fun (r : Region.t) ->
                      if not (List.mem r.Region.name !confined) then
                        confined := r.Region.name :: !confined)
                    (Analysis.access_regions map a.Analysis.addr)
              end)
            accs)
        value.Analysis.accesses;
      Array.iteri
        (fun li verdict ->
          match verdict with
          | Loop_bounds.Unbounded
              (((Loop_bounds.Input_dependent | Loop_bounds.Aliased_counter) as cause), _) ->
            let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
            let triggers, _ = entry hn.Supergraph.func in
            triggers := Loop_hole { header = hn.Supergraph.block.Func_cfg.entry; cause } :: !triggers
          | _ -> ())
        derived_bounds.Loop_bounds.per_loop;
      Hashtbl.fold
        (fun f (triggers, confined) acc ->
          ( f,
            match !triggers with
            | [] -> Esc_skipped (List.sort compare !confined)
            | ts -> Esc_escalated (List.rev ts) )
          :: acc)
        tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let escalated, skipped =
    List.partition_map
      (fun (f, d) -> match d with Esc_escalated _ -> Either.Left f | Esc_skipped _ -> Either.Right f)
      esc_gate
  in
  let escalation, value, derived_bounds =
    match escalated with
    | [] ->
      if not publish then Analysis.publish_access_metrics value.Analysis.accesses;
      (None, value, derived_bounds)
    | funcs -> (
      match
        timed ~span:"octagon" phases Loop_value (fun () ->
            let esc = Analysis.escalate ~assumes ?cancel ~funcs value loops in
            let refined =
              Loop_bounds.analyze ~rel:esc.Analysis.esc_rel esc.Analysis.esc_result loops
            in
            (esc, refined))
      with
      | exception Failure msg ->
        (* Non-convergence within the budget: keep the sound interval
           result; the escalation is an optimisation, never a requirement. *)
        warn c Diag.Loop_value ~code:"W0501"
          "octagon escalation abandoned (%s); keeping the interval result" msg;
        Analysis.publish_access_metrics value.Analysis.accesses;
        (None, value, derived_bounds)
      | esc, refined_bounds ->
        let refined_value = esc.Analysis.esc_result in
        (* Merge verdicts: a loop the interval pass bounded keeps the
           tighter of the two bounds; one it could not bound is discharged
           by a relational bound. *)
        let discharged = ref [] in
        let per_loop =
          Array.mapi
            (fun li refined ->
              match (derived_bounds.Loop_bounds.per_loop.(li), refined) with
              | Loop_bounds.Bounded a, Loop_bounds.Bounded b -> Loop_bounds.Bounded (min a b)
              | Loop_bounds.Unbounded (cause, _), (Loop_bounds.Bounded _ as b) ->
                let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
                discharged :=
                  ( hn.Supergraph.block.Func_cfg.entry,
                    hn.Supergraph.func,
                    Loop_bounds.cause_name cause )
                  :: !discharged;
                b
              | base, _ -> base)
            refined_bounds.Loop_bounds.per_loop
        in
        (* Accesses whose address interval strictly tightened: the material
           for the auditor's [discharged-by: octagon] marks. *)
        let tightened = ref [] in
        Array.iteri
          (fun nid base_accs ->
            let refined_accs = refined_value.Analysis.accesses.(nid) in
            List.iter
              (fun (b : Analysis.access) ->
                match
                  List.find_opt
                    (fun (r : Analysis.access) -> r.Analysis.insn_index = b.Analysis.insn_index)
                    refined_accs
                with
                | Some r when r.Analysis.addr <> b.Analysis.addr ->
                  tightened :=
                    ( b.Analysis.insn_addr,
                      graph.Supergraph.nodes.(nid).Supergraph.func,
                      b.Analysis.addr,
                      r.Analysis.addr )
                    :: !tightened
                | _ -> ())
              base_accs)
          value.Analysis.accesses;
        let info =
          {
            ei_funcs = esc.Analysis.esc_funcs;
            ei_transfers = esc.Analysis.esc_transfers;
            ei_slots = esc.Analysis.esc_slots;
            ei_discharged_loops = List.rev !discharged;
            ei_tightened_accesses = List.rev !tightened;
          }
        in
        Diag.add c
          (Diag.make Diag.Info Diag.Loop_value ~code:"W0501"
             (Printf.sprintf
                "value analysis escalated to the octagon domain for %d function(s): %s"
                (List.length info.ei_funcs)
                (String.concat ", " info.ei_funcs)));
        Analysis.publish_access_metrics refined_value.Analysis.accesses;
        (Some info, refined_value, { Loop_bounds.per_loop }))
  in
  (* The trigger's precision oracle: under [verify], escalate every
     candidate, as a trigger that fired on any imprecise access would, and
     record (Info W0502) each skipped function where that would have
     tightened an access address or a loop bound. The bound stays the
     gated analysis's. *)
  if verify && skipped <> [] then begin
    match
      let esc = Analysis.escalate ~assumes ?cancel ~funcs:(List.map fst esc_gate) base_value loops in
      (esc, Loop_bounds.analyze ~rel:esc.Analysis.esc_rel esc.Analysis.esc_result loops)
    with
    | exception Failure _ -> ()
    | esc, esc_bounds ->
      let gains : (string, string list) Hashtbl.t = Hashtbl.create 4 in
      let gain f what =
        if List.mem f skipped then
          Hashtbl.replace gains f (what :: Option.value ~default:[] (Hashtbl.find_opt gains f))
      in
      Array.iteri
        (fun nid accs ->
          let refined = esc.Analysis.esc_result.Analysis.accesses.(nid) in
          List.iter
            (fun (a : Analysis.access) ->
              match
                List.find_opt
                  (fun (e : Analysis.access) -> e.Analysis.insn_index = a.Analysis.insn_index)
                  refined
              with
              | Some e when not (Aval.equal a.Analysis.addr e.Analysis.addr) ->
                gain graph.Supergraph.nodes.(nid).Supergraph.func
                  (Printf.sprintf "access at 0x%x %s -> %s" a.Analysis.insn_addr
                     (aval_hex a.Analysis.addr) (aval_hex e.Analysis.addr))
              | _ -> ())
            accs)
        value.Analysis.accesses;
      Array.iteri
        (fun li verdict ->
          let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
          let loop = Printf.sprintf "loop 0x%x" hn.Supergraph.block.Func_cfg.entry in
          match (verdict, esc_bounds.Loop_bounds.per_loop.(li)) with
          | Loop_bounds.Bounded a, Loop_bounds.Bounded b when b < a ->
            gain hn.Supergraph.func (Printf.sprintf "%s bound %d -> %d" loop a b)
          | Loop_bounds.Unbounded _, Loop_bounds.Bounded b ->
            gain hn.Supergraph.func (Printf.sprintf "%s unbounded -> %d" loop b)
          | _ -> ())
        derived_bounds.Loop_bounds.per_loop;
      List.iter
        (fun f ->
          match Hashtbl.find_opt gains f with
          | None -> ()
          | Some whats ->
            Diag.add c
              (Diag.makef Diag.Info Diag.Loop_value ~code:"W0502" ~loc:(Diag.in_func f)
                 "escalation gated off (%s) where the octagon tightens %s"
                 (esc_decision_reason (List.assoc f esc_gate))
                 (String.concat "; " (List.rev whats))))
        skipped
  end;
  (* Escalation cross-check, part 1: the refined states must be leq the
     interval states at every node (the meet guarantees it by
     construction — this asserts the guarantee held). *)
  if verify && escalation <> None then begin
    let leq_opt a b =
      match (a, b) with
      | None, _ -> true
      | Some _, None -> false
      | Some a, Some b -> Wcet_value.State.leq a b
    in
    Array.iteri
      (fun i _ ->
        if
          (not (leq_opt value.Analysis.node_in.(i) base_value.Analysis.node_in.(i)))
          || not (leq_opt value.Analysis.node_out.(i) base_value.Analysis.node_out.(i))
        then
          fatal c Diag.Loop_value ~code:"E0503"
            ~loc:(Diag.in_func graph.Supergraph.nodes.(i).Supergraph.func)
            "octagon-refined value state is not below the interval state at node %d" i)
      graph.Supergraph.nodes;
    Array.iteri
      (fun li verdict ->
        match (base_bounds.Loop_bounds.per_loop.(li), verdict) with
        | Loop_bounds.Bounded a, Loop_bounds.Bounded b when b > a ->
          fatal c Diag.Loop_value ~code:"E0503"
            "octagon loop bound %d exceeds the interval bound %d for loop %d" b a li
        | Loop_bounds.Bounded _, Loop_bounds.Unbounded _ ->
          fatal c Diag.Loop_value ~code:"E0503"
            "octagon escalation lost the interval bound of loop %d" li
        | _ -> ())
      derived_bounds.Loop_bounds.per_loop
  end;
  (* Overlay annotation loop bounds on the derived verdicts. *)
  let effective_bounds = ref [] in
  let unbounded_loops = ref [] in
  Array.iteri
    (fun li verdict ->
      let annotated =
        List.filter_map
          (fun (place, bound) ->
            if loop_matches_place graph program loops li place then Some bound else None)
          annot.Annot.loop_bounds
      in
      let annotated = match annotated with [] -> None | bs -> Some (List.fold_left min max_int bs) in
      match (verdict, annotated) with
      | Loop_bounds.Bounded b, Some a -> effective_bounds := (li, min b a) :: !effective_bounds
      | Loop_bounds.Bounded b, None -> effective_bounds := (li, b) :: !effective_bounds
      | Loop_bounds.Unbounded _, Some a -> effective_bounds := (li, a) :: !effective_bounds
      | Loop_bounds.Unbounded (_, reason), None ->
        (* Loops of unreachable code are irrelevant. *)
        if Analysis.reachable value loops.Loops.loops.(li).Loops.header then begin
          unbounded_loops := (li, reason) :: !unbounded_loops;
          (* Degrade: exclude the loop's iterations (back-edge count 0) so
             every other function still gets a bound; the result is partial. *)
          effective_bounds := (li, 0) :: !effective_bounds;
          let hn = graph.Supergraph.nodes.(loops.Loops.loops.(li).Loops.header) in
          let header = hn.Supergraph.block.Func_cfg.entry in
          let func = hn.Supergraph.func in
          holes := Hole_loop { header; func; reason } :: !holes;
          warn c Diag.Loop_value ~code:"W0302"
            ~loc:(Diag.at_addr ~func header)
            ~hint:(Printf.sprintf "loop at 0x%x bound <N>" header)
            "loop cannot be bounded automatically (%s); iterations beyond the first are \
             excluded from the bound"
            reason
        end)
    derived_bounds.Loop_bounds.per_loop;
  let facts = facts_of_annot c graph program annot in
  (* Irreducible regions without user flow facts: degrade to one pass per
     block so the path problem stays bounded; report the hole. *)
  let user_fact_nodes =
    List.concat_map (fun f -> List.map fst f.Ipet.fact_coeffs) facts
  in
  let synthetic_facts =
    List.concat_map
      (fun scc ->
        if List.exists (fun n -> List.mem n user_fact_nodes) scc then []
        else begin
          let func = graph.Supergraph.nodes.(List.hd scc).Supergraph.func in
          let blocks =
            List.sort_uniq compare
              (List.map
                 (fun n -> graph.Supergraph.nodes.(n).Supergraph.block.Func_cfg.entry)
                 scc)
          in
          holes := Hole_irreducible { blocks; func } :: !holes;
          warn c Diag.Loop_value ~code:"W0303"
            ~loc:(Diag.at_addr ~func (List.hd blocks))
            ~hint:
              (String.concat "\n"
                 (List.map (fun a -> Printf.sprintf "maxcount at 0x%x <= <N>" a) blocks))
            "irreducible region (%d blocks) has no automatic bound; limited to one pass per \
             block in the bound"
            (List.length scc);
          List.map
            (fun n ->
              {
                Ipet.fact_coeffs = [ (n, 1) ];
                fact_bound = 1;
                fact_label = "degradation: irreducible region";
              })
            scc
        end)
      loops.Loops.irreducible
  in
  check_cancel ();
  let region_hints = region_hint_table c program annot graph in
  let cache = timed phases Cache (fun () -> Cache_analysis.run ?cancel hw value ~region_hints) in
  check_cancel ();
  let persistence =
    timed ~span:"persistence" phases Cache (fun () ->
        Wcet_cache.Persistence.compute hw value loops cache)
  in
  let timing =
    timed phases Pipeline (fun () -> Block_timing.compute hw value cache ~persistence)
  in
  check_cancel ();
  let solution, backend_runs, mc_gate =
    timed phases Path (fun () ->
        let spec =
          {
            Ipet.value;
            times = timing.Block_timing.wcet;
            loop_bounds = !effective_bounds;
            facts = facts @ synthetic_facts;
          }
        in
        let mc_gate =
          match Modes.guards program loops value with
          | [] -> Mc_gated
          | guards -> Mc_raced guards
        in
        let mc = (module Wcet_path.Mc : Path_analysis.BACKEND) in
        let backends =
          (module Ipet : Path_analysis.BACKEND)
          :: (match mc_gate with Mc_raced _ -> [ mc ] | Mc_gated -> [])
        in
        (* [verify] also runs a gated-off model checker, to police the gate. *)
        let oracles =
          List.concat
            [
              [ (module Wcet_path.Csolve : Path_analysis.BACKEND) ];
              (if spec.facts = [] then [ (module Ipet.Simplex : Path_analysis.BACKEND) ] else []);
              (if mc_gate = Mc_gated then [ mc ] else []);
            ]
        in
        let res =
          Portfolio.run ?oracles:(if verify then Some oracles else None) ~backends spec loops
        in
        (* A budget-exhausted model checker is excluded with a warning. *)
        List.iter
          (fun b ->
            warn c Diag.Path ~code:"W0305"
              "path backend %s is intractable here; the portfolio continues without it" b)
          res.Portfolio.p_intractable;
        (match res.Portfolio.p_disagreements with
        | [] -> ()
        | ds ->
          fatal c Diag.Path ~code:"E0303" "%s: %s" (phase_name Path)
            (String.concat "; " ds));
        (match
           ( List.find_opt (fun r -> r.Portfolio.r_name = "mc") res.Portfolio.p_oracles,
             res.Portfolio.p_best )
         with
        | Some { Portfolio.r_outcome = Ok m; _ }, Some (_, best)
          when m.Ipet.wcet < best.Ipet.wcet ->
          Diag.add c
            (Diag.makef Diag.Info Diag.Path ~code:"W0306"
               "the model checker, gated off (no mode guard), bounds this program at %d \
                cycles, below the reported %d"
               m.Ipet.wcet best.Ipet.wcet)
        | _ -> ());
        match res.Portfolio.p_best with
        | Some (wname, sol) ->
          let runs =
            List.map
              (fun (r : Portfolio.run) ->
                {
                  br_name = r.Portfolio.r_name;
                  br_bound =
                    (match r.Portfolio.r_outcome with
                    | Ok s -> Some s.Ipet.wcet
                    | Error _ -> None);
                  br_error =
                    (match r.Portfolio.r_outcome with
                    | Ok _ -> None
                    | Error e ->
                      Some (e.Path_analysis.err_code, e.Path_analysis.err_detail));
                  br_wall_us = r.Portfolio.r_wall_us;
                  br_winner = r.Portfolio.r_name = wname;
                })
              res.Portfolio.p_runs
          in
          (sol, runs, mc_gate)
        | None ->
          let e =
            match
              List.find_opt (fun r -> r.Portfolio.r_name = "ipet") res.Portfolio.p_runs
            with
            | Some { Portfolio.r_outcome = Error e; _ } -> e
            | _ -> (
              match
                List.find_map
                  (fun r ->
                    match r.Portfolio.r_outcome with Error e -> Some e | Ok _ -> None)
                  res.Portfolio.p_runs
              with
              | Some e -> e
              | None -> Path_analysis.internal "no path backend was configured")
          in
          let msg =
            Option.value
              ~default:"path analysis failed"
              (Diag.describe e.Path_analysis.err_code)
          in
          fatal c Diag.Path ~code:e.Path_analysis.err_code
            ~hint:e.Path_analysis.err_detail "%s: %s" (phase_name Path) msg)
  in
  (* Escalation cross-check, part 2: a full interval re-analysis
     must not produce a smaller bound than the escalated run — relational
     precision may only ever tighten the WCET. Only a [Complete] interval
     bound is comparable: a [Partial] one excludes the very holes (e.g.
     loop iterations beyond the first) the escalation discharged, so it is
     legitimately smaller. *)
  if verify && escalation <> None then begin
    let base_r =
      analyze_inner ~hw ~annot ~domain:Analysis.Interval ~verify ?cancel program
    in
    if base_r.verdict = Complete && solution.Ipet.wcet > base_r.wcet then
      fatal c Diag.Path ~code:"E0503"
        "octagon-escalated WCET bound %d exceeds the interval bound %d" solution.Ipet.wcet
        base_r.wcet
  end;
  {
    program;
    hw;
    graph;
    loops;
    value;
    escalation;
    esc_gate;
    derived_bounds;
    effective_bounds = !effective_bounds;
    unbounded_loops = !unbounded_loops;
    cache;
    timing;
    solution;
    backend_runs;
    mc_gate;
    wcet = solution.Ipet.wcet;
    bcet = best_case_bound value timing;
    verdict = (if !holes = [] then Complete else Partial);
    holes = List.rev !holes;
    diagnostics = Diag.items c;
    phase_seconds = List.rev !phases;
  }

let analyze ?(hw = Hw_config.default) ?(annot = Annot.empty) ?(domain = Analysis.Interval)
    ?(path_backend = Path_analysis.Portfolio) ?(verify = false) ?cancel program =
  if path_backend <> Path_analysis.Portfolio then
    invalid_arg "Analyzer.analyze: the portfolio is the only path analysis";
  Trace.with_span ~cat:"analyzer" "analyze" (fun () ->
      let r = analyze_inner ~hw ~annot ~domain ~verify ?cancel program in
      Trace.add_attr "nodes" (Trace.Int (Array.length r.graph.Supergraph.nodes));
      Trace.add_attr "loops" (Trace.Int (Array.length r.loops.Loops.loops));
      Trace.add_attr "wcet" (Trace.Int r.wcet);
      Trace.add_attr "verdict" (Trace.Str (verdict_name r.verdict));
      Metrics.incr (match r.verdict with Complete -> m_runs_complete | Partial -> m_runs_partial) 1;
      r)

let pp_hole ppf = function
  | Hole_call { site; func } ->
    Format.fprintf ppf "unresolved call at 0x%x in %s" site func
  | Hole_jump { site; func } ->
    Format.fprintf ppf "unresolved jump at 0x%x in %s" site func
  | Hole_loop { header; func; reason } ->
    Format.fprintf ppf "unbounded loop at 0x%x in %s (%s)" header func reason
  | Hole_irreducible { blocks; func } ->
    Format.fprintf ppf "irreducible region of %d blocks in %s" (List.length blocks) func

let pp_esc_gate ppf gate =
  List.iter
    (fun (f, d) -> Format.fprintf ppf "escalation gate: %s: %s@," f (esc_decision_reason d))
    gate

let esc_gate_to_json gate =
  let open Wcet_diag.Json in
  List
    (List.map
       (fun (f, d) ->
         Obj
           [
             ("func", String f);
             ("decision", String (esc_decision_name d));
             ("reason", String (esc_decision_reason d));
           ])
       gate)

let pp_report ppf a =
  (match a.an_verdict with
  | Complete ->
    Format.fprintf ppf "@[<v>WCET bound: %d cycles (best-case bound: %d)@," a.an_wcet a.an_bcet
  | Partial ->
    Format.fprintf ppf
      "@[<v>WCET bound: %d cycles — PARTIAL: conditional on %d analysis hole(s) (best-case \
       bound: %d)@,"
      a.an_wcet (List.length a.an_holes) a.an_bcet);
  Format.fprintf ppf "graph: %d nodes, %d contexts, %d loops@," a.an_nodes a.an_contexts
    a.an_loops;
  (match a.an_escalation with
  | None -> ()
  | Some e ->
    Format.fprintf ppf
      "octagon escalation: %d function(s), %d transfers, %d slot(s), %d loop(s) discharged, \
       %d access(es) tightened@,"
      (List.length e.ei_funcs) e.ei_transfers (List.length e.ei_slots)
      (List.length e.ei_discharged_loops)
      (List.length e.ei_tightened_accesses));
  (match a.an_backend_runs with
  | [] | [ _ ] -> ()
  | runs ->
    List.iter
      (fun b ->
        match b.br_bound with
        | Some bound ->
          Format.fprintf ppf "path backend %s: %d cycles, %.3f ms%s@," b.br_name bound
            (float_of_int b.br_wall_us /. 1000.)
            (if b.br_winner then " (tightest)" else "")
        | None ->
          let code = match b.br_error with Some (code, _) -> code | None -> "?" in
          Format.fprintf ppf "path backend %s: failed (%s), %.3f ms@," b.br_name code
            (float_of_int b.br_wall_us /. 1000.))
      runs);
  Format.fprintf ppf "mc gate: %s (%s)@," (mc_gate_decision a.an_mc_gate)
    (mc_gate_reason a.an_mc_gate);
  pp_esc_gate ppf a.an_esc_gate;
  List.iter (fun h -> Format.fprintf ppf "hole: %a@," pp_hole h) a.an_holes;
  List.iter
    (fun (header, func, b) -> Format.fprintf ppf "loop at 0x%x in %s: bound %d@," header func b)
    a.an_loop_bounds;
  if a.an_diagnostics <> [] then Format.fprintf ppf "%a@," Diag.pp_list a.an_diagnostics;
  List.iter
    (fun (phase, dt) -> Format.fprintf ppf "%s: %.1f ms@," (phase_name phase) (dt *. 1000.))
    a.an_phase_seconds;
  Format.fprintf ppf "@]"

let hole_to_json = function
  | Hole_call { site; func } ->
    Wcet_diag.Json.Obj
      [ ("kind", String "unresolved-call"); ("site", Int site); ("func", String func) ]
  | Hole_jump { site; func } ->
    Wcet_diag.Json.Obj
      [ ("kind", String "unresolved-jump"); ("site", Int site); ("func", String func) ]
  | Hole_loop { header; func; reason } ->
    Wcet_diag.Json.Obj
      [
        ("kind", String "unbounded-loop");
        ("header", Int header);
        ("func", String func);
        ("reason", String reason);
      ]
  | Hole_irreducible { blocks; func } ->
    Wcet_diag.Json.Obj
      [
        ("kind", String "irreducible-region");
        ("blocks", List (List.map (fun b -> Wcet_diag.Json.Int b) blocks));
        ("func", String func);
      ]

let mc_gate_to_json g =
  let open Wcet_diag.Json in
  Obj
    [
      ("decision", String (mc_gate_decision g));
      ("reason", String (mc_gate_reason g));
      ( "guards",
        List
          (List.map
             (fun { Modes.symbol; sites } ->
               Obj
                 [
                   ("symbol", String symbol);
                   ( "sites",
                     List
                       (List.map
                          (fun (a, f) -> Obj [ ("addr", Int a); ("func", String f) ])
                          sites) );
                 ])
             (match g with Mc_raced guards -> guards | Mc_gated -> [])) );
    ]

let report_to_json a =
  let open Wcet_diag.Json in
  Obj
    [
      ("wcet", Int a.an_wcet);
      ("bcet", Int a.an_bcet);
      ("verdict", String (verdict_name a.an_verdict));
      ("nodes", Int a.an_nodes);
      ("contexts", Int a.an_contexts);
      ("holes", List (List.map hole_to_json a.an_holes));
      ( "escalation",
        match (a.an_escalation, a.an_esc_gate) with
        | None, [] -> Null
        | None, gate -> Obj [ ("gate", esc_gate_to_json gate) ]
        | Some e, gate ->
          let aval_json v =
            match Aval.range v with
            | Some (lo, hi) -> Obj [ ("lo", Int lo); ("hi", Int hi) ]
            | None -> Null
          in
          Obj
            [
              ("gate", esc_gate_to_json gate);
              ("functions", List (List.map (fun f -> String f) e.ei_funcs));
              ("transfers", Int e.ei_transfers);
              ("slots", List (List.map (fun s -> Int s) e.ei_slots));
              ( "discharged_loops",
                List
                  (List.map
                     (fun (addr, func, cause) ->
                       Obj
                         [
                           ("header", Int addr); ("func", String func); ("cause", String cause);
                         ])
                     e.ei_discharged_loops) );
              ( "tightened_accesses",
                List
                  (List.map
                     (fun (addr, func, before, after) ->
                       Obj
                         [
                           ("addr", Int addr);
                           ("func", String func);
                           ("interval", aval_json before);
                           ("octagon", aval_json after);
                         ])
                     e.ei_tightened_accesses) );
            ] );
      ("diagnostics", List (List.map Diag.to_json a.an_diagnostics));
      ( "path_backends",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("name", String b.br_name);
                   ("bound", match b.br_bound with Some x -> Int x | None -> Null);
                   ( "error",
                     match b.br_error with
                     | Some (code, detail) ->
                       Obj [ ("code", String code); ("detail", String detail) ]
                     | None -> Null );
                   ("wall_us", Int b.br_wall_us);
                   ("winner", Bool b.br_winner);
                 ])
             a.an_backend_runs) );
      ("mc_gate", mc_gate_to_json a.an_mc_gate);
      ( "loops",
        List
          (List.map
             (fun (header, func, b) ->
               Obj [ ("header", Int header); ("func", String func); ("bound", Int b) ])
             a.an_loop_bounds) );
      ( "phases",
        List
          (List.map
             (fun (phase, dt) ->
               Obj [ ("name", String (phase_name phase)); ("seconds", Float dt) ])
             a.an_phase_seconds) );
    ]

let failure_to_json ds =
  let open Wcet_diag.Json in
  Obj
    [
      ("wcet", Null);
      ("verdict", String "failed");
      ("diagnostics", List (List.map Diag.to_json ds));
    ]
