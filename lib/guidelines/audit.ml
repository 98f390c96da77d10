module Diag = Wcet_diag.Diag
module Json = Wcet_diag.Json
module Analyzer = Wcet_core.Analyzer
module Supergraph = Wcet_cfg.Supergraph
module Loops = Wcet_cfg.Loops
module Func_cfg = Wcet_cfg.Func_cfg
module Analysis = Wcet_value.Analysis
module Loop_bounds = Wcet_value.Loop_bounds
module Aval = Wcet_value.Aval
module Modes = Wcet_value.Modes
module Annot = Wcet_annot.Annot
module Program = Pred32_asm.Program
module Memory_map = Pred32_memory.Memory_map
module Region = Pred32_memory.Region
module Block_timing = Wcet_pipeline.Block_timing
module Ipet = Wcet_ipet.Ipet
module Reg = Pred32_isa.Reg
module Metrics = Wcet_obs.Metrics

type tier = Tier1 | Tier2

type grade = Analyzable | Needs_annotations | Unanalyzable

type finding = {
  code : string;
  tier : tier;
  severity : Diag.severity;
  func : string option;
  addr : int option;
  section : string;
  message : string;
  suggestion : string option;
  rules : string list;
}

type t = {
  findings : finding list;
  per_function : (string * grade) list;
  grade : grade;
  failure : Diag.t list;
}

let tier_name = function Tier1 -> "tier-1" | Tier2 -> "tier-2"

let grade_name = function
  | Analyzable -> "analyzable"
  | Needs_annotations -> "needs-annotations"
  | Unanalyzable -> "unanalyzable"

let all_finding_codes =
  [
    "A0501"; "A0502"; "A0503"; "A0504"; "A0505"; "A0506"; "A0507"; "A0508"; "A0509";
    "A0510"; "A0511"; "A0512"; "A0513";
  ]

(* One counter per finding code, registered at module initialization like
   every other obs metric; [wcet_tool metrics] and the pinned-name test see
   them whether or not an audit ever runs. *)
let finding_counters =
  List.map
    (fun code ->
      ( code,
        Metrics.counter ~labels:[ ("code", code) ] ~name:"audit_findings"
          ~help:"Analyzability-audit findings emitted, by finding code" () ))
    all_finding_codes

let count_finding f =
  match List.assoc_opt f.code finding_counters with
  | Some c -> Metrics.incr c 1
  | None -> ()

let section_of_code = function
  | "A0501" | "A0502" -> "section 3 (function pointers)"
  | "A0503" | "A0504" -> "section 3 (function pointers / indirect branching)"
  | "A0505" -> "section 3 (input-data-dependent loops)"
  | "A0506" -> "section 4.2 (rule 13.6: loop structure)"
  | "A0507" -> "section 3 (irreducible loops; rules 14.4/20.7)"
  | "A0508" -> "section 4.3 (operating modes)"
  | "A0509" -> "section 4.3 (imprecise memory accesses)"
  | "A0510" -> "section 4.3 (error handling)"
  | "A0511" -> "section 4.4 (software arithmetic)"
  | "A0512" -> "section 4.2 (rule 14.1: semantically unreachable code)"
  | "A0513" -> "section 4.2 (rule 16.2: recursion)"
  | _ -> "sections 3-4"

let tier_of_code = function
  | "A0508" | "A0509" | "A0510" | "A0511" | "A0512" -> Tier2
  | _ -> Tier1

let finding ?func ?addr ?suggestion ?(rules = []) severity code message =
  {
    code;
    tier = tier_of_code code;
    severity;
    func;
    addr;
    section = section_of_code code;
    message;
    suggestion;
    rules;
  }

let findingf ?func ?addr ?suggestion ?rules severity code fmt =
  Format.kasprintf (fun message -> finding ?func ?addr ?suggestion ?rules severity code message) fmt

(* --- helpers over the report --- *)

let is_runtime_func = Checker.is_runtime_func

let node_func (g : Supergraph.t) nid = g.Supergraph.nodes.(nid).Supergraph.func

let block_entry (g : Supergraph.t) nid =
  g.Supergraph.nodes.(nid).Supergraph.block.Func_cfg.entry

let terminator_addr (n : Supergraph.node) =
  let insns = n.Supergraph.block.Func_cfg.insns in
  fst insns.(Array.length insns - 1)

(* --- tier-1: indirect calls and jumps (Section 3, function pointers) --- *)

let audit_indirect_calls (r : Analyzer.report) (annot : Annot.t) =
  let g = r.Analyzer.graph in
  let unresolved = List.sort_uniq compare (List.map snd g.Supergraph.unresolved_calls) in
  (* Group the graph's indirect call sites: context expansion gives several
     nodes per physical site. *)
  let sites = Hashtbl.create 8 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match n.Supergraph.block.Func_cfg.term with
      | Func_cfg.Term_call_indirect { site; _ } ->
        let targets =
          List.filter_map
            (function
              | Supergraph.Ecall, d -> Some (node_func g d)
              | _ -> None)
            n.Supergraph.succs
        in
        let prev = try Hashtbl.find sites site with Not_found -> (n.Supergraph.func, []) in
        Hashtbl.replace sites site (fst prev, List.sort_uniq compare (targets @ snd prev))
      | _ -> ())
    g.Supergraph.nodes;
  Hashtbl.fold
    (fun site (func, targets) acc ->
      if List.mem site unresolved then
        findingf ~func ~addr:site
          ~suggestion:(Printf.sprintf "calltargets at 0x%x = <function>, <function>" site)
          Diag.Warning "A0501"
          "indirect call cannot be resolved; the callee's cost is excluded from any bound"
        :: acc
      else
        let how =
          if List.mem_assoc site annot.Annot.call_targets then "calltargets annotation"
          else "value analysis"
        in
        findingf ~func ~addr:site Diag.Info "A0502"
          "indirect call resolved by %s (targets: %s)" how
          (String.concat ", " targets)
        :: acc)
    sites []

let audit_indirect_jumps (r : Analyzer.report) =
  let g = r.Analyzer.graph in
  let resolved = Hashtbl.create 4 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match n.Supergraph.block.Func_cfg.term with
      | Func_cfg.Term_jump_indirect { site; _ }
        when not (List.mem site g.Supergraph.unresolved_jumps) ->
        let conts =
          List.filter_map
            (function Supergraph.Eindirect, d -> Some (block_entry g d) | _ -> None)
            n.Supergraph.succs
        in
        let prev = try Hashtbl.find resolved site with Not_found -> (n.Supergraph.func, []) in
        Hashtbl.replace resolved site (fst prev, List.sort_uniq compare (conts @ snd prev))
      | _ -> ())
    g.Supergraph.nodes;
  let unresolved =
    List.map
      (fun site ->
        let func =
          match Program.function_at r.Analyzer.program site with
          | Some f -> f.Program.name
          | None -> "?"
        in
        findingf ~func ~addr:site
          ~suggestion:"setjmp auto   # if the jump implements longjmp" Diag.Error "A0503"
          "indirect jump cannot be resolved: execution beyond it is outside any bound, and no \
           annotation supplies jump targets")
      (List.sort_uniq compare g.Supergraph.unresolved_jumps)
  in
  Hashtbl.fold
    (fun site (func, conts) acc ->
      findingf ~func ~addr:site Diag.Info "A0504"
        "indirect jump resolved to %d continuation(s): %s" (List.length conts)
        (String.concat ", " (List.map (Printf.sprintf "0x%x") conts))
      :: acc)
    resolved unresolved

(* --- tier-1: loop-bound provenance (input data vs. structure) --- *)

let audit_loops (r : Analyzer.report) =
  let g = r.Analyzer.graph in
  let loops = r.Analyzer.loops in
  let out = ref [] in
  Array.iteri
    (fun li verdict ->
      match verdict with
      | Loop_bounds.Bounded _ -> ()
      | Loop_bounds.Unbounded (cause, reason) ->
        let header = loops.Loops.loops.(li).Loops.header in
        if Analysis.reachable r.Analyzer.value header then begin
          let func = node_func g header in
          let addr = block_entry g header in
          (* [unbounded_loops] keeps exactly the loops left undischarged by
             annotations (the analyzer's W0302 holes). *)
          let open_hole = List.mem_assoc li r.Analyzer.unbounded_loops in
          let severity = if open_hole then Diag.Warning else Diag.Info in
          let suggestion =
            if open_hole then Some (Printf.sprintf "loop at 0x%x bound <N>" addr) else None
          in
          let discharged = if open_hole then "" else "; discharged by a loop-bound annotation" in
          match cause with
          | Loop_bounds.Unreachable_entry -> ()
          | Loop_bounds.Input_dependent ->
            out :=
              findingf ~func ~addr ?suggestion severity "A0505"
                "loop bound depends on unconstrained input data (%s)%s" reason discharged
              :: !out
          | Loop_bounds.Irregular_counter | Loop_bounds.Aliased_counter ->
            out :=
              findingf ~func ~addr ?suggestion ~rules:[ "13.6" ] severity "A0506"
                "loop structure defeats automatic bounding: %s%s" reason discharged
              :: !out
          | Loop_bounds.Structural ->
            out :=
              findingf ~func ~addr ?suggestion severity "A0506"
                "loop structure defeats automatic bounding: %s%s" reason discharged
              :: !out
        end)
    r.Analyzer.derived_bounds.Loop_bounds.per_loop;
  !out

(* --- tier-1: irreducible regions --- *)

let audit_irreducible (r : Analyzer.report) (annot : Annot.t) =
  let g = r.Analyzer.graph in
  List.map
    (fun scc ->
      let addrs = List.sort_uniq compare (List.map (block_entry g) scc) in
      let funcs = List.sort_uniq compare (List.map (node_func g) scc) in
      let covered =
        List.exists
          (function
            | Annot.Max_count (Annot.At_addr a, _) -> List.mem a addrs
            | Annot.Max_count (Annot.In_function f, _) -> List.mem f funcs
            | Annot.Exclusive _ -> false)
          annot.Annot.flow_facts
        || List.exists
             (function Annot.At_addr a, _ -> List.mem a addrs | _ -> false)
             annot.Annot.loop_bounds
      in
      let addr = List.hd addrs in
      let func = List.hd funcs in
      if covered then
        findingf ~func ~addr ~rules:[ "14.4"; "20.7" ] Diag.Info "A0507"
          "irreducible region (%d blocks) bounded by user flow facts" (List.length addrs)
      else
        findingf ~func ~addr
          ~suggestion:(Printf.sprintf "maxcount at 0x%x <= <passes>" addr)
          ~rules:[ "14.4"; "20.7" ] Diag.Error "A0507"
          "irreducible region (%d blocks: %s) has no automatic bound; without covering flow \
           facts the analysis is limited to one pass per block"
          (List.length addrs)
          (String.concat ", " (List.map (Printf.sprintf "0x%x") addrs)))
    r.Analyzer.loops.Loops.irreducible

(* --- tier-1: recursion in the binary call graph --- *)

let audit_recursion (r : Analyzer.report) (annot : Annot.t) =
  let g = r.Analyzer.graph in
  let program = r.Analyzer.program in
  let edges = Hashtbl.create 16 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match n.Supergraph.block.Func_cfg.term with
      | Func_cfg.Term_call { target; _ } -> (
        match Program.function_at program target with
        | Some f ->
          let callees = try Hashtbl.find edges n.Supergraph.func with Not_found -> [] in
          if not (List.mem f.Program.name callees) then
            Hashtbl.replace edges n.Supergraph.func (f.Program.name :: callees)
        | None -> ())
      | _ -> ())
    g.Supergraph.nodes;
  let callees f = try Hashtbl.find edges f with Not_found -> [] in
  let can_reach_itself name =
    let visited = Hashtbl.create 16 in
    let rec go f =
      if not (Hashtbl.mem visited f) then begin
        Hashtbl.add visited f ();
        List.iter go (callees f)
      end
    in
    List.iter go (callees name);
    Hashtbl.mem visited name
  in
  let funcs = List.sort_uniq compare (Hashtbl.fold (fun f _ acc -> f :: acc) edges []) in
  List.filter_map
    (fun f ->
      if is_runtime_func f || not (can_reach_itself f) then None
      else
        let entry =
          match Program.find_function program f with
          | Some fi -> Some fi.Program.entry
          | None -> None
        in
        if List.mem_assoc f annot.Annot.recursion_depths then
          Some
            (findingf ~func:f ?addr:entry ~rules:[ "16.2" ] Diag.Info "A0513"
               "recursive function; depth bounded by annotation (virtual unrolling to depth %d)"
               (List.assoc f annot.Annot.recursion_depths))
        else
          Some
            (findingf ~func:f ?addr:entry
               ~suggestion:(Printf.sprintf "recursion %s depth <N>" f)
               ~rules:[ "16.2" ] Diag.Warning "A0513"
               "function can call itself (directly or indirectly); recursion needs a depth \
                annotation"))
    funcs

(* --- tier-2: operating-mode structure (Section 4.3) --- *)

(* Mode guards ([Wcet_value.Modes]): never-written globals tested by
   branches outside loops at two or more sites or at a dispatch. The path
   phase races the model checker on the same guards. *)
let audit_modes (r : Analyzer.report) (annot : Annot.t) =
  List.map
    (fun { Modes.symbol = sym; sites } ->
      let addr, func = List.hd sites in
      let pinned = List.exists (fun (s, lo, hi) -> s = sym && lo = hi) annot.Annot.assumes in
      if pinned then
        findingf ~func ~addr Diag.Info "A0508"
          "operating-mode variable '%s' guards %d branch sites; mode pinned by an assume \
           annotation (per-mode analysis)"
          sym (List.length sites)
      else
        findingf ~func ~addr
          ~suggestion:(Printf.sprintf "assume %s = <mode>" sym)
          Diag.Warning "A0508"
          "operating-mode structure: never-written global '%s' guards %d branch sites \
           (0x%s); a mode-oblivious analysis sums mutually exclusive paths"
          sym (List.length sites)
          (String.concat ", 0x" (List.map (fun (a, _) -> Printf.sprintf "%x" a) sites)))
    (Modes.guards r.Analyzer.program r.Analyzer.loops r.Analyzer.value)

(* --- tier-2: imprecise memory accesses --- *)

let audit_memory (r : Analyzer.report) (annot : Annot.t) =
  let v = r.Analyzer.value in
  let program = r.Analyzer.program in
  let map = program.Program.map in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun accs ->
      List.iter
        (fun (acc : Analysis.access) ->
          if not (Hashtbl.mem seen acc.Analysis.insn_addr) then
            match Analysis.regions_spanned map acc.Analysis.addr with
            | None -> ()
            | Some hit ->
              let func =
                match Program.function_at program acc.Analysis.insn_addr with
                | Some f -> f.Program.name
                | None -> "?"
              in
              if not (is_runtime_func func) then
                Hashtbl.replace seen acc.Analysis.insn_addr
                  (func, acc.Analysis.is_store, acc.Analysis.addr, hit))
        accs)
    v.Analysis.accesses;
  Hashtbl.fold
    (fun insn_addr (func, is_store, aval, hit) acc ->
      let names = String.concat ", " (List.map (fun (rg : Region.t) -> rg.Region.name) hit) in
      let kind = if is_store then "store" else "load" in
      let ival =
        match aval with
        | Aval.Top -> "unknown (Top)"
        | Aval.I (lo, hi) -> Printf.sprintf "[0x%x, 0x%x]" lo hi
        | Aval.Bot -> "bottom"
      in
      let annotated = List.mem_assoc func annot.Annot.memory_regions in
      if annotated then
        findingf ~func ~addr:insn_addr Diag.Info "A0509"
          "imprecise %s address %s narrowed by a memory annotation" kind ival
        :: acc
      else
        findingf ~func ~addr:insn_addr
          ~suggestion:(Printf.sprintf "memory %s = <region>" func)
          Diag.Warning "A0509"
          "imprecise %s: address interval %s spans %d memory regions (%s); the access is \
           charged the slowest candidate latency"
          kind ival (List.length hit) names
        :: acc)
    seen []

(* --- tier-2: error handling on the critical path --- *)

let audit_error_handling (r : Analyzer.report) (annot : Annot.t) coverage =
  let g = r.Analyzer.graph in
  let counts = r.Analyzer.solution.Ipet.node_counts in
  let times = r.Analyzer.timing.Block_timing.wcet in
  let total = max 1 r.Analyzer.wcet in
  let contrib = Hashtbl.create 8 in
  Array.iteri
    (fun i (n : Supergraph.node) ->
      if
        i < Array.length counts
        && counts.(i) > 0
        && (not (is_runtime_func n.Supergraph.func))
        && coverage n.Supergraph.block.Func_cfg.entry = 0
      then begin
        let cycles, addrs =
          try Hashtbl.find contrib n.Supergraph.func with Not_found -> (0, [])
        in
        Hashtbl.replace contrib n.Supergraph.func
          ( cycles + (counts.(i) * times.(i)),
            if List.mem n.Supergraph.block.Func_cfg.entry addrs then addrs
            else n.Supergraph.block.Func_cfg.entry :: addrs )
      end)
    g.Supergraph.nodes;
  Hashtbl.fold
    (fun func (cycles, addrs) acc ->
      let share = 100 * cycles / total in
      if share < 5 then acc
      else
        let addrs = List.sort compare addrs in
        let covered =
          List.exists
            (function
              | Annot.Max_count (Annot.In_function f, _) -> f = func
              | Annot.Max_count (Annot.At_addr a, _) -> List.mem a addrs
              | Annot.Exclusive _ -> false)
            annot.Annot.flow_facts
        in
        if covered then
          findingf ~func ~addr:(List.hd addrs) Diag.Info "A0510"
            "sim-unreached blocks contribute %d%% of the bound; execution counts limited by a \
             flow fact"
            share
          :: acc
        else
          findingf ~func ~addr:(List.hd addrs)
            ~suggestion:(Printf.sprintf "maxcount %s <= <count>" func)
            Diag.Warning "A0510"
            "%d block(s) on the worst-case path (%d%% of the bound) never executed in the \
             nominal simulation — likely error handling; a maxcount flow fact would tighten \
             the bound"
            (List.length addrs) share
          :: acc)
    contrib []

(* --- tier-2: software arithmetic (Section 4.4) --- *)

let soft_prefixes = [ "__udiv"; "__urem"; "__ediv"; "__f_" ]

let is_softarith name = List.exists (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p) soft_prefixes

let audit_softarith (r : Analyzer.report) =
  let g = r.Analyzer.graph in
  let loops = r.Analyzer.loops in
  let program = r.Analyzer.program in
  (* call sites into the runtime, grouped per callee *)
  let calls = Hashtbl.create 8 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match n.Supergraph.block.Func_cfg.term with
      | Func_cfg.Term_call { target; _ } -> (
        match Program.function_at program target with
        | Some f when is_softarith f.Program.name && not (is_runtime_func n.Supergraph.func) ->
          let site = terminator_addr n in
          let prev = try Hashtbl.find calls f.Program.name with Not_found -> [] in
          if not (List.mem site prev) then Hashtbl.replace calls f.Program.name (site :: prev)
        | _ -> ())
      | _ -> ())
    g.Supergraph.nodes;
  (* iteration-bound status of the routine's loops, including the runtime
     helpers it calls (e.g. __udiv32 is a straight-line wrapper around the
     iterating __udivmod32) *)
  let runtime_callees = Hashtbl.create 8 in
  Array.iter
    (fun (n : Supergraph.node) ->
      if is_runtime_func n.Supergraph.func then
        match n.Supergraph.block.Func_cfg.term with
        | Func_cfg.Term_call { target; _ } -> (
          match Program.function_at program target with
          | Some f ->
            let prev =
              try Hashtbl.find runtime_callees n.Supergraph.func with Not_found -> []
            in
            if not (List.mem f.Program.name prev) then
              Hashtbl.replace runtime_callees n.Supergraph.func (f.Program.name :: prev)
          | None -> ())
        | _ -> ())
    g.Supergraph.nodes;
  let closure name =
    let seen = Hashtbl.create 8 in
    let rec go f =
      if not (Hashtbl.mem seen f) then begin
        Hashtbl.add seen f ();
        List.iter go (try Hashtbl.find runtime_callees f with Not_found -> [])
      end
    in
    go name;
    seen
  in
  let callee_loops name =
    let members = closure name in
    let out = ref [] in
    Array.iteri
      (fun li (l : Loops.loop) ->
        if Hashtbl.mem members (node_func g l.Loops.header) then out := li :: !out)
      loops.Loops.loops;
    !out
  in
  Hashtbl.fold
    (fun callee sites acc ->
      let rules = if String.length callee >= 4 && String.sub callee 0 4 = "__f_" then [ "13.4" ] else [] in
      let lis = callee_loops callee in
      let unbounded =
        List.filter (fun li -> List.mem_assoc li r.Analyzer.unbounded_loops) lis
      in
      let site = List.fold_left min max_int sites in
      if unbounded <> [] then
        let owner = node_func g loops.Loops.loops.(List.hd unbounded).Loops.header in
        findingf ~func:callee ~addr:site
          ~suggestion:(Printf.sprintf "loop in %s bound <N>" owner)
          ~rules Diag.Warning "A0511"
          "software-arithmetic routine called from %d site(s) has %d unbounded iteration \
           loop(s); its cost is excluded until annotated"
          (List.length sites) (List.length unbounded)
        :: acc
      else
        findingf ~func:callee ~addr:site ~rules Diag.Info "A0511"
          "software-arithmetic routine called from %d site(s); %s"
          (List.length sites)
          (if lis = [] then "straight-line (no iteration loops)"
           else Printf.sprintf "all %d iteration loop(s) bounded" (List.length lis))
        :: acc)
    calls []

(* --- tier-2: semantically unreachable code (rule 14.1's semantic variant) --- *)

let audit_unreachable (r : Analyzer.report) =
  let g = r.Analyzer.graph in
  let v = r.Analyzer.value in
  let program = r.Analyzer.program in
  (* Skip functions degraded by unresolved jumps: their tails are
     unreachable because of the hole, not provably dead code. *)
  let degraded_funcs =
    List.filter_map
      (fun site ->
        match Program.function_at program site with
        | Some f -> Some f.Program.name
        | None -> None)
      g.Supergraph.unresolved_jumps
  in
  (* A block is semantically unreachable only if no context reaches it. *)
  let status = Hashtbl.create 32 in
  Array.iter
    (fun (n : Supergraph.node) ->
      let key = (n.Supergraph.func, n.Supergraph.block.Func_cfg.entry) in
      let reached = v.Analysis.node_in.(n.Supergraph.id) <> None in
      let prev = try Hashtbl.find status key with Not_found -> false in
      Hashtbl.replace status key (prev || reached))
    g.Supergraph.nodes;
  let block_findings =
    Hashtbl.fold
      (fun (func, addr) reached acc ->
        if reached || is_runtime_func func || List.mem func degraded_funcs then acc
        else
          findingf ~func ~addr ~rules:[ "14.1" ] Diag.Info "A0512"
            "block is semantically unreachable: the value analysis proves no execution enters \
             it (infeasible path or excluded mode)"
          :: acc)
      status []
  in
  (* Edge-level variant: a conditional arm pruned by branch refinement in
     every context, between blocks that are otherwise live — the branch
     outcome is statically decided even though both blocks execute. *)
  let edge_status = Hashtbl.create 16 in
  Array.iter
    (fun (n : Supergraph.node) ->
      if v.Analysis.node_in.(n.Supergraph.id) <> None then begin
        let feasible = Analysis.feasible_successors v n.Supergraph.id in
        List.iter
          (fun (kind, tgt) ->
            match kind with
            | Supergraph.Etaken | Supergraph.Enottaken ->
              let tgt_live =
                try Hashtbl.find status (node_func g tgt, block_entry g tgt)
                with Not_found -> false
              in
              if tgt_live then begin
                let key = (n.Supergraph.func, terminator_addr n, kind = Supergraph.Etaken) in
                let live_edge = List.exists (fun (k, t) -> k = kind && t = tgt) feasible in
                let prev = try Hashtbl.find edge_status key with Not_found -> false in
                Hashtbl.replace edge_status key (prev || live_edge)
              end
            | _ -> ())
          n.Supergraph.succs
      end)
    g.Supergraph.nodes;
  let edge_findings =
    Hashtbl.fold
      (fun (func, addr, taken) live acc ->
        if live || is_runtime_func func || List.mem func degraded_funcs then acc
        else
          findingf ~func ~addr ~rules:[ "14.1" ] Diag.Info "A0512"
            "the %s arm of this branch is semantically infeasible: the value analysis proves \
             it is never followed"
            (if taken then "taken" else "fall-through")
          :: acc)
      edge_status []
  in
  edge_findings @ block_findings

(* --- octagon discharges: interval-pass findings the relational pass
   resolved. The refined report no longer produces the original A0505/A0509
   warnings at all; these Info findings record that they existed and what
   discharged them, so a precision gate can assert the discharge. --- *)

let audit_octagon_discharges (r : Analyzer.report) =
  match r.Analyzer.escalation with
  | None -> []
  | Some e ->
    let map = r.Analyzer.program.Program.map in
    let regions_spanned = function
      | Aval.Top ->
        List.length
          (List.filter
             (fun (rg : Region.t) -> rg.Region.kind <> Region.Rom)
             (Memory_map.regions map))
      | Aval.Bot -> 0
      | Aval.I (lo, hi) ->
        List.length
          (List.filter
             (fun (rg : Region.t) -> rg.Region.base <= hi && lo < Region.limit rg)
             (Memory_map.regions map))
    in
    let loop_findings =
      List.filter_map
        (fun (addr, func, cause) ->
          if is_runtime_func func then None
          else
            let code = if cause = "input-dependent" then "A0505" else "A0506" in
            Some
              (findingf ~func ~addr Diag.Info code
                 "loop bound was %s under the interval domain; discharged-by: octagon" cause))
        e.Analyzer.ei_discharged_loops
    in
    let access_findings =
      List.filter_map
        (fun (addr, func, before, after) ->
          if is_runtime_func func then None
          else if regions_spanned before >= 2 && regions_spanned after <= 1 then
            let pp_aval = function
              | Aval.Top -> "unknown (Top)"
              | Aval.I (lo, hi) -> Printf.sprintf "[0x%x, 0x%x]" lo hi
              | Aval.Bot -> "bottom"
            in
            Some
              (findingf ~func ~addr Diag.Info "A0509"
                 "access address narrowed from %s to %s by the relational pass; discharged-by: \
                  octagon"
                 (pp_aval before) (pp_aval after))
          else None)
        e.Analyzer.ei_tightened_accesses
    in
    loop_findings @ access_findings

(* --- MISRA bridging --- *)

let rule_code = function
  | Checker.R13_4 -> "M1304"
  | Checker.R13_6 -> "M1306"
  | Checker.R14_1 -> "M1401"
  | Checker.R14_4 -> "M1404"
  | Checker.R14_5 -> "M1405"
  | Checker.R16_1 -> "M1601"
  | Checker.R16_2 -> "M1602"
  | Checker.R20_4 -> "M2004"
  | Checker.R20_7 -> "M2007"

let violation_to_diag (v : Checker.violation) =
  Diag.makef Diag.Warning Diag.Audit ~code:(rule_code v.Checker.rule)
    ~loc:(Diag.in_func v.Checker.func)
    ~hint:(Checker.wcet_impact v.Checker.rule)
    "rule %s: %s"
    (Checker.rule_name v.Checker.rule)
    v.Checker.message

(* Cross-reference binary-level findings with source-level violations: a
   13.6 finding in [f] is confirmed when the checker also flagged 13.6 in
   [f] — the paper's point that the source rule predicts the binary-level
   analysis failure. *)
let crossref misra f =
  match misra with
  | [] -> f
  | vs ->
    let confirming =
      List.filter
        (fun (v : Checker.violation) ->
          List.mem (Checker.rule_name v.Checker.rule) f.rules
          && match f.func with Some fn -> fn = v.Checker.func | None -> true)
        vs
    in
    if confirming = [] then f
    else
      let rules =
        List.sort_uniq compare
          (List.map (fun (v : Checker.violation) -> Checker.rule_name v.Checker.rule) confirming)
      in
      {
        f with
        message =
          Printf.sprintf "%s [confirms source-level MISRA %s violation]" f.message
            (String.concat ", " rules);
      }

(* --- aggregation --- *)

let grade_of_findings fs =
  if List.exists (fun f -> f.severity = Diag.Error) fs then Unanalyzable
  else if List.exists (fun f -> f.severity = Diag.Warning) fs then Needs_annotations
  else Analyzable

let order_findings fs =
  List.sort
    (fun a b ->
      compare (a.code, a.addr, a.func, a.message) (b.code, b.addr, b.func, b.message))
    fs

let aggregate (g : Supergraph.t) findings failure =
  let funcs =
    Array.to_list g.Supergraph.nodes
    |> List.map (fun (n : Supergraph.node) -> n.Supergraph.func)
    |> List.filter (fun f -> not (is_runtime_func f))
    |> List.sort_uniq compare
  in
  let per_function =
    List.map
      (fun fn -> (fn, grade_of_findings (List.filter (fun f -> f.func = Some fn) findings)))
      funcs
  in
  let findings = order_findings findings in
  List.iter count_finding findings;
  { findings; per_function; grade = grade_of_findings findings; failure }

let of_report ?(misra = []) ?(annot = Annot.empty) ?coverage (r : Analyzer.report) =
  let findings =
    audit_indirect_calls r annot @ audit_indirect_jumps r @ audit_loops r
    @ audit_irreducible r annot @ audit_recursion r annot @ audit_modes r annot
    @ audit_memory r annot
    @ (match coverage with Some c -> audit_error_handling r annot c | None -> [])
    @ audit_softarith r @ audit_unreachable r @ audit_octagon_discharges r
  in
  let findings = List.map (crossref misra) findings in
  aggregate r.Analyzer.graph findings []

let of_failure diags =
  let findings =
    List.filter_map
      (fun (d : Diag.t) ->
        if d.Diag.code = "E0202" then
          Some
            (finding ?func:d.Diag.loc.Diag.func ?addr:d.Diag.loc.Diag.addr
               ?suggestion:d.Diag.hint ~rules:[ "16.2" ] Diag.Error "A0513"
               "unannotated recursion: the analysis cannot virtually unroll the call graph")
        else None)
      diags
  in
  let findings = order_findings findings in
  List.iter count_finding findings;
  { findings; per_function = []; grade = Unanalyzable; failure = diags }

(* --- rendering --- *)

let to_diag f =
  let loc =
    match (f.addr, f.func) with
    | Some a, _ -> Diag.at_addr ?func:f.func a
    | None, Some fn -> Diag.in_func fn
    | None, None -> Diag.no_loc
  in
  Diag.make ?hint:f.suggestion ~loc f.severity Diag.Audit ~code:f.code f.message

let finding_to_json f =
  match Diag.to_json (to_diag f) with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [
          ("tier", Json.String (tier_name f.tier));
          ("section", Json.String f.section);
          ("rules", Json.List (List.map (fun r -> Json.String r) f.rules));
        ])
  | j -> j

let to_json t =
  Json.Obj
    [
      ("grade", Json.String (grade_name t.grade));
      ( "per_function",
        Json.Obj (List.map (fun (fn, g) -> (fn, Json.String (grade_name g))) t.per_function) );
      ("findings", Json.List (List.map finding_to_json t.findings));
      ("failure", Json.List (List.map Diag.to_json t.failure));
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>predictability: %s@," (grade_name t.grade);
  List.iter
    (fun (fn, g) -> Format.fprintf ppf "  %s: %s@," fn (grade_name g))
    t.per_function;
  if t.failure <> [] then begin
    Format.fprintf ppf "analysis failed:@,";
    List.iter (fun d -> Format.fprintf ppf "  %a@," Diag.pp d) t.failure
  end;
  let count tier = List.length (List.filter (fun f -> f.tier = tier) t.findings) in
  Format.fprintf ppf "findings: %d tier-1, %d tier-2@," (count Tier1) (count Tier2);
  List.iter
    (fun f ->
      Format.fprintf ppf "%a@,    paper: %s" Diag.pp (to_diag f) f.section;
      if f.rules <> [] then
        Format.fprintf ppf "; cross-ref MISRA %s" (String.concat ", " f.rules);
      Format.fprintf ppf "@,")
    t.findings;
  Format.fprintf ppf "@]"

let emit_dot ppf (r : Analyzer.report) t =
  let g = r.Analyzer.graph in
  let worst_at addr =
    List.fold_left
      (fun acc f ->
        if f.addr = Some addr then
          match (acc, f.severity) with
          | Some Diag.Error, _ | _, Diag.Error -> Some Diag.Error
          | Some Diag.Warning, _ | _, Diag.Warning -> Some Diag.Warning
          | _ -> Some Diag.Info
        else acc)
      None t.findings
  in
  let codes_at addr =
    List.sort_uniq compare
      (List.filter_map (fun f -> if f.addr = Some addr then Some f.code else None) t.findings)
  in
  Format.fprintf ppf "digraph audit {@.";
  Format.fprintf ppf "  node [shape=box,fontname=\"monospace\"];@.";
  Array.iter
    (fun (n : Supergraph.node) ->
      let entry = n.Supergraph.block.Func_cfg.entry in
      (* findings anchor either at the block entry or at its terminator *)
      let term = terminator_addr n in
      let sev = match worst_at entry with None -> worst_at term | s -> s in
      let codes = List.sort_uniq compare (codes_at entry @ codes_at term) in
      let attrs =
        match sev with
        | Some Diag.Error -> ",style=filled,fillcolor=firebrick,fontcolor=white"
        | Some Diag.Warning -> ",style=filled,fillcolor=orange"
        | Some Diag.Info -> ",style=filled,fillcolor=lightblue"
        | None -> ""
      in
      let label_codes = if codes = [] then "" else "\\n" ^ String.concat " " codes in
      Format.fprintf ppf "  n%d [label=\"%s@@0x%x%s\"%s];@." n.Supergraph.id n.Supergraph.func
        entry label_codes attrs)
    g.Supergraph.nodes;
  Array.iter
    (fun (n : Supergraph.node) ->
      List.iter
        (fun (_, dst) -> Format.fprintf ppf "  n%d -> n%d;@." n.Supergraph.id dst)
        n.Supergraph.succs)
    g.Supergraph.nodes;
  Format.fprintf ppf "}@."
