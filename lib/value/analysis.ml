module Insn = Pred32_isa.Insn
module Reg = Pred32_isa.Reg
module Program = Pred32_asm.Program
module Memory_map = Pred32_memory.Memory_map
module Region = Pred32_memory.Region
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops

module Metrics = Wcet_obs.Metrics

(* Fixpoint.Make lives below Wcet_obs in the dependency order, so the engine
   returns its statistics in the result record and each analysis publishes
   them under its own label. *)
let m_transfers =
  Metrics.counter ~labels:[ ("analysis", "value") ] ~name:"fixpoint_transfers"
    ~help:"Transfer-function applications until the value fixpoint" ()

let m_widenings =
  Metrics.counter ~labels:[ ("analysis", "value") ] ~name:"fixpoint_widenings"
    ~help:"State merges that used widening in the value analysis" ()

let m_joins =
  Metrics.counter ~labels:[ ("analysis", "value") ] ~name:"fixpoint_joins"
    ~help:"State merges that used join in the value analysis" ()

let m_worklist_peak =
  Metrics.gauge ~labels:[ ("analysis", "value") ] ~name:"fixpoint_worklist_peak"
    ~help:"Peak worklist occupancy of the value fixpoint" ()

let m_access precision =
  Metrics.counter ~labels:[ ("precision", precision) ] ~name:"value_accesses"
    ~help:("Memory accesses whose address resolved to " ^ precision) ()

let m_access_exact = m_access "exact"
let m_access_interval = m_access "interval"
let m_access_unknown = m_access "unknown"

type access = { insn_index : int; insn_addr : int; is_store : bool; addr : Aval.t }

type result = {
  graph : Supergraph.t;
  node_in : State.t option array;
  node_out : State.t option array;
  accesses : access list array;
  transfers : int;
}

(* Ranges wider than this many bytes are not enumerated for weak updates;
   the write becomes a full havoc (the paper's imprecise-access damage). *)
let weak_update_limit_bytes = 4096

let eval_alu op a b =
  match op with
  | Insn.Add -> Aval.add a b
  | Insn.Sub -> Aval.sub a b
  | Insn.Mul -> Aval.mul a b
  | Insn.Divu -> Aval.divu a b
  | Insn.Remu -> Aval.remu a b
  | Insn.And -> Aval.logand a b
  | Insn.Or -> Aval.logor a b
  | Insn.Xor -> Aval.logxor a b
  | Insn.Shl -> Aval.shl a b
  | Insn.Shr -> Aval.shr a b
  | Insn.Sra -> Aval.sra a b
  | Insn.Slt -> Aval.slt a b
  | Insn.Sltu -> Aval.sltu a b

(* Frame-linkage bookkeeping: one chronological table per analysis, so a
   store sees every registration transferred before it. *)
type ctx = {
  program : Program.t;
  is_linkage : int -> bool;
  register_linkage : int -> unit;
  mutable record : (int -> int -> bool -> Aval.t -> unit) option;
}

let chronological_ctx program =
  let linkage : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  {
    program;
    is_linkage = Hashtbl.mem linkage;
    register_linkage = (fun a -> Hashtbl.replace linkage a ());
    record = None;
  }

let is_linkage ctx a = ctx.is_linkage a

let trackable ctx addr =
  match Memory_map.find ctx.program.Program.map addr with
  | Some r -> (
    match r.Region.kind with
    | Region.Ram | Region.Scratchpad -> true
    | Region.Rom | Region.Io -> false)
  | None -> false

let aligned_addrs lo hi =
  let start = (lo + 3) land lnot 3 in
  let rec go a acc = if a > hi then List.rev acc else go (a + 4) (a :: acc) in
  go start []

let transfer_insn ctx st index (addr, insn) =
  let get r = State.get_reg st r in
  let record is_store av =
    match ctx.record with
    | Some f -> f index addr is_store av
    | None -> ()
  in
  match insn with
  | Insn.Alu (op, rd, rs1, rs2) -> State.set_reg st rd (eval_alu op (get rs1) (get rs2))
  | Insn.Alui (op, rd, rs1, imm) ->
    State.set_reg st rd (eval_alu op (get rs1) (Aval.of_signed_const imm))
  | Insn.Lui (rd, imm) -> State.set_reg st rd (Aval.const (imm lsl 16))
  | Insn.Load (rd, rs1, imm) -> (
    let av = Aval.add (get rs1) (Aval.of_signed_const imm) in
    record false av;
    match Aval.singleton av with
    | Some a when a land 3 = 0 ->
      let v = State.load ~program:ctx.program st a in
      (* I/O reads are volatile: never carry a tracked value. *)
      if trackable ctx a || Option.is_some (Aval.singleton v) then
        State.set_reg_origin st rd v ~origin:a
      else State.set_reg st rd v
    | Some _ -> State.set_reg st rd Aval.top
    | None -> (
      match Aval.range av with
      | Some (lo, hi) when hi - lo <= weak_update_limit_bytes ->
        let v =
          List.fold_left
            (fun acc a -> Aval.join acc (State.load ~program:ctx.program st a))
            Aval.bot (aligned_addrs lo hi)
        in
        State.set_reg st rd v
      | Some _ | None -> State.set_reg st rd Aval.top))
  | Insn.Store (rs2, rs1, imm) -> (
    let av = Aval.add (get rs1) (Aval.of_signed_const imm) in
    record true av;
    let v = get rs2 in
    (* Frame-linkage bookkeeping: prologue saves of lr/fp relative to sp. *)
    (match (Aval.singleton av, ()) with
    | Some a, () when (Reg.equal rs2 Reg.lr || Reg.equal rs2 Reg.fp) && Reg.equal rs1 Reg.sp ->
      ctx.register_linkage a
    | _ -> ());
    match Aval.singleton av with
    | Some a when a land 3 = 0 ->
      if trackable ctx a then State.store ~linkage:(is_linkage ctx) st a v else st
    | Some _ -> st
    | None -> (
      match Aval.range av with
      | Some (lo, hi) when hi - lo <= weak_update_limit_bytes ->
        let addrs = List.filter (trackable ctx) (aligned_addrs lo hi) in
        State.store_weak ~linkage:(is_linkage ctx) st addrs v
      | Some _ | None -> State.havoc ~linkage:(is_linkage ctx) st))
  | Insn.Branch _ | Insn.Jump _ | Insn.Jump_reg _ -> st
  | Insn.Call _ | Insn.Call_reg _ -> State.set_reg st Reg.lr (Aval.const (addr + 4))
  | Insn.Cmovnz (rd, rs1, rs2) -> (
    let cond = get rs1 in
    match Aval.range cond with
    | Some (0, 0) -> st
    | Some (lo, _) when lo > 0 -> State.set_reg st rd (get rs2)
    | Some _ | None -> State.set_reg st rd (Aval.join (get rd) (get rs2)))
  | Insn.Halt | Insn.Nop | Insn.Illegal _ -> st

let transfer_block ctx st (node : Supergraph.node) =
  let st = ref st in
  Array.iteri (fun i insn -> st := transfer_insn ctx !st i insn) node.Supergraph.block.Func_cfg.insns;
  !st

(* Apply branch refinement on an outgoing edge; None = infeasible. *)
let refine_edge ctx (node : Supergraph.node) kind st =
  ignore ctx;
  match (node.Supergraph.block.Func_cfg.term, kind) with
  | Func_cfg.Term_branch { cond; rs1; rs2; _ }, (Supergraph.Etaken | Supergraph.Enottaken) ->
    let holds = kind = Supergraph.Etaken in
    let va = State.get_reg st rs1 and vb = State.get_reg st rs2 in
    let va', vb' = Aval.refine_cond cond holds va vb in
    if Aval.is_bot va' || Aval.is_bot vb' then None
    else begin
      (* Write the refinement back into registers and, via origins, into the
         memory words they were loaded from. *)
      let apply st r v =
        if Reg.equal r Reg.zero then st
        else begin
          let origin = st.State.origins.(Reg.to_int r) in
          let regs = Array.copy st.State.regs in
          regs.(Reg.to_int r) <- v;
          let st = { st with State.regs } in
          match origin with
          | Some a ->
            let old =
              match State.Addr_map.find_opt a st.State.mem with
              | Some x -> x
              | None -> Aval.top
            in
            let refined = Aval.meet old v in
            if Aval.is_bot refined then st
            else { st with State.mem = State.Addr_map.add a refined st.State.mem }
          | None -> st
        end
      in
      Some (apply (apply st rs1 va') rs2 vb')
    end
  | _, _ -> Some st

module FP = Wcet_util.Fixpoint.Make (struct
  type t = State.t

  let leq = State.leq
  let join = State.join
  let widen = State.widen
end)

let widening_points (graph : Supergraph.t) (loops : Loops.info) =
  let n = Array.length graph.Supergraph.nodes in
  let widening_point = Array.make n false in
  Array.iter (fun (l : Loops.loop) -> widening_point.(l.Loops.header) <- true) loops.Loops.loops;
  List.iter (List.iter (fun v -> widening_point.(v) <- true)) loops.Loops.irreducible;
  widening_point

let propagate_of ctx (graph : Supergraph.t) i st_out =
  let node = graph.Supergraph.nodes.(i) in
  List.filter_map
    (fun (kind, target) ->
      match refine_edge ctx node kind st_out with
      | None -> None
      | Some st_edge -> Some (target, st_edge))
    node.Supergraph.succs

let publish_access_metrics accesses =
  if Wcet_obs.Obs.on () then
    Array.iter
      (List.iter (fun a ->
           let m =
             match Aval.singleton a.addr with
             | Some _ -> m_access_exact
             | None -> (
               match Aval.range a.addr with
               | Some _ -> m_access_interval
               | None -> m_access_unknown)
           in
           Metrics.incr m 1))
      accesses

(* Access recording + fixpoint metrics.
   [publish] gates the per-access precision counters only (the engine
   statistics always reflect the work done): when a run may later be
   escalated to the octagon domain, the caller publishes the counters once,
   from whichever result is final. *)
let finish ?(publish = true) ctx (graph : Supergraph.t) node_in node_out (solution : FP.result) =
  let n = Array.length graph.Supergraph.nodes in
  let accesses = Array.make n [] in
  Array.iteri
    (fun i (node : Supergraph.node) ->
      match node_in.(i) with
      | None -> ()
      | Some st ->
        let acc = ref [] in
        ctx.record <-
          Some
            (fun insn_index insn_addr is_store addr ->
              acc := { insn_index; insn_addr; is_store; addr } :: !acc);
        ignore (transfer_block ctx st node);
        ctx.record <- None;
        accesses.(i) <- List.rev !acc)
    graph.Supergraph.nodes;
  Metrics.incr m_transfers solution.FP.transfers;
  Metrics.incr m_widenings solution.FP.widenings;
  Metrics.incr m_joins solution.FP.joins;
  Metrics.set_max m_worklist_peak solution.FP.max_pending;
  if publish then publish_access_metrics accesses;
  { graph; node_in; node_out; accesses; transfers = solution.FP.transfers }

let problem ~assumes ctx (graph : Supergraph.t) (loops : Loops.info) =
  let nodes = graph.Supergraph.nodes in
  let widening_point = widening_points graph loops in
  {
    FP.num_nodes = Array.length nodes;
    entries = [ (graph.Supergraph.entry, State.entry_state ~assumes) ];
    succs = (fun i -> List.map snd nodes.(i).Supergraph.succs);
    transfer = (fun i st -> transfer_block ctx st nodes.(i));
    widening_points = (fun i -> widening_point.(i));
    widening_delay = 2;
  }

let run ?(assumes = []) ?cancel ?publish (graph : Supergraph.t) (loops : Loops.info) =
  let ctx = chronological_ctx graph.Supergraph.program in
  let p = problem ~assumes ctx graph loops in
  let solution =
    try
      FP.solve ~propagate:(propagate_of ctx graph) ?cancel ~force_widen_after:40
        ~budget:(200 * p.FP.num_nodes * (1 + Array.length loops.Loops.loops))
        p
    with Failure _ -> failwith "value analysis did not converge"
  in
  let node_in = Array.init p.FP.num_nodes solution.FP.in_state in
  let node_out = Array.init p.FP.num_nodes solution.FP.out_state in
  finish ?publish ctx graph node_in node_out solution

(* The frozen benchmark's entry point: the whole-program solve. *)
type slice = |

let run_scheduled ?assumes ?slice:(_ : slice option) ?cancel ?publish graph loops =
  (run ?assumes ?cancel ?publish graph loops, ())

(* ---- Octagon escalation --------------------------------------------- *)

type domain = Interval | Auto

let domain_name = function Interval -> "interval" | Auto -> "auto"
let all_domains = List.map (fun d -> (domain_name d, d)) [ Interval; Auto ]

let m_oct_transfers =
  Metrics.counter ~labels:[ ("analysis", "octagon") ] ~name:"fixpoint_transfers"
    ~help:"Transfer-function applications until the octagon fixpoint" ()

let m_escalated_funcs =
  Metrics.counter ~name:"value_escalated_functions"
    ~help:"Functions re-solved under the octagon domain" ()

(* Above 2^31 the unsigned machine order and the mathematical order diverge
   (and signed comparisons see negative values), so octagon constraints are
   only built over values the companion interval proves below this line. *)
let half = 0x80000000

let safe_range v =
  match Aval.range v with Some (_, hi) as r when hi < half -> r | _ -> None

let nregs = 16

(* The product's variables: the registers of the escalation's support in
   ascending order ([reg_var] maps a register number to its variable, -1
   outside the support), then the tracked slots ([slot_index] maps a slot
   address to its index in [slot_addrs], whose variable is
   [slot_base + index]). *)
type oct_env = {
  reg_var : int array;
  slot_base : int;
  slot_index : (int, int) Hashtbl.t;
  slot_addrs : int array;
}

(* A register outside the support is never named by the region's code, so
   reaching one is a broken invariant, not a precision loss. *)
let ovar env r =
  let v = env.reg_var.(Reg.to_int r) in
  if v < 0 then invalid_arg ("octagon: register outside the support: " ^ Reg.name r);
  v

let slot_ovar env a = Option.map (fun i -> env.slot_base + i) (Hashtbl.find_opt env.slot_index a)

let max_slots = 16

module E = Octagon.Edit

let oct_meet_unary e v iv =
  match safe_range iv with
  | Some (lo, hi) ->
    E.add_ub e v hi;
    E.add_lb e v lo
  | None -> ()

(* x_v := a fresh value known only by its interval. *)
let oct_set_var e v iv =
  E.forget e v;
  oct_meet_unary e v iv

(* The product's reduction: an interval refined with the octagon's own
   unary bounds on the same variable. The wraparound guards below consult
   this, not the raw interval — the relational invariant (say i <= n <= 64)
   routinely outlives the interval bound at a widened loop head, and
   without the reduction the guard would discard exactly the constraints
   the escalation exists to keep. *)
let oct_range bounds iv =
  match bounds with
  | None, None -> iv
  | lo, hi ->
    let olo = Option.value lo ~default:min_int in
    let ohi = Option.value hi ~default:max_int in
    let m = Aval.meet iv (Aval.interval olo ohi) in
    if Aval.is_bot m then iv else m

let oct_read env e st r = oct_range (E.var_bounds e (ovar env r)) (State.get_reg st r)

(* [rd] gets a value the octagon cannot relate: forget it, keep its
   interval; returns [st'] unchanged. *)
let oct_def_reg env st' e rd =
  if not (Reg.equal rd Reg.zero) then oct_set_var e (ovar env rd) (State.get_reg st' rd);
  st'

(* Octagon companion of [transfer_insn]. [st] is the interval state before
   the instruction, [st'] after; updates the block's octagon edit [e] in
   place and returns the (possibly projected) interval state. Every
   relational update is guarded by the wraparound contract: the interval
   must prove the operands and the mathematical result stay in [0, 2^31). *)
let oct_transfer_insn env st st' e (_addr, insn) =
  if E.is_bot e then st'
  else
    match insn with
    | Insn.Alui ((Insn.Add | Insn.Sub), rd, rs1, imm) when not (Reg.equal rd Reg.zero) -> (
      let c = match insn with Insn.Alui (Insn.Sub, _, _, _) -> -imm | _ -> imm in
      match safe_range (oct_read env e st rs1) with
      | Some (lo, hi) when lo + c >= 0 && hi + c < half ->
        E.assign_var_plus e ~dst:(ovar env rd) ~src:(ovar env rs1) c;
        oct_meet_unary e (ovar env rd) (State.get_reg st' rd);
        st'
      | _ -> oct_def_reg env st' e rd)
    | Insn.Alui (_, rd, _, _) -> oct_def_reg env st' e rd
    | Insn.Alu (Insn.Add, rd, rs1, rs2) when not (Reg.equal rd Reg.zero) -> (
      let v1 = oct_read env e st rs1 and v2 = oct_read env e st rs2 in
      match (safe_range v1, safe_range v2) with
      | Some (lo1, hi1), Some (lo2, hi2) when hi1 + hi2 < half ->
        let d = ovar env rd in
        (match (Aval.singleton v2, Aval.singleton v1) with
        | Some c, _ -> E.assign_var_plus e ~dst:d ~src:(ovar env rs1) c
        | None, Some c -> E.assign_var_plus e ~dst:d ~src:(ovar env rs2) c
        | None, None ->
          (* x_rd - x_rs1 in [lo2, hi2] and symmetrically for rs2. *)
          E.forget e d;
          let bound s (lo, hi) =
            if s <> d then begin
              E.add_diff e ~u:d ~v:s hi;
              E.add_diff e ~u:s ~v:d (-lo)
            end
          in
          bound (ovar env rs1) (lo2, hi2);
          bound (ovar env rs2) (lo1, hi1));
        oct_meet_unary e d (State.get_reg st' rd);
        st'
      | _ -> oct_def_reg env st' e rd)
    | Insn.Alu (Insn.Sub, rd, rs1, rs2) when not (Reg.equal rd Reg.zero) -> (
      let v1 = oct_read env e st rs1 and v2 = oct_read env e st rs2 in
      match (safe_range v1, Aval.singleton v2) with
      | Some (lo1, hi1), Some c when lo1 - c >= 0 && hi1 - c < half ->
        E.assign_var_plus e ~dst:(ovar env rd) ~src:(ovar env rs1) (-c);
        oct_meet_unary e (ovar env rd) (State.get_reg st' rd);
        st'
      | _ -> (
        (* Project the relational difference: when the octagon proves
           rs1 - rs2 in [dlo, dhi] within [0, 2^31), the 32-bit subtraction
           cannot borrow and equals the mathematical difference. This is the
           step that turns a relation into a tight interval for downstream
           address computations. *)
        match E.diff_bounds e ~u:(ovar env rs1) ~v:(ovar env rs2) with
        | Some dlo, Some dhi when dlo >= 0 && dhi < half ->
          let refined = Aval.meet (State.get_reg st' rd) (Aval.interval dlo dhi) in
          let refined = if Aval.is_bot refined then State.get_reg st' rd else refined in
          oct_set_var e (ovar env rd) refined;
          State.set_reg st' rd refined
        | _ -> oct_def_reg env st' e rd))
    | Insn.Alu (_, rd, _, _) | Insn.Lui (rd, _) | Insn.Cmovnz (rd, _, _) -> oct_def_reg env st' e rd
    | Insn.Load (rd, rs1, imm) when not (Reg.equal rd Reg.zero) -> (
      let av = Aval.add (State.get_reg st rs1) (Aval.of_signed_const imm) in
      match Aval.singleton av with
      | Some a when a land 3 = 0 -> (
        match slot_ovar env a with
        | Some s ->
          E.assign_var_plus e ~dst:(ovar env rd) ~src:s 0;
          (* Project the slot's relational bounds back into the interval
             component: the loaded value inherits everything the octagon
             proved about the slot across widening. *)
          let refined = oct_range (E.var_bounds e (ovar env rd)) (State.get_reg st' rd) in
          oct_meet_unary e (ovar env rd) refined;
          State.set_reg st' rd refined
        | None -> oct_def_reg env st' e rd)
      | _ -> oct_def_reg env st' e rd)
    | Insn.Load _ -> st'
    | Insn.Store (rs2, rs1, imm) -> (
      let av = Aval.add (State.get_reg st rs1) (Aval.of_signed_const imm) in
      match Aval.singleton av with
      | Some a when a land 3 = 0 ->
        (match slot_ovar env a with
        | Some s ->
          E.assign_var_plus e ~dst:s ~src:(ovar env rs2) 0;
          oct_meet_unary e s (State.get_reg st rs2)
        | None -> ());
        st'
      | Some _ -> st'
      | None ->
        let forget_slots pred =
          Array.iteri (fun i a -> if pred a then E.forget e (env.slot_base + i)) env.slot_addrs
        in
        (match Aval.range av with
        | Some (lo, hi) when hi - lo <= weak_update_limit_bytes ->
          forget_slots (fun a -> a >= lo && a <= hi)
        | Some _ | None -> forget_slots (fun _ -> true));
        st')
    | Insn.Call _ | Insn.Call_reg _ -> oct_def_reg env st' e Reg.lr
    | Insn.Branch _ | Insn.Jump _ | Insn.Jump_reg _ | Insn.Halt | Insn.Nop | Insn.Illegal _ -> st'

type pstate = { pst : State.t; poct : Octagon.t }

module FP2 = Wcet_util.Fixpoint.Make (struct
  type t = pstate

  let leq a b = State.leq a.pst b.pst && Octagon.leq a.poct b.poct
  let join a b = { pst = State.join a.pst b.pst; poct = Octagon.join a.poct b.poct }
  let widen a b = { pst = State.widen a.pst b.pst; poct = Octagon.widen a.poct b.poct }
end)

(* One copy of the octagon per block: every instruction updates it in
   place. *)
let product_transfer env ctx p (node : Supergraph.node) =
  let e = Octagon.edit p.poct in
  let st = ref p.pst in
  Array.iteri
    (fun i insn ->
      let st' = transfer_insn ctx !st i insn in
      st := oct_transfer_insn env !st st' e insn)
    node.Supergraph.block.Func_cfg.insns;
  { pst = !st; poct = Octagon.freeze e }

let product_refine_edge env ctx (node : Supergraph.node) kind p =
  match refine_edge ctx node kind p.pst with
  | None -> None
  | Some pst ->
    let oct =
      match (node.Supergraph.block.Func_cfg.term, kind) with
      | Func_cfg.Term_branch { cond; rs1; rs2; _ }, (Supergraph.Etaken | Supergraph.Enottaken)
        when not (Octagon.is_bot p.poct) ->
        let holds = kind = Supergraph.Etaken in
        let read r = oct_range (Octagon.var_bounds p.poct (ovar env r)) (State.get_reg pst r) in
        if Option.is_some (safe_range (read rs1)) && Option.is_some (safe_range (read rs2))
        then begin
          let u = ovar env rs1 and v = ovar env rs2 in
          let eff =
            if holds then cond
            else
              match cond with
              | Insn.Beq -> Insn.Bne
              | Insn.Bne -> Insn.Beq
              | Insn.Blt -> Insn.Bge
              | Insn.Bge -> Insn.Blt
              | Insn.Bltu -> Insn.Bgeu
              | Insn.Bgeu -> Insn.Bltu
          in
          (* Both operands proven in [0, 2^31): signed, unsigned and
             mathematical comparison orders all coincide. *)
          match eff with
          | Insn.Beq ->
            let e = Octagon.edit p.poct in
            E.add_diff e ~u ~v 0;
            E.add_diff e ~u:v ~v:u 0;
            Octagon.freeze e
          | Insn.Blt | Insn.Bltu -> Octagon.add_diff p.poct ~u ~v (-1)
          | Insn.Bge | Insn.Bgeu -> Octagon.add_diff p.poct ~u:v ~v:u 0
          | Insn.Bne -> (
            (* Disequality strengthening: a one-sided bound touching zero
               becomes strict (x != y and x - y <= 0 imply x - y <= -1). *)
            match Octagon.diff_bounds p.poct ~u ~v with
            | _, Some 0 -> Octagon.add_diff p.poct ~u ~v (-1)
            | Some 0, _ -> Octagon.add_diff p.poct ~u:v ~v:u (-1)
            | _ -> p.poct)
        end
        else p.poct
      | _ -> p.poct
    in
    if Octagon.is_bot oct && not (Octagon.is_bot p.poct) then None else Some { pst; poct = oct }

type escalation = {
  esc_funcs : string list;
  esc_transfers : int;
  esc_slots : int list;
  esc_regs : Reg.t list;
  esc_result : result;
  esc_rel : int -> counter:Reg.t -> other:Reg.t -> int option * int option;
}

(* Solve the escalated functions' nodes under the interval x octagon
   product and fold the result back under [base] (a meet, so the refinement
   is leq the interval result by construction). Octagon slot variables are
   the singleton access targets inside the escalated functions, loop-body
   ones first: that is where counters and limits live.

   The region is every node of an escalated function, in every context.
   Nodes outside it keep [base]'s states and accesses. The product starts at
   the program entry when it is in the region, and at every region node
   that control reaches from outside along any edge but a return (a caller,
   a longjmp), seeded there with the base in-state. A call out of the
   region into an unescalated callee becomes one summary edge to its return
   site: the octagon resets every register the callee's context subtree
   defines and every slot its stores may write to its interval in the base
   in-state of the return site, which is also the interval half. Both
   halves stay sound because the base states are, and a relation over
   untouched variables survives any execution of the callee.

   The product's registers are its support: those the region's
   instructions name, those an entry's base state bounds in the safe range,
   and those a summary edge resets to a safe range. Any other register
   would stay all-infinite in every state (no entry bounds it, no transfer
   or summary writes it), and an all-infinite variable changes no other
   cell: closure only follows finite cells and strengthening only pairs
   finite unary cells. Leaving it out is exact. *)
let escalate ?(assumes = []) ?cancel ~funcs (base : result) (loops : Loops.info) =
  let graph = base.graph in
  let nodes = graph.Supergraph.nodes in
  let n = Array.length nodes in
  let ctx = chronological_ctx graph.Supergraph.program in
  let in_funcs = Array.map (fun (nd : Supergraph.node) -> List.mem nd.Supergraph.func funcs) nodes in
  let in_loop = Array.make n false in
  Array.iter
    (fun (l : Loops.loop) -> List.iter (fun i -> in_loop.(i) <- true) l.Loops.body)
    loops.Loops.loops;
  let slot_index = Hashtbl.create 32 in
  let rev_slots = ref [] in
  let consider i (a : access) =
    match Aval.singleton a.addr with
    | Some ad
      when ad land 3 = 0 && in_funcs.(i) && trackable ctx ad
           && (not (Hashtbl.mem slot_index ad))
           && Hashtbl.length slot_index < max_slots ->
      Hashtbl.add slot_index ad (Hashtbl.length slot_index);
      rev_slots := ad :: !rev_slots
    | _ -> ()
  in
  Array.iteri (fun i acc -> if in_loop.(i) then List.iter (consider i) acc) base.accesses;
  Array.iteri (fun i acc -> if not in_loop.(i) then List.iter (consider i) acc) base.accesses;
  let slot_addrs = Array.of_list (List.rev !rev_slots) in
  (* Widening thresholds: the program's own immediates (and the assume
     bounds) are where loop limits live; the doubled values cover the 2c
     encoding of unary cells. *)
  let thr = ref [] in
  Array.iteri
    (fun i (nd : Supergraph.node) ->
      if in_funcs.(i) then
        Array.iter
          (fun (_, insn) ->
            match insn with
            | Insn.Alui (_, _, _, imm) when imm <> 0 -> thr := abs imm :: !thr
            | Insn.Lui (_, imm) -> thr := imm lsl 16 :: !thr
            | _ -> ())
          nd.Supergraph.block.Func_cfg.insns)
    nodes;
  List.iter
    (fun (_, v) ->
      match Aval.range v with Some (lo, hi) -> thr := lo :: hi :: !thr | None -> ())
    assumes;
  let thresholds =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map (fun c -> [ c; 2 * c ]) (List.filter (fun c -> c > 0 && c < half) !thr)))
  in
  let entries =
    List.filter_map
      (fun (nd : Supergraph.node) ->
        let i = nd.Supergraph.id in
        let from_outside =
          i = graph.Supergraph.entry
          || List.exists
               (fun (kind, p) -> kind <> Supergraph.Ereturn && not in_funcs.(p))
               nd.Supergraph.preds
        in
        match base.node_in.(i) with
        | Some st when in_funcs.(i) && from_outside -> Some (i, st)
        | _ -> None)
      (Array.to_list nodes)
  in
  (* The call summaries. Contexts are numbered parent first, so one
     backward sweep folds each context's clobbers into its parent's. A
     clobber is a bit set over register numbers and, from bit [nregs],
     slot indices. *)
  let contexts = graph.Supergraph.contexts in
  let return_site = Array.make (Array.length contexts) (-1) in
  let clobber = Array.make (Array.length contexts) 0 in
  let bit v = 1 lsl v in
  let all_slots = (bit (nregs + Array.length slot_addrs) - 1) lxor (bit nregs - 1) in
  let slots_in lo hi =
    Array.fold_left
      (fun (m, v) a -> ((if a >= lo && a <= hi then m lor bit v else m), v + 1))
      (0, nregs) slot_addrs
    |> fst
  in
  Array.iter
    (fun (nd : Supergraph.node) ->
      let k = nd.Supergraph.ctx in
      List.iter
        (fun (kind, t) -> if kind = Supergraph.Ereturn then return_site.(k) <- t)
        nd.Supergraph.succs;
      Array.iter
        (fun (_, insn) ->
          List.iter (fun r -> clobber.(k) <- clobber.(k) lor bit (Reg.to_int r)) (Insn.defs insn))
        nd.Supergraph.block.Func_cfg.insns;
      List.iter
        (fun (a : access) ->
          if a.is_store then
            let slots =
              match (Aval.singleton a.addr, Aval.range a.addr) with
              | Some ad, _ -> (
                match Hashtbl.find_opt slot_index ad with Some i -> bit (nregs + i) | None -> 0)
              | None, Some (lo, hi) when hi - lo <= weak_update_limit_bytes -> slots_in lo hi
              | None, _ -> all_slots
            in
            clobber.(k) <- clobber.(k) lor slots)
        base.accesses.(nd.Supergraph.id))
    nodes;
  for k = Array.length contexts - 1 downto 0 do
    match contexts.(k).Supergraph.parent with
    | Some (p, _) -> clobber.(p) <- clobber.(p) lor clobber.(k)
    | None -> ()
  done;
  (* Region edges: [`Within] keeps the edge, [`Summary k] replaces a call
     into the unescalated context [k] by its return site. *)
  let region_succs =
    Array.map
      (fun (nd : Supergraph.node) ->
        if not in_funcs.(nd.Supergraph.id) then []
        else
          List.filter_map
            (fun (kind, t) ->
              if in_funcs.(t) then Some (t, `Within kind)
              else
                let k = nodes.(t).Supergraph.ctx in
                if kind = Supergraph.Ecall && return_site.(k) >= 0 then
                  Some (return_site.(k), `Summary k)
                else None)
            nd.Supergraph.succs)
      nodes
  in
  (* The support, as a bit set over register numbers. *)
  let support = ref 0 in
  let safe_regs mask st =
    List.iter
      (fun r ->
        if mask land bit (Reg.to_int r) <> 0 && Option.is_some (safe_range (State.get_reg st r))
        then support := !support lor bit (Reg.to_int r))
      Reg.all
  in
  Array.iteri
    (fun i (nd : Supergraph.node) ->
      if in_funcs.(i) then
        Array.iter
          (fun (_, insn) ->
            List.iter
              (fun r -> support := !support lor bit (Reg.to_int r))
              (Insn.uses insn @ Insn.defs insn))
          nd.Supergraph.block.Func_cfg.insns)
    nodes;
  List.iter (fun (_, st) -> safe_regs (-1) st) entries;
  Array.iter
    (List.iter (fun (t, edge) ->
         match (edge, base.node_in.(t)) with
         | `Summary k, Some st -> safe_regs clobber.(k) st
         | _ -> ()))
    region_succs;
  let regs = List.filter (fun r -> !support land bit (Reg.to_int r) <> 0) Reg.all in
  let reg_var = Array.make nregs (-1) in
  List.iteri (fun v r -> reg_var.(Reg.to_int r) <- v) regs;
  let regs = Array.of_list regs in
  let slot_base = Array.length regs in
  let env = { reg_var; slot_base; slot_index; slot_addrs } in
  let dim = slot_base + Array.length slot_addrs in
  (* The interval of octagon variable [v] in [st], and [v]'s bit in a
     clobber. *)
  let var_interval st v =
    if v < slot_base then State.get_reg st regs.(v)
    else State.load ~program:ctx.program st slot_addrs.(v - slot_base)
  in
  let var_bit v = if v < slot_base then bit (Reg.to_int regs.(v)) else bit (nregs + v - slot_base) in
  (* An entry's octagon: the unary bounds of its interval state. At the
     program entry that is [r0 = 0] plus the assumed slot ranges. *)
  let entry_oct st =
    let e = Octagon.edit (Octagon.top ~thresholds dim) in
    for v = 0 to dim - 1 do
      oct_meet_unary e v (var_interval st v)
    done;
    Octagon.freeze e
  in
  let summarize k oct ret_st =
    let e = Octagon.edit oct in
    for v = 0 to dim - 1 do
      if clobber.(k) land var_bit v <> 0 then oct_set_var e v (var_interval ret_st v)
    done;
    Octagon.freeze e
  in
  let widening_point = widening_points graph loops in
  let solution =
    try
      FP2.solve
        ~propagate:(fun i p ->
          let node = nodes.(i) in
          List.filter_map
            (fun (t, edge) ->
              match edge with
              | `Within kind ->
                Option.map (fun p' -> (t, p')) (product_refine_edge env ctx node kind p)
              | `Summary k ->
                Option.map
                  (fun st -> (t, { pst = st; poct = summarize k p.poct st }))
                  base.node_in.(t))
            region_succs.(i))
        ?cancel ~force_widen_after:40
        ~budget:(200 * n * (1 + Array.length loops.Loops.loops))
        {
          FP2.num_nodes = n;
          entries = List.map (fun (i, st) -> (i, { pst = st; poct = entry_oct st })) entries;
          succs = (fun i -> List.map fst region_succs.(i));
          transfer = (fun i p -> product_transfer env ctx p nodes.(i));
          widening_points = (fun i -> widening_point.(i));
          widening_delay = 2;
        }
    with Failure _ -> failwith "octagon escalation did not converge"
  in
  (* Outside the region the base result stands as it is. *)
  let fold base_states prod =
    Array.init n (fun i ->
        if not in_funcs.(i) then base_states.(i)
        else
          match (prod i, base_states.(i)) with
          | Some p, Some b -> Some (State.meet p.pst b)
          | _ -> None)
  in
  let node_in = fold base.node_in solution.FP2.in_state in
  let node_out = fold base.node_out solution.FP2.out_state in
  (* Access replay under the product transfer: the relational projections at
     defining instructions are what tighten the recorded address values. *)
  let accesses =
    Array.mapi
      (fun i base_acc ->
        if not in_funcs.(i) then base_acc
        else
          match (solution.FP2.in_state i, node_in.(i)) with
          | Some p, Some stmeet ->
            let acc = ref [] in
            ctx.record <-
              Some
                (fun insn_index insn_addr is_store addr ->
                  acc := { insn_index; insn_addr; is_store; addr } :: !acc);
            ignore (product_transfer env ctx { pst = stmeet; poct = p.poct } nodes.(i));
            ctx.record <- None;
            List.rev !acc
          | _ -> [])
      base.accesses
  in
  Metrics.incr m_oct_transfers solution.FP2.transfers;
  Metrics.incr m_escalated_funcs (List.length funcs);
  let esc_result =
    { graph; node_in; node_out; accesses; transfers = base.transfers + solution.FP2.transfers }
  in
  (* The loop-bound hook evaluates at the exit node's OUT state: the branch
     compares the registers as they stand after the block's loads, which is
     exactly what the out-state constrains (the in-state regs may be stale
     copies from the previous iteration). *)
  let esc_rel nid ~counter ~other =
    match solution.FP2.out_state nid with
    | None -> (None, None)
    | Some p ->
      (* A register outside the support is unconstrained. *)
      let u = reg_var.(Reg.to_int other) and v = reg_var.(Reg.to_int counter) in
      if u < 0 || v < 0 then (None, None) else Octagon.diff_bounds p.poct ~u ~v
  in
  {
    esc_funcs = funcs;
    esc_transfers = solution.FP2.transfers;
    esc_slots = Array.to_list slot_addrs;
    esc_regs = Array.to_list regs;
    esc_result;
    esc_rel;
  }

let reachable r i = Option.is_some r.node_in.(i)

(* Successor edges that survive branch refinement: an edge whose refined
   state is empty (e.g. a mode excluded by an assume) is infeasible and must
   not contribute paths to IPET. *)
let feasible_successors r i =
  if not (reachable r i) then []
  else
    let node = r.graph.Supergraph.nodes.(i) in
    let ctx =
      {
        program = r.graph.Supergraph.program;
        is_linkage = (fun _ -> false);
        register_linkage = ignore;
        record = None;
      }
    in
    match r.node_out.(i) with
    | None -> []
    | Some st_out ->
      List.filter
        (fun (kind, target) ->
          reachable r target && Option.is_some (refine_edge ctx node kind st_out))
        node.Supergraph.succs

let reg_at_exit r i reg =
  match r.node_out.(i) with
  | None -> Aval.bot
  | Some st -> State.get_reg st reg

(* Path-exploration hooks for the model-checking path backend: a fresh
   linkage context (it only forgets less than the fixpoint did) plus the
   very transfer and refinement functions the fixpoint itself runs, so a
   path's carried state can never be less sound than the invariant. *)

type path_ctx = ctx

let path_ctx r = chronological_ctx r.graph.Supergraph.program
let path_step = transfer_block
let path_follow = refine_edge
