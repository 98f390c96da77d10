(** The loop/value analysis of Figure 1: a context-sensitive interval
    analysis over the supergraph with branch refinement.

    Produces per-node abstract states, per-instruction data-access address
    intervals (consumed by the cache analysis), and reachability (unreached
    nodes are the over-approximated dead code of MISRA rule 14.1's
    discussion). *)

type access = {
  insn_index : int;
  insn_addr : int;
  is_store : bool;
  addr : Aval.t;  (** address interval of the access *)
}

type result = {
  graph : Wcet_cfg.Supergraph.t;
  node_in : State.t option array;  (** [None] = unreachable *)
  node_out : State.t option array;
  accesses : access list array;  (** per node, in instruction order *)
  transfers : int;  (** fixpoint transfer count (worklist efficiency metric) *)
}

(** [run ?assumes graph loops] — [assumes] are trusted initial
    memory facts (address, interval) from annotations (the paper's
    design-level information). One whole-program solve on the shared
    fixpoint engine's reverse-postorder worklist. [cancel] is the
    cooperative cancellation token of the underlying solver: when it
    trips, {!Wcet_util.Fixpoint.Cancelled} escapes. *)
val run :
  ?assumes:(int * Aval.t) list ->
  ?cancel:(unit -> bool) ->
  ?publish:bool ->
  Wcet_cfg.Supergraph.t ->
  Wcet_cfg.Loops.info ->
  result

(** Frozen stub for the benchmark's replay, which still names it:
    [slice] has no values and [run_scheduled] is {!run}. *)
type slice = |

val run_scheduled :
  ?assumes:(int * Aval.t) list ->
  ?slice:slice ->
  ?cancel:(unit -> bool) ->
  ?publish:bool ->
  Wcet_cfg.Supergraph.t ->
  Wcet_cfg.Loops.info ->
  result * unit

(** When a run may later be escalated, pass [~publish:false] above and
    publish the [value_accesses] precision counters once, from whichever
    result ends up final. *)
val publish_access_metrics : access list array -> unit

(** {2 Octagon escalation} *)

(** Which abstract domain the value analysis may use: [Interval] is the
    always-on baseline; [Auto] escalates to the interval x octagon product
    when some function's interval results left imprecise accesses or
    input-dependent/aliased loop-bound causes. The escalation solves only
    the flagged functions' nodes, which also choose its slots and
    thresholds ({!escalate}). *)
type domain = Interval | Auto

val domain_name : domain -> string

(** [(domain_name d, d)] for every domain: the one name table the CLI
    reads. *)
val all_domains : (string * domain) list

type escalation = {
  esc_funcs : string list;  (** functions that triggered the escalation *)
  esc_transfers : int;  (** product-domain transfer count *)
  esc_slots : int list;  (** tracked stack/global word addresses *)
  esc_regs : Pred32_isa.Reg.t list;
      (** the registers the product tracks (its support), ascending *)
  esc_result : result;
      (** the interval result refined under the octagon re-solve; leq the
          base result by construction (a per-node meet) *)
  esc_rel : int -> counter:Pred32_isa.Reg.t -> other:Pred32_isa.Reg.t -> int option * int option;
      (** [esc_rel node ~counter ~other] bounds [other - counter] at the
          node's branch point (out-state) — the relational loop-bound hook
          consumed by {!Loop_bounds.analyze} *)
}

(** [escalate ~funcs base loops] solves the nodes of [funcs], in every
    context, under the interval x octagon reduced product and folds the
    result back under [base]; every other node keeps [base]'s states and
    accesses. The product starts wherever control enters the region from
    outside other than by a return, seeded with [base]'s in-state, and
    crosses a call into an unescalated callee in one summary edge that
    resets every register and slot the callee's context subtree may write.
    The product's interval component repeats the base transfer, so the
    refinement can only tighten; the octagon side obeys the wraparound
    contract of {!Octagon}.

    The octagon's variables are the singleton access targets of [funcs]
    (the slots) and the registers of its support: every register an
    instruction of [funcs] names, every register [base] bounds in
    [\[0, 2^31)] at an entry of the product, and every register a summary
    edge resets while [base] bounds it there. Any other register would
    stay unconstrained in every state, so leaving it out changes no
    result. *)
val escalate :
  ?assumes:(int * Aval.t) list ->
  ?cancel:(unit -> bool) ->
  funcs:string list ->
  result ->
  Wcet_cfg.Loops.info ->
  escalation

(** [reachable result node] is false for nodes the analysis proved
    unreachable (infeasible paths, excluded modes). *)
val reachable : result -> int -> bool

(** [feasible_successors result node] is the node's successor list with
    refinement-infeasible branch edges removed. *)
val feasible_successors :
  result -> int -> (Wcet_cfg.Supergraph.edge_kind * int) list

(** [reg_at_exit result node reg] is the register's interval in the node's
    out-state ([Bot] if unreachable). *)
val reg_at_exit : result -> int -> Pred32_isa.Reg.t -> Aval.t

(** {2 Path-exploration hooks}

    The model-checking path backend walks individual supergraph paths
    carrying a {!State.t}, using the same transfer and branch-refinement
    functions the fixpoint runs — a pruned edge is pruned by exactly the
    machinery whose invariants the rest of the tool already trusts. *)

type path_ctx

val path_ctx : result -> path_ctx

(** Transfer a node's whole block. *)
val path_step : path_ctx -> State.t -> Wcet_cfg.Supergraph.node -> State.t

(** Apply branch refinement on an outgoing edge; [None] = infeasible. *)
val path_follow :
  path_ctx ->
  Wcet_cfg.Supergraph.node ->
  Wcet_cfg.Supergraph.edge_kind ->
  State.t ->
  State.t option
