(** Generic worklist fixpoint solver for forward data-flow problems on an
    explicit directed graph of integer-indexed nodes.

    All abstract-interpretation passes (value analysis, cache analysis) are
    instances of this solver. It has one worklist loop, {!Make.solve_plan}:
    a binary heap keyed by the reverse-postorder index of each node
    (computed once from the problem's entries and successor function), run
    one strongly connected component at a time, so a node is re-transferred
    only after its forward-graph predecessors have settled in the current
    sweep. The whole-program {!Make.solve} is that loop over a plan with a
    single component. *)

(** The worklist order. [Rpo] is the only one; the type stays because
    report-cache keys name it ({!strategy_name} gives ["rpo"]). *)
type strategy = Rpo

val strategy_name : strategy -> string

(** [rpo_index ~num_nodes ~entries ~succs] is the reverse-postorder index of
    every node reachable from [entries]; unreachable nodes get [max_int].
    Exposed for tests and for consumers that want the traversal order. *)
val rpo_index : num_nodes:int -> entries:int list -> succs:(int -> int list) -> int array

(** Raised out of {!Make.solve} / {!Make.solve_plan} when their [cancel]
    callback returns [true]. Cooperative: the token is polled once per
    transfer, so a solve stops within one transfer of the token tripping.
    The daemon uses this for per-request deadlines; partial solver state is
    discarded by the caller. *)
exception Cancelled

(** Schedule for {!Make.solve_plan}: the node graph condensed into strongly
    connected components (built by [Wcet_cfg.Callgraph.condense], which lives
    above this module in the dependency order). Components are numbered
    topologically — every cross-component edge goes from a smaller to a
    larger id. [plan_priority] is the global {!rpo_index} of the underlying
    problem, kept so per-component solves pop nodes in the whole-program
    order. *)
type plan = {
  plan_comp_of : int array;  (** node -> component id (topological) *)
  plan_comps : int array array;  (** component id -> members, by priority *)
  plan_priority : int array;  (** global RPO index of every node *)
}

(** A recorded summary row for one node of a component (see
    {!Make.solve_plan}). *)
type 'a row = {
  input : 'a option;
      (** the external ("inbox") contribution the node received when the
          row was recorded; [None] when it only saw intra-component
          dataflow *)
  states : ('a * 'a) option;
      (** converged (in, out); [None] for a node unreached under that
          dataflow *)
}

(** Per-component outcome of {!Make.solve_plan}. *)
type 'a plan_info = {
  applied : bool array;
      (** component was installed from summary rows, not solved *)
  per_comp_transfers : int array;
  ext_input : 'a option array;
      (** per node: the joined cross-component ("inbox") contribution the
          node received, [None] when it only saw intra-component dataflow *)
}

module type Domain = sig
  type t

  (** Partial-order test: [leq a b] iff [a] is at most [b]. *)
  val leq : t -> t -> bool

  (** Semantic equality, the test {!Make.solve_plan} applies to recorded
      inputs. States with equal meaning may differ structurally, so this
      is typically [leq] both ways, never a byte comparison. *)
  val equal : t -> t -> bool

  (** Least upper bound. *)
  val join : t -> t -> t

  (** Widening, applied at designated widening points after
      [widening_delay] visits. Implementations without infinite ascending
      chains may return [join]. *)
  val widen : t -> t -> t
end

module Make (D : Domain) : sig
  type problem = {
    num_nodes : int;
    entries : (int * D.t) list;  (** entry nodes with their initial states *)
    succs : int -> int list;
    transfer : int -> D.t -> D.t;  (** out-state of a node from its in-state *)
    widening_points : int -> bool;  (** typically loop headers *)
    widening_delay : int;
  }

  type result = {
    in_state : int -> D.t option;  (** [None] for unreachable nodes *)
    out_state : int -> D.t option;
    transfers : int;  (** total transfer applications, for diagnostics *)
    widenings : int;  (** merges that used [widen] rather than [join] *)
    joins : int;  (** merges that used [join] *)
    max_pending : int;  (** peak worklist occupancy *)
  }

  (** [solve ?propagate ?force_widen_after ?budget ?cancel problem] runs
      the worklist algorithm to a post-fixpoint over the whole graph. It is
      {!solve_plan} on the one-component plan: every node in component 0,
      with {!rpo_index} as the priority, so nodes pop in reverse postorder
      and no contribution ever crosses components.

      [propagate node out_state] lists the per-edge contributions
      [(target, state)] of a node's out-state; the default forwards
      [out_state] to every successor. Consumers use it for branch
      refinement, where an edge can narrow the state or drop it entirely
      (infeasible edge). The targets it returns must be a subset of
      [succs node] — the priority order is computed from [succs].

      [force_widen_after] widens at any node visited more than that many
      times regardless of [widening_points], as a convergence backstop.
      [budget] caps the transfer count; exceeding it raises [Failure].
      [cancel] is polled before every transfer; when it returns [true] the
      solve raises {!Cancelled}. *)
  val solve :
    ?propagate:(int -> D.t -> (int * D.t) list) ->
    ?force_widen_after:int ->
    ?budget:int ->
    ?cancel:(unit -> bool) ->
    problem ->
    result

  (** [solve_plan ~plan problem] solves the problem one strongly connected
      component at a time, in component id order (topological), so every
      component sees the final contributions of all its predecessors.

      Because every cross-component edge goes forward in both the
      condensation and the RPO priority, the one-component plan of
      {!solve} also finishes a component's predecessors before first
      visiting the component; solving each component against its
      accumulated external inputs with the global RPO priority therefore
      reproduces the whole-program fixpoint (and transfer count) component
      by component.

      [rows] offers recorded summary rows by node. Just before a reached
      component would be solved, the engine installs it from its rows
      instead — no transfer — exactly when every member has a row and each
      row's [input] equals the inbox delivered to that member this run
      under [D.equal] ([None] only equals [None]). Then the rows' states
      are installed, [on_apply] runs once per member, and the out-states
      propagate downstream. Otherwise the component is solved and its rows
      are ignored.

      [propagate], [force_widen_after] and [budget] (the total transfer
      count) act as in {!solve}; [cancel] is polled before every component
      and every transfer. *)
  val solve_plan :
    ?propagate:(int -> D.t -> (int * D.t) list) ->
    ?rows:(int -> D.t row option) ->
    ?on_apply:(int -> unit) ->
    ?force_widen_after:int ->
    ?budget:int ->
    ?cancel:(unit -> bool) ->
    plan:plan ->
    problem ->
    result * D.t plan_info
end
