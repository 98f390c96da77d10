(** Generic worklist fixpoint solver for forward data-flow problems on an
    explicit directed graph of integer-indexed nodes.

    All abstract-interpretation passes (value analysis, cache analysis) are
    instances of this solver. It has one worklist loop, {!Make.solve}: a
    binary heap keyed by the reverse-postorder index of each node (computed
    once from the problem's entries and successor function), over the whole
    graph, so a node is re-transferred only after its forward-graph
    predecessors have settled in the current sweep. *)

(** The worklist order. [Rpo] is the only one; the type stays because
    report-cache keys name it ({!strategy_name} gives ["rpo"]). *)
type strategy = Rpo

val strategy_name : strategy -> string

(** [rpo_index ~num_nodes ~entries ~succs] is the reverse-postorder index of
    every node reachable from [entries]; unreachable nodes get [max_int].
    Exposed for tests and for consumers that want the traversal order. *)
val rpo_index : num_nodes:int -> entries:int list -> succs:(int -> int list) -> int array

(** Raised out of {!Make.solve} when its [cancel] callback returns [true].
    Cooperative: the token is polled once per transfer, so a solve stops
    within one transfer of the token tripping. The daemon uses this for
    per-request deadlines; partial solver state is discarded by the
    caller. *)
exception Cancelled

module type Domain = sig
  type t

  (** Partial-order test: [leq a b] iff [a] is at most [b]. *)
  val leq : t -> t -> bool

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
      the worklist algorithm to a post-fixpoint over the whole graph,
      popping the pending node of least {!rpo_index}.

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
end
