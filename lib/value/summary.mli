(** Summary slices and summary accounting for the component-scheduled
    analyses ({!Analysis.run_scheduled},
    [Wcet_cache.Cache_analysis.run_scheduled]).

    A summary maps a component's abstract input state to its converged
    output states (plus, indirectly, the access sets the cache analysis
    replays from them). Rows are the fixpoint engine's
    {!Wcet_util.Fixpoint.row}s, recorded per node; the engine applies a
    component from rows — skipping every transfer — exactly when all
    members are covered and the delivered external input equals the
    recorded one under the domain's semantic equality ({!equal_state} for
    the value analysis). *)

(** Recorded rows a value-analysis run may apply. *)
type slice = {
  rows : int -> State.t Wcet_util.Fixpoint.row option;
      (** node-indexed row lookup, [None] when the node has no recorded
          row *)
  linkage : int -> int list;
      (** frame-linkage words the node registered when its row was
          recorded; replayed when its component is applied so downstream
          havocs see the same linkage set *)
}

(** Everything a scheduled run records beyond the {!Analysis.result}, to
    persist fresh rows. *)
type info = {
  ext_input : State.t option array;
      (** per node: the external input it received this run *)
  node_linkage : int list array;
      (** per node: linkage registrations (recorded or replayed) *)
}

(** Semantic equality: [leq] both ways. *)
val equal_state : State.t -> State.t -> bool

(** The scheduled analyses whose summary work is accounted. *)
type analysis = Value | Cache

(** [account analysis graph plan info] publishes a scheduled run's summary
    accounting under [analysis]: [summary_computes] (components solved by
    iteration), [summary_hits] (components installed from rows) and the
    [summary_scc_transfers] histogram of solved components; while
    observability is on, it also emits one retrospective [scc] trace span
    per solved component (attributes: analysis, member functions, node
    count, transfer count). *)
val account :
  analysis -> Wcet_cfg.Supergraph.t -> Wcet_util.Fixpoint.plan -> 'a Wcet_util.Fixpoint.plan_info -> unit
