(** Scoped persistence analysis ("first miss" classification).

    For each loop, if all cache lines touched inside the loop body that map
    to a given cache set fit into the set's associativity, none of them can
    be evicted while the loop runs: every access to them after the first is
    a hit. Such accesses are downgraded from not-classified to
    hit-with-a-one-time-charge; the one-time miss penalties are charged to
    the loop's entry-edge sources (executed once per loop entry), which the
    pipeline analysis adds to those nodes' times.

    Any load with an imprecise address inside a loop disables data-cache
    persistence for that loop (the unknown access may evict anything —
    another face of the paper's imprecise-memory-access damage); instruction
    fetches always have known addresses, so instruction persistence only
    depends on code layout, exactly the cache-killer layout effects the
    COLA project studied. *)

type t = {
  persistent_fetch : bool array array;
      (** per node, per instruction; [[||]] for a node with none *)
  persistent_data : bool array array;
      (** per node, per data access of the cache plan; [[||]] for a node
          with none *)
  entry_extra : int array;  (** per node: one-time miss cycles charged *)
}

(** [fetch_persistent t node idx]: the fetch of instruction [idx] is
    loop-persistent. *)
val fetch_persistent : t -> int -> int -> bool

(** [data_persistent t node k]: the node's [k]th data access (in the
    order of {!Cache_analysis.node_plan}'s [accesses]) is loop-persistent. *)
val data_persistent : t -> int -> int -> bool

val compute :
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  Wcet_cfg.Loops.info ->
  Cache_analysis.result ->
  t

(** [(fetches, data accesses)] promoted to loop-persistent. *)
val promotions : t -> int * int

(** Empty result (persistence disabled). *)
val none : num_nodes:int -> t
