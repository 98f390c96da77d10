(** The cache analysis of Figure 1: classifies every instruction fetch and
    every data access as always-hit, always-miss, or not-classified, using
    must/may abstract LRU states propagated over the supergraph.

    Data addresses come from the value analysis. An access whose address
    interval cannot be narrowed damages the abstract data cache (all must
    ages grow) and must be costed against the slowest candidate memory
    region — unless a memory-region annotation (the paper's Section 4.3
    remedy) narrows the candidates, e.g. to the uncached I/O region, in
    which case the data cache is bypassed and unharmed. *)

type classification =
  | Always_hit
  | Always_miss
  | Not_classified
  | Bypass  (** uncacheable access (or cache disabled) *)

type data_access = {
  insn_index : int;
  is_store : bool;
  kind : classification;
  regions : Pred32_memory.Region.t list;  (** candidate target regions *)
}

(** Abstract cache state: must/may pair per configured cache ([None] when
    that cache is absent from the hardware configuration). Exposed so the
    persistent result cache can checkpoint and reseed converged states. *)
module Cstate : sig
  type t = { ic : Acache.t option; dc : Acache.t option }

  val leq : t -> t -> bool
  val join : t -> t -> t
end

type result = {
  fetch : classification array array;  (** per node, per instruction *)
  data : data_access list array;  (** per node *)
  node_in : Cstate.t option array;  (** converged per-node states ([None] = unreachable) *)
  node_out : Cstate.t option array;
  transfers : int;  (** fixpoint transfer count (worklist efficiency metric) *)
}

(** [run cfg value_result ~region_hints] — [region_hints] maps a
    function name to the regions its unresolved accesses may touch (from
    annotations). The whole-program solve: the reference the analyzer's
    [verify] compares {!run_scheduled} against. *)
val run :
  ?cancel:(unit -> bool) ->
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  region_hints:(string -> Pred32_memory.Region.t list option) ->
  result

(** Per-node summary rows for {!run_scheduled}: the engine row holds the
    external (cross-component) cache input the node's component received
    when the row was recorded, and the converged (in, out) states. A row
    is only valid when the value states its access sets were derived from
    also match — the caller gates the slice on that. *)
type summary_slice = int -> Cstate.t Wcet_util.Fixpoint.row option

(** Semantic state equality: [leq] both ways, decided in one pass by
    {!Acache.equal}. *)
val equal_cstate : Cstate.t -> Cstate.t -> bool

(** [run_scheduled ?slice cfg value_result ~region_hints] solves the cache
    problem one call-graph component at a time over the
    reachability-filtered supergraph (see
    {!Wcet_value.Analysis.run_scheduled}). The engine installs a component
    from [slice] rows when every member has one recorded under an external
    input equal ({!equal_cstate}) to the one delivered this run. Returns
    the {!result} plus, per node, the external input received this run,
    for persisting fresh rows. *)
val run_scheduled :
  ?slice:summary_slice ->
  ?cancel:(unit -> bool) ->
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  region_hints:(string -> Pred32_memory.Region.t list option) ->
  result * Cstate.t option array

val pp_classification : Format.formatter -> classification -> unit
