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
    that cache is absent from the hardware configuration). *)
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
    annotations). One whole-program solve over the reachability-filtered
    supergraph. *)
val run :
  ?cancel:(unit -> bool) ->
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  region_hints:(string -> Pred32_memory.Region.t list option) ->
  result

(** Frozen stub for the benchmark's replay, which still names it:
    [slice] has no values and [run_scheduled] is {!run}. *)
type slice = |

val run_scheduled :
  ?slice:slice ->
  ?cancel:(unit -> bool) ->
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  region_hints:(string -> Pred32_memory.Region.t list option) ->
  result * unit
