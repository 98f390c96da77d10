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

(** How an access meets the data cache: [Data_bypass] for a store
    (write-around), for an access whose candidate regions are all
    uncacheable, and when there is no data cache; otherwise the one line
    its address interval lies in, the few lines it may touch (at most
    eight lines' worth of bytes), or an unknown line. *)
type data_step = Data_bypass | Data_line of int | Data_lines of int list | Data_unknown

type planned_access = {
  access : Wcet_value.Analysis.access;  (** the value analysis's record *)
  step : data_step;
  regions : Pred32_memory.Region.t list;  (** candidate target regions *)
}

(** What the transfer of one node needs that no cache state changes,
    derived once from the value result and the region hints. Plain data:
    a result marshals. *)
type node_plan = {
  fetch_lines : int array;
      (** per instruction: its I-cache line, or -1 when the fetch bypasses
          the cache (uncacheable region, or no I-cache) *)
  accesses : planned_access array;  (** the node's data accesses, in instruction order *)
}

(** Abstract cache state: must/may pair per configured cache ([None] when
    that cache is absent from the hardware configuration). *)
module Cstate : sig
  type t = { ic : Acache.t option; dc : Acache.t option }

  val leq : t -> t -> bool
  val join : t -> t -> t
end

type result = {
  plan : node_plan array;
      (** per node; empty for a node the value analysis does not reach,
          and without accesses for one the cache solve does not reach *)
  fetch : classification array array;  (** per node, per instruction *)
  data : classification array array;  (** per node, per access of its [plan] *)
  node_in : Cstate.t option array;  (** converged per-node states ([None] = unreachable) *)
  node_out : Cstate.t option array;
  transfers : int;  (** fixpoint transfer count (worklist efficiency metric) *)
}

(** [run cfg value_result ~region_hints] — [region_hints] maps a
    function name to the regions its unresolved accesses may touch (from
    annotations). One whole-program solve over the reachability-filtered
    supergraph, which records every classification as it goes: a node's
    last transfer sees its final in-state. *)
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
