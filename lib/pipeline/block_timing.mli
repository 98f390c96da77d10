(** The pipeline analysis of Figure 1: per-basic-block execution-time
    bounds.

    Combines the shared {!Pred32_hw.Timing} cost model with the cache
    classifications: always-hit fetches cost the hit latency, everything
    else the worst case; unresolved data accesses are charged against the
    slowest candidate region. Control-transfer penalties are included
    pessimistically (a conditional branch is costed as taken).

    The lower bound [bcet] takes the optimistic side everywhere; it is used
    for reporting the block-level analysis gap, not for guarantees. *)

type t = {
  wcet : int array;  (** per supergraph node id *)
  bcet : int array;
}

val compute :
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  Wcet_cache.Cache_analysis.result ->
  persistence:Wcet_cache.Persistence.t ->
  t

(** Per-node worst-case cycle bounds under progressively optimistic
    assumptions, used by slack attribution to price each pessimism source:

    - [full] — the bound side, identical to {!compute}'s [wcet];
    - [nc_hit] — not-classified fetches and data loads costed as hits;
    - [cheap_region] — additionally, multi-region data accesses costed at
      their single cheapest candidate region;
    - [no_stall] — additionally, the conditional-branch taken-penalty
      removed.

    The four arrays are pointwise monotone decreasing in that order, so
    consecutive differences (the per-source slack contributions) are
    non-negative. *)
type ladder = {
  full : int array;
  nc_hit : int array;
  cheap_region : int array;
  no_stall : int array;
}

val ladder :
  Pred32_hw.Hw_config.t ->
  Wcet_value.Analysis.result ->
  Wcet_cache.Cache_analysis.result ->
  persistence:Wcet_cache.Persistence.t ->
  ladder
