(** Slack attribution: exact decomposition of [bound − observed cycles]
    into typed pessimism sources.

    Per block (all supergraph contexts sharing one entry address) the slack
    telescopes through a ladder of per-execution costs, each dropping one
    worst-case assumption (see {!Wcet_pipeline.Block_timing.ladder}); the
    five buckets sum to the total slack with no residue — asserted by
    [of_report] itself (E0804 on violation) and again by [wcet_tool check]
    on every corpus program. DESIGN.md §5i derives the identity. *)

type source =
  | Cache_unclassified
      (** not-classified cache accesses costed as misses — the maximum the
          cache analysis could recover by classifying them *)
  | Value_multi_region
      (** imprecise address intervals costed at the worst candidate memory
          region — what an exact value analysis could recover *)
  | Pipeline_stall  (** conditional branches costed as taken *)
  | Flow_count
      (** loop/path bounds exceeding this run's execution counts (signed:
          negative on blocks the ILP under-visits relative to this run) *)
  | Dynamic_residual
      (** signed remainder: actual dynamic behaviour vs the fully
          optimistic ladder model *)

val sources : source list
val source_name : source -> string
val source_help : source -> string

type block_row = {
  addr : int;
  func : string;
  bound_count : int;
  obs_count : int;
  bound_cycles : int;
  obs_cycles : int;
  slack : int;
  by_source : (source * int) list;
}

type loop_row = {
  header_addr : int;
  loop_func : string;
  loop_bound : int option;
  observed_head : int;
}

type t = {
  a_bound : int;
  a_observed : int;
  a_slack : int;
  a_totals : (source * int) list;  (** sums exactly to [a_slack] *)
  a_blocks : block_row list;  (** descending by slack *)
  a_loops : loop_row list;
  a_uncovered : int;
}

(** [of_report ?pokes ?fuel r] simulates the analyzed program (pokes are
    [(symbol, word index, value)] input injections) and attributes the
    slack. Errors: E0805 if the bound is partial or the simulation does not
    halt; E0804 if the decomposition fails to sum (an internal bug). Also
    sets the [wcet_slack_cycles{source=…}] gauges. *)
val of_report :
  ?pokes:(string * int * int) list ->
  ?fuel:int ->
  Analyzer.report ->
  (t, Wcet_diag.Diag.t) result

val pp : ?top:int -> Format.formatter -> t -> unit
val to_json : t -> Wcet_diag.Json.t
