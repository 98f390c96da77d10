(** Soundness cross-validation: simulated cycle counts must never exceed
    complete analysis bounds ([wcet_tool check]).

    Every corpus scenario is compiled, analyzed with its annotations, and —
    when the analysis is {e complete} — simulated over its declared input
    sets plus seeded random inputs. Random values respect the scenario's
    trusted annotations: a symbol with an [assume lo..hi] range is sampled
    inside that range, and other poked cells are recombined from the values
    the scenario's declared input sets use (annotations are contracts;
    inputs outside them prove nothing). Partial bounds are conditional on
    their analysis holes, so they are counted but not cycle-checked.

    Any simulated run exceeding its complete bound is an E0601 diagnostic —
    an analyzer soundness bug, never a corpus problem. Runs that fault or
    exhaust fuel under random inputs are recorded as W0602 (the comparison
    is inconclusive, not violated).

    Each complete scenario also exercises slack attribution
    ({!Wcet_core.Attribution}): the per-source decomposition must sum
    exactly to bound − observed, and a violation surfaces as an E0804
    check violation. *)

type stats = {
  scenarios : int;  (** scenarios visited *)
  complete : int;  (** analyses with a complete verdict (cycle-checked) *)
  partial : int;  (** partial verdicts (counted, not cycle-checked) *)
  failed : int;  (** analyses raising [Analysis_failed] *)
  simulations : int;  (** simulated runs compared against a bound *)
  attributed : int;  (** scenarios whose slack attribution summed exactly *)
  portfolio_wins : int;
      (** scenarios where the portfolio bound was strictly below its own
          IPET run's (zero unless [verify] was requested) *)
  violations : Wcet_diag.Diag.t list;  (** E0601/E0804/E0303 violations *)
  diagnostics : Wcet_diag.Diag.t list;  (** W0602 inconclusive runs *)
}

(** [run ?seed ?domain ?verify ?random_per_scenario ?ledger ()] cross-validates the
    whole corpus. [seed] (default the paper date) drives the PCG32 input
    generator; [domain] (default [Interval]) selects the value domain the
    analyzer runs under — pass [Auto] to cycle-check the octagon-escalated
    bounds too; [random_per_scenario] (default 8) is the number of random
    input sets per scenario on top of the declared ones. When [ledger] is
    set, one bound-drift snapshot per scenario is appended to that NDJSON
    file ({!Wcet_obs.Ledger}).

    [verify] (default off) runs every analysis under
    {!Wcet_core.Analyzer.analyze}'s reference cross-checks, and
    additionally asserts that no complete scenario's portfolio bound
    exceeds the bound of the report's own [ipet] run (a violation surfaces
    under the E0303 code); per-backend bounds then ride along in the
    ledger metrics as [path_bound_<backend>]. *)
val run :
  ?seed:int64 ->
  ?domain:Wcet_value.Analysis.domain ->
  ?verify:bool ->
  ?random_per_scenario:int ->
  ?ledger:string ->
  unit ->
  stats

(** Zero violations and zero failed analyses. *)
val ok : stats -> bool

val pp_stats : Format.formatter -> stats -> unit
val to_json : stats -> Wcet_diag.Json.t
