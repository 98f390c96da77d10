(** Portfolio driver: run independent path-analysis backends over the same
    spec, take the tightest sound bound, and cross-check the results as a
    soundness oracle.

    Disagreement rules (each one a theorem about sound backends, so a
    violation is a bug in one of them — E0303):

    - a fact-blind, non-path-sensitive complete backend can never report a
      bound below the fact-using IPET bound (facts and path pruning only
      tighten);
    - the model checker explores a subset of the constraint solver's
      structural paths under identical weights, so mc <= csolve;
    - on a fact-free spec IPET answers from the loop forest, whose longest
      path is the flow optimum, so it equals the [simplex] oracle's bound;
    - when [oracles] are given (the analyzer's [verify]), a complete
      backend can never undercut a certified witness path it is required to account
      for (structural witnesses bind non-path-sensitive backends;
      semantically feasible witnesses bind everyone).

    Slack a backend can attribute — fact-blindness, path-sensitivity — is
    exempted by construction of the rules above, so every surviving
    disagreement is real. *)

type run = {
  r_name : string;
  r_path_sensitive : bool;
  r_fact_blind : bool;
  r_exact_witness : bool;
  r_outcome : (Path_analysis.solution, Path_analysis.error) result;
  r_wall_us : int;  (** solve wall time, microseconds *)
}

type result = {
  p_runs : run list;  (** in backend order *)
  p_oracles : run list;  (** the [oracles]' runs, in oracle order *)
  p_best : (string * Path_analysis.solution) option;
      (** tightest complete bound; ties prefer IPET (stable counts) *)
  p_disagreements : string list;  (** E0303 findings, empty when sound *)
  p_intractable : string list;  (** backends excluded by budget (W0305) *)
}

(** [run ?oracles ~backends spec loops] solves with every backend, one
    after another, in list order, each inside a [path.<name>] trace span.
    [oracles] (the analyzer's [verify] passes csolve, and the simplex for a
    fact-free spec) arm the witness cross-check: the oracle backends run
    alongside and join the cross-check, but never supply the bound and are
    left out of [p_runs] and [p_intractable]; [p_oracles] keeps their
    runs. Without [oracles] the witness check is off. *)
val run :
  ?oracles:(module Path_analysis.BACKEND) list ->
  backends:(module Path_analysis.BACKEND) list ->
  Path_analysis.spec ->
  Wcet_cfg.Loops.info ->
  result
