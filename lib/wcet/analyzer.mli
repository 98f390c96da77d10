(** The static WCET analyzer: Figure 1 of the paper, end to end.

    [analyze] drives the phases in order — decoding / CFG reconstruction
    (with iterative indirect-call resolution), loop and value analysis,
    cache analysis, pipeline (basic-block timing) analysis, and IPET path
    analysis — and returns both the bound and every intermediate artifact
    for inspection. The per-phase wall-clock times are recorded, which is
    what the F1 experiment prints.

    Annotations supply the design-level information of Section 4.3; the
    analyzer trusts them.

    {2 Graceful degradation}

    Problems that are local to one construct do not abort the analysis.
    Instead the construct becomes an {e analysis hole} — it is excluded
    from the bound, a structured {!Wcet_diag.Diag.t} diagnostic records
    what was excluded and how to annotate it away, and the report's
    [verdict] becomes {!Partial}. A partial WCET is explicitly conditional:
    it bounds every path that avoids the holes, and is a true bound for the
    whole program only once each hole is discharged (by annotation or by
    showing the hole unreachable). The degradations are:

    - unresolvable indirect call (W0301): the call is skipped — control
      falls through to the return site; the callee's cost is excluded.
    - unresolvable indirect jump (W0304): a dead end; execution beyond the
      jump is excluded.
    - loop with no derived or annotated bound (W0302): iterations beyond
      the first entry are excluded (back-edge count 0).
    - irreducible region with no covering user flow fact (W0303): limited
      to one pass per block.

    Global problems (undecodable code, unannotated recursion, context
    explosion, value-analysis divergence, an infeasible or unbounded path
    problem) are still fatal and raise {!Analysis_failed} carrying every
    diagnostic collected so far. *)

(** A fatal analysis failure: the payload always contains at least one
    [Error]-severity diagnostic, plus any warnings emitted before the
    failure. *)
exception Analysis_failed of Wcet_diag.Diag.t list

type phase = Decode | Loop_value | Cache | Pipeline | Path

(** [Complete] bounds every execution; [Partial] is conditional on the
    report's [holes]. *)
type confidence = Complete | Partial

(** One excluded construct of a partial analysis. *)
type hole =
  | Hole_call of { site : int; func : string }
  | Hole_jump of { site : int; func : string }
  | Hole_loop of { header : int; func : string; reason : string }
  | Hole_irreducible of { blocks : int list; func : string }

(** What an octagon escalation changed, kept in the report so the
    guidelines auditor can mark the interval-pass findings the relational
    pass resolved ([discharged-by: octagon]). *)
type esc_info = {
  ei_funcs : string list;  (** functions that triggered the escalation *)
  ei_transfers : int;  (** product-domain transfer count *)
  ei_slots : int list;  (** tracked stack/global word addresses *)
  ei_discharged_loops : (int * string * string) list;
      (** (header addr, func, interval cause) of loops the interval pass
          left unbounded and the relational pass bounded *)
  ei_tightened_accesses : (int * string * Wcet_value.Aval.t * Wcet_value.Aval.t) list;
      (** (insn addr, func, interval addr, refined addr) of accesses whose
          address interval strictly tightened under the octagon *)
}

(** What made the [Auto] domain escalate a function: an access the
    interval pass left able to touch two or more memory regions
    ({!Wcet_value.Analysis.regions_spanned}, the auditor's A0509), or a
    loop it left unbounded for an input-dependent or aliased counter. *)
type esc_trigger =
  | Multi_region_access of { insn : int; addr : Wcet_value.Aval.t; regions : string list }
      (** instruction address, interval-pass address, region names *)
  | Loop_hole of { header : int; cause : Wcet_value.Loop_bounds.cause }

(** The escalation decision for one candidate function: one whose
    interval results left an imprecise access or a loop hole. *)
type esc_decision =
  | Esc_escalated of esc_trigger list  (** its triggers, never empty *)
  | Esc_skipped of string list
      (** every imprecise access stays inside one region; the regions, by
          name *)

(** ["escalate"] or ["skip"]. *)
val esc_decision_name : esc_decision -> string

(** The decision's reason, e.g. ["access at 0x4ac: ⊤ spans 3 regions
    (ram, scratch, io)"], ["loop 0x78 input-dependent"] or ["skipped:
    imprecise accesses confined to region `ram`"]. *)
val esc_decision_reason : esc_decision -> string

(** One ["escalation gate: <func>: <reason>"] line per candidate. *)
val pp_esc_gate : Format.formatter -> (string * esc_decision) list -> unit

(** [[{"func": ..., "decision": "escalate"|"skip", "reason": ...}, ...]]. *)
val esc_gate_to_json : (string * esc_decision) list -> Wcet_diag.Json.t

(** One path-analysis backend's outcome inside a portfolio run (also
    recorded, as a singleton list, when a single backend is forced). *)
type backend_run = {
  br_name : string;  (** ["ipet"] or ["mc"] *)
  br_bound : int option;  (** [None] = the backend failed *)
  br_error : (string * string) option;  (** (diag code, detail) on failure *)
  br_wall_us : int;  (** solve wall time, microseconds *)
  br_winner : bool;  (** supplied the bound the report carries *)
}

(** Whether the portfolio raced the model checker next to IPET. The model
    checker can only undercut IPET through path correlation; a mode guard
    ({!Wcet_value.Modes}) is that correlation, so it races only where the
    value result shows one. *)
type mc_gate =
  | Mc_raced of Wcet_value.Modes.guard list  (** the guards that admitted it *)
  | Mc_gated  (** no mode guard: IPET ran alone *)

(** ["race"] or ["gated"]. *)
val mc_gate_decision : mc_gate -> string

(** The decision's reason: each guard's symbol and sites, or
    ["no mode guard"]. *)
val mc_gate_reason : mc_gate -> string

(** [{"decision": "race"|"gated", "reason": ..., "guards": [...]}]. *)
val mc_gate_to_json : mc_gate -> Wcet_diag.Json.t

type report = {
  program : Pred32_asm.Program.t;
  hw : Pred32_hw.Hw_config.t;
  graph : Wcet_cfg.Supergraph.t;
  loops : Wcet_cfg.Loops.info;
  value : Wcet_value.Analysis.result;
  escalation : esc_info option;
      (** [Some] iff a relational (octagon) escalation ran and refined
          [value]/[derived_bounds]; [None] under [--domain interval] and
          when [auto] found nothing to escalate *)
  esc_gate : (string * esc_decision) list;
      (** [Auto]'s decision for each candidate function, by name; [[]]
          under [Interval] *)
  derived_bounds : Wcet_value.Loop_bounds.t;
  effective_bounds : (int * int) list;  (** (loop index, bound) after annotations *)
  unbounded_loops : (int * string) list;  (** loops degraded to holes, with reasons *)
  cache : Wcet_cache.Cache_analysis.result;
  timing : Wcet_pipeline.Block_timing.t;
  solution : Wcet_ipet.Ipet.solution;
  backend_runs : backend_run list;
      (** per-backend bounds/verdicts/wall times; a singleton unless the
          portfolio raced the model checker *)
  mc_gate : mc_gate;
  wcet : int;  (** cycles, from program entry to halt; partial if [verdict = Partial] *)
  bcet : int;  (** best-case lower bound (shortest feasible walk) *)
  verdict : confidence;
  holes : hole list;
  diagnostics : Wcet_diag.Diag.t list;  (** warnings collected during analysis *)
  phase_seconds : (phase * float) list;
}

(** What {!report_to_json}, {!pp_report}, the CLI's short text, [suggest]
    and the bound-drift ledger read of a report: the bounds, verdict and
    findings without the supergraph or any per-node state. It is what the
    persistent store keeps (about a kilobyte per program). *)
type answer = {
  an_wcet : int;
  an_bcet : int;
  an_verdict : confidence;
  an_nodes : int;  (** supergraph nodes *)
  an_contexts : int;  (** call contexts *)
  an_loops : int;  (** natural loops *)
  an_holes : hole list;
  an_diagnostics : Wcet_diag.Diag.t list;
  an_escalation : esc_info option;
  an_esc_gate : (string * esc_decision) list;
  an_backend_runs : backend_run list;
  an_mc_gate : mc_gate;
  an_loop_bounds : (int * string * int) list;
      (** effective loop bounds as (header address, func, bound) *)
  an_phase_seconds : (phase * float) list;
  an_precision : (string * int) list;
      (** higher-is-worse precision counters (imprecise value accesses,
          not-classified cache accesses, analysis holes): the metric map of
          a {!Wcet_obs.Ledger.entry} *)
}

(** The answer of a report; computes its precision counters once. *)
val answer : report -> answer

(** Fixpoint engine for the value and cache analyses: one whole-program
    solve each ({!Wcet_util.Fixpoint.Make.solve}). The single constructor
    keeps its historical name only as a report-cache key component. *)
type engine = Summary

(** ["summary"]: the engine component of report-cache keys. *)
val engine_name : engine -> string

(** [analyze ?hw ?annot ?domain ?verify program] raises
    {!Analysis_failed} only on global failures (see above); local problems
    degrade to [holes] with a [Partial] verdict.

    [domain] selects the value domain ({!Wcet_value.Analysis.domain},
    default [Interval] — bit-identical to the pre-octagon analyzer).
    [Auto] re-solves, under the interval x octagon reduced product, the
    functions whose interval results left a data access that may touch
    two or more memory regions or an input-dependent/aliased loop-bound
    cause; those functions choose the tracked slots and widening
    thresholds, and each product state is met with the interval one.
    [esc_gate] records each candidate's decision (an imprecise access
    confined to one region is skipped: it costs that region's latency
    whatever its address). The refined result feeds
    every downstream phase, so escalation can tighten memory-region
    classification, cache access sets and loop bounds — never loosen them.

    The path analysis is the portfolio: IPET ({!Wcet_ipet.Ipet}) races
    the slicing + bounded-model-checking backend ({!Wcet_path.Mc}) when
    the value result shows a mode guard ([mc_gate]); the report takes the
    tightest sound bound and cross-checks the results as a soundness
    oracle — a disagreement beyond attributable slack aborts with E0303.
    Without a mode guard IPET runs alone. Either way [backend_runs]
    carries IPET's own bound. A model checker that exhausts its budget is
    dropped with a W0305 warning.

    [path_backend] is a frozen stub for the benchmark driver: it accepts
    only [Portfolio] (the default); [Ipet] raises [Invalid_argument].

    [verify] (default [false]) re-runs the reference configuration and
    compares, aborting on any divergence; bound, verdict and transfer
    counts are unchanged. It checks:
    - an octagon escalation's refined states against the interval states
      at every node, and its bound against a full interval re-analysis
      (E0503);
    - the path backends against certified witness paths, with the
      structural constraint solver ({!Wcet_path.Csolve}) added as the
      structural witness, and, on a fact-free spec, IPET's loop-forest
      bound against the simplex ({!Wcet_ipet.Ipet.Simplex}) (E0303);
    - the mc gate: a run the gate kept IPET-only also runs the
      model checker as an oracle, and an Info W0306 records a tighter
      bound the gate missed (a precision oracle: the bound stays IPET's);
    - the escalation trigger: under [Auto], every candidate is escalated
      as an oracle, and an Info W0502 records each skipped function where
      an access address or loop bound would have tightened (the result
      stays the gated one's).
    The reference solves add to the fixpoint-transfer and path-solve
    metrics.

    [analyze] always runs every phase: the persistent store keeps
    {!answer}s, keyed by source bytes, and only
    [Wcet_serve.Handlers.analyze] reads or writes it.

    [cancel] is a cooperative cancellation token (the daemon's per-request
    deadline): it is polled by the value/cache fixpoints before every
    transfer and by the analyzer between phases; when it returns [true],
    {!Wcet_util.Fixpoint.Cancelled} escapes with no partial report. *)
val analyze :
  ?hw:Pred32_hw.Hw_config.t ->
  ?annot:Wcet_annot.Annot.t ->
  ?domain:Wcet_value.Analysis.domain ->
  ?path_backend:Wcet_path.Path_analysis.choice ->
  ?verify:bool ->
  ?cancel:(unit -> bool) ->
  Pred32_asm.Program.t ->
  report

val phase_name : phase -> string
val pp_hole : Format.formatter -> hole -> unit
val pp_report : Format.formatter -> answer -> unit

(** ["complete"] or ["partial"]: the verdict as the report JSON, the
    ledger and watch-mode events name it. *)
val verdict_name : confidence -> string

(** Machine-readable report: wcet, bcet, verdict, holes, diagnostics,
    per-loop effective bounds, per-phase times, and the [escalation]
    block: null without a candidate, else its [gate]
    ({!esc_gate_to_json}) plus, when a function escalated, what the
    octagon changed. A function of the answer alone: the one-shot CLI
    appends the run's metrics and trace itself. *)
val report_to_json : answer -> Wcet_diag.Json.t

(** JSON object for a failed analysis ([Analysis_failed] payload):
    [{"wcet": null, "verdict": "failed", "diagnostics": [...]}]. *)
val failure_to_json : Wcet_diag.Diag.t list -> Wcet_diag.Json.t
