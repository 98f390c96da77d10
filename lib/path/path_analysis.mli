(** The common path-analysis backend interface (ROADMAP item 4).

    A backend takes the same specification the IPET encoding consumes — the
    value-analysed supergraph, per-node cycle bounds, loop bounds and flow
    facts — and produces a WCET bound with per-node worst-case execution
    counts, or a typed diagnostic. Racing independent backends over the
    same spec and cross-checking their bounds turns every analysis run into
    a soundness test: complete backends that disagree beyond the slack each
    one can attribute expose a bug in one of them (E0303). *)

type fact = {
  fact_coeffs : (int * int) list;  (** (node id, coefficient) *)
  fact_bound : int;  (** sum of coef * count(node) <= bound per run *)
  fact_label : string;  (** for error messages *)
}

type spec = {
  value : Wcet_value.Analysis.result;
  times : int array;  (** per node id, upper bound cycles *)
  loop_bounds : (int * int) list;  (** (loop index, back-edge bound) *)
  facts : fact list;
}

type solution = {
  wcet : int;
  node_counts : int array;  (** worst-case path execution counts per node *)
}

(** A typed failure: [err_code] is a registered diagnostic code (E0301
    unbounded, E0302 infeasible, E0305 backend cannot analyse this
    program, E0304 internal identity violation); [err_detail] is the
    human hint that used to be the whole error string. *)
type error = { err_code : string; err_detail : string }

val unbounded : string -> error
val infeasible : string -> error
val intractable : string -> error
val internal : string -> error

(** What a path-analysis backend must provide, plus the metadata the
    portfolio driver needs for its cross-checks:

    - [path_sensitive]: the backend prunes semantically infeasible paths
      (so its bound may legitimately undercut fact-free IPET);
    - [fact_blind]: the backend ignores [spec.facts] (facts only ever
      tighten a bound, so a fact-blind complete bound below the
      fact-using IPET bound is a soundness bug);
    - [exact_witness]: when [spec.facts = []], the returned bound is the
      cost of one structurally feasible path, i.e. a certified lower
      bound on what any sound backend may report. *)
module type BACKEND = sig
  val name : string
  val path_sensitive : bool
  val fact_blind : bool
  val exact_witness : bool
  val solve : spec -> Wcet_cfg.Loops.info -> (solution, error) result
end

(** Which backend(s) an analysis run uses: [Ipet] alone, or [Portfolio],
    which races IPET and the model checker ([Mc]) where the value result
    shows a mode guard, and runs IPET alone elsewhere. The structural
    constraint solver ([Csolve]) never supplies a bound; [verify] runs it
    as a witness oracle. *)
type choice = Ipet | Portfolio

val choice_name : choice -> string
val choice_of_string : string -> choice option
val all_choices : (string * choice) list

(** [check_identity sol times] verifies sum(count*time) = wcet — the
    invariant [explain]'s slack attribution (E0804) rests on. Returns the
    offending delta when violated. *)
val check_identity : solution -> int array -> (unit, int) result

(** [checked ~who sol times] is [Ok sol] when {!check_identity} holds, and
    otherwise the E0304 internal error naming the solver [who]. *)
val checked : who:string -> solution -> int array -> (solution, error) result

(** {2 Per-backend observability} (no-ops for unknown backend names, so
    test-injected backends need no registration) *)

val record_solve : backend:string -> us:int -> unit
val record_win : backend:string -> unit
val record_intractable : unit -> unit
val record_disagreement : unit -> unit
