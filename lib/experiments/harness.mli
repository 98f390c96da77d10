(** Experiment harness: runs corpus scenarios through the analyzer and the
    simulator and renders the tables reproduced by [bench/main.exe]
    (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
    paper-vs-measured record). *)

type verdict =
  | Bound of int  (** complete analysis with this WCET bound (cycles) *)
  | Partial of int * Wcet_diag.Diag.t list
      (** conditional bound: analysis holes remain; full diagnostics kept *)
  | Fails of Wcet_diag.Diag.t list
      (** analysis failed; the full structured diagnostics (truncation, if
          any, happens at render time only) *)

type run = {
  entry_id : string;
  variant : string;  (** "conforming" or "violating" *)
  automatic : verdict;  (** with the empty annotation set *)
  assisted : verdict;  (** with the scenario's annotations *)
  uses_annotations : bool;
  observed : int;  (** max simulated cycles over the scenario's input sets *)
  misra_violations : int;  (** checker findings on the scenario source *)
}

(** [run_scenario ~id ~variant scenario] compiles, analyzes twice
    (automatic / assisted), simulates all input sets and checks soundness
    (raises [Failure] if any observed run exceeds a computed bound). *)
val run_scenario : id:string -> variant:string -> Wcet_corpus.Corpus.scenario -> run

val run_entry : Wcet_corpus.Corpus.entry -> run * run

(** [ratio run] is assisted-bound / observed, when both exist. *)
val ratio : run -> float option

(** E1: the MISRA rule study table. Corpus entries are analyzed across the
    {!Wcet_util.Parallel} domain pool ([domains] defaults to the
    [PAR_DOMAINS]/hardware default); rows are rendered in corpus order, so
    the table is identical for every domain count. *)
val table_rules : ?domains:int -> Format.formatter -> unit -> unit

(** E2: the tier-two (design-level information) table; parallel like
    {!table_rules}. *)
val table_tier_two : ?domains:int -> Format.formatter -> unit -> unit

(** [table_of ?domains entries ppf title] renders the E1/E2-style table for
    an arbitrary entry subset (exposed for the parallel-determinism tests). *)
val table_of :
  ?domains:int -> Wcet_corpus.Corpus.entry list -> Format.formatter -> string -> unit

(** E4: one row of the interval-vs-auto value-domain comparison. Each
    corpus entry's conforming scenario is analyzed twice with its
    annotations — once under [Interval], once under [Auto] (interval with
    on-demand octagon escalation) — and the precision deltas recorded.
    Computing a row re-asserts the acceptance invariant that a
    complete-vs-complete bound never increases under escalation (the
    reduced product only adds constraints); a violation is a [Failure]. *)
type e4_row = {
  e4_entry : string;
  e4_interval : verdict;  (** assisted verdict under [Interval] *)
  e4_auto : verdict;  (** assisted verdict under [Auto] *)
  e4_interval_secs : float;  (** wall-clock of the interval analysis *)
  e4_auto_secs : float;  (** wall-clock of the auto analysis *)
  e4_escalated : int;  (** functions the escalation driver re-solved *)
  e4_transfers : int;  (** product-domain transfer count *)
  e4_loops : int;  (** loops the relational pass discharged *)
  e4_accesses : int;  (** accesses the relational pass tightened *)
  e4_value_nonexact : int * int;
      (** non-singleton access addresses: (interval run, auto run) *)
  e4_cache_nc : int * int;
      (** not-classified cache accesses: (interval run, auto run) *)
}

(** All E4 rows, in corpus order (entries fan out across the domain pool
    like {!table_rules}). *)
val e4_rows : ?domains:int -> unit -> e4_row list

val pp_e4 : Format.formatter -> e4_row list -> unit

(** E4: the value-domain precision table ({!pp_e4} over {!e4_rows}). *)
val table_e4 : ?domains:int -> Format.formatter -> unit -> unit

(** E5: one row of the path-analysis portfolio comparison. Each corpus
    entry's conforming scenario is analyzed once under the default
    portfolio and the per-backend bounds/wall times read from the report's
    [backend_runs]. Computing a row re-asserts the acceptance invariant
    that the portfolio bound never exceeds the IPET bound (the portfolio
    includes IPET); a violation is a [Failure]. *)
type e5_row = {
  e5_entry : string;
  e5_verdict : verdict;  (** portfolio verdict/bound *)
  e5_backends : Wcet_core.Analyzer.backend_run list;
  e5_winner : string;  (** backend that supplied the bound, ["-"] on failure *)
  e5_mc_gate : Wcet_core.Analyzer.mc_gate option;
      (** whether the model checker raced ([None] on failure); the table
          shows [gated] in the mc column when it did not *)
}

(** All E5 rows, in corpus order (entries fan out across the domain pool
    like {!table_rules}). *)
val e5_rows : ?domains:int -> unit -> e5_row list

val pp_e5 : Format.formatter -> e5_row list -> unit

(** E5: the path-backend portfolio table ({!pp_e5} over {!e5_rows}). *)
val table_e5 : ?domains:int -> Format.formatter -> unit -> unit

(** Raised by {!table_t1} (and classified to its registered code by
    [Faultinject.classify_exn]) when an environment override is invalid. *)
exception Invalid_env of Wcet_diag.Diag.t

(** The LDIVMOD_SAMPLES override: [Ok samples] (default 10_000_000 when
    unset), or [Error d] with an E0110 diagnostic when the value is not a
    positive integer. *)
val samples_from_env : unit -> (int, Wcet_diag.Diag.t) result

(** T1: the lDivMod iteration histogram (Table 1 of the paper), printed
    next to the paper's values. [samples] defaults to [10_000_000]; the
    environment variable LDIVMOD_SAMPLES overrides it (raising
    [Invalid_env] on a malformed value). [seed] defaults to the paper
    date; [domains] is the histogram fan-out width (the result is
    domain-count independent). *)
val table_t1 : ?samples:int -> ?seed:int64 -> ?domains:int -> Format.formatter -> unit -> unit

(** F1: the analysis-phase table (Figure 1 reproduced as the phase list
    with measured runtimes on the quickstart program). *)
val table_f1 : Format.formatter -> unit -> unit

(** A1/A2: ablation tables for the design choices DESIGN.md calls out —
    the single-path (if-conversion) transformation the paper's related work
    critiques, and the cache-geometry sensitivity the COLA project studied.
    [single_path_measurements] returns ((bound, observed) branchy,
    (bound, observed) single-path) for the ablation workload. *)
val table_ablations : Format.formatter -> unit -> unit

val single_path_measurements : unit -> (int * int) * (int * int)

(** All rows, for tests; entries run across the domain pool. *)
val all_runs : ?domains:int -> unit -> run list

(** The quickstart program used by F1 and the benchmarks. *)
val quickstart_source : string
