(** Persistent content-addressed analysis cache (the tool's warm-rerun
    layer).

    One {!Wcet_util.Store} entry per {!Analyzer.answer}, keyed by the
    source and annotation bytes, the front end and the configuration
    ({!answer_key}). [Wcet_serve.Handlers.analyze] looks the answer up
    before compiling: a hit skips the compiler and every analysis phase and
    reproduces the cold answer bit for bit; a miss compiles the bytes it
    hashed, analyzes from scratch and writes one entry of about a
    kilobyte. An answer is therefore a function of its key alone, whatever
    the store held before. Commands that need analysis states ([explain],
    [audit], [--attribute], [check]) re-analyze and never read the store.
    Entry envelopes carry a version string; corrupt or version-mismatched
    entries are evicted, reported as W0610/W0611 warnings and recomputed,
    never a crash.

    Configuration is process-global and read-only for worker domains: the
    CLI calls {!set_dir} (or {!disable}) once before any analysis runs.
    The library default is disabled. *)

module Diag := Wcet_diag.Diag

(** {1 Configuration} *)

(** [set_dir d] opens (creating if needed) the store at [d] and enables
    caching; on failure caching stays disabled, a W0612 warning is queued
    and [false] is returned. *)
val set_dir : string -> bool

val disable : unit -> unit
val enabled : unit -> bool
val dir : unit -> string option

(** Version string recorded in entry envelopes (format version plus salt).
    [set_version_salt] exists so tests and forks can force invalidation. *)
val version : unit -> string

val set_version_salt : string -> unit

(** Store-layer warnings (W0610/W0611/W0612) queued since the last drain.
    They are kept out of cached answers to preserve bit-identity; the CLI
    prints them on stderr after the run. *)
val drain_diags : unit -> Diag.t list

(** {1 Answers} *)

(** The store key of an answer: a digest of the source bytes, the
    annotation-file bytes ([None] without an annotation file), the front
    end (["asm"] for [.s], ["minic"] otherwise), [soft_div], the hardware
    configuration and the value domain. Opens a [store.key] trace span. *)
val answer_key :
  source:string ->
  annot:string option ->
  front_end:string ->
  soft_div:bool ->
  hw:Pred32_hw.Hw_config.t ->
  domain:Wcet_value.Analysis.domain ->
  string

(** The answer stored under [key], if any (counted as a program hit or
    miss; [store.read] and [store.decode] spans). An entry that fails to
    decode is evicted (W0610) and counted as a miss. [None] without a
    store. *)
val find_answer : key:string -> Analyzer.answer option

(** Store an answer under [key] ([store.write] span); a no-op without a
    store. *)
val save_answer : key:string -> Analyzer.answer -> unit

(** {1 Frozen report stubs}

    The store once kept whole marshaled {!Analyzer.report}s under a key of
    the compiled program. Nothing in the tool reads or writes them now:
    these three exist only because the benchmark's replay
    ([perfbench/ocaml/bench.ml]) keeps whole reports in its own store
    through them. They go with the replay. Report entries have their own
    kind, so an answer is never decoded as a report or the reverse. *)

(** The program key of a whole report: a digest of the analysis
    configuration and the program. Opens a [store.key] trace span.
    [strategy], [engine] and [path] are constants in the replay. *)
val report_key :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  strategy:Wcet_util.Fixpoint.strategy ->
  engine:string ->
  domain:string ->
  path:string ->
  Pred32_asm.Program.t ->
  string

(** The report payload stored under {!report_key} of these arguments, if
    any (counted as a program hit or miss). [None] without a store. *)
val find_report :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  strategy:Wcet_util.Fixpoint.strategy ->
  engine:string ->
  domain:string ->
  path:string ->
  Pred32_asm.Program.t ->
  string option

(** Store a report payload under {!report_key} of these arguments; a no-op
    without a store. *)
val save_report :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  strategy:Wcet_util.Fixpoint.strategy ->
  engine:string ->
  domain:string ->
  path:string ->
  Pred32_asm.Program.t ->
  string ->
  unit

(** {1 Frozen slice stubs}

    The store once kept per-function summary slices beside the reports.
    It keeps none now: [slices] has no values, {!load_slices} always
    returns [None], and the other three can never be called. They exist
    only because the benchmark's replay ([perfbench/ocaml/bench.ml] and
    [perfbench/ocaml/replay.ml]) calls them, and they go in the benchmark
    change that also drops the [run_scheduled ?slice] stubs of
    {!Wcet_value.Analysis} and {!Wcet_cache.Cache_analysis}. *)

type slices = |

val load_slices :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  assumes:(int * Wcet_value.Aval.t) list ->
  Wcet_cfg.Supergraph.t ->
  slices option

val hit_functions : slices -> string list
val value_slice : slices -> Wcet_value.Analysis.slice
val cache_slice : slices -> Wcet_value.Analysis.result -> Wcet_cache.Cache_analysis.slice
