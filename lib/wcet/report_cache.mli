(** Persistent content-addressed analysis cache (the tool's warm-rerun
    layer).

    One {!Wcet_util.Store} entry per whole-program report: a hit skips
    every analysis phase and reproduces the cold run bit for bit; a miss
    analyzes from scratch and writes one entry. A report is therefore a
    function of its key alone, whatever the store held before. Entry
    envelopes carry a version string; corrupt or version-mismatched
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
    They are kept out of cached reports to preserve bit-identity; the CLI
    prints them on stderr after the run. *)
val drain_diags : unit -> Diag.t list

(** {1 Whole-program reports}

    Payloads are opaque bytes: the analyzer marshals/unmarshals its report
    type itself (this module cannot name it without a dependency cycle). *)

(** The store key of a whole-program report: a digest of the analysis
    configuration and the program. Opens a [store.key] trace span. [path]
    is a frozen component: the analyzer always passes ["portfolio"], so
    keys are those of the two-backend era, and the benchmark driver still
    names it. *)
val report_key :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  strategy:Wcet_util.Fixpoint.strategy ->
  engine:string ->
  domain:string ->
  path:string ->
  Pred32_asm.Program.t ->
  string

(** The report payload stored under [key], if any (counted as a program
    hit or miss). [None] without a store. *)
val find : key:string -> string option

(** Store [payload] under [key]; a no-op without a store. *)
val save : key:string -> string -> unit

(** The payload [find] returned failed to deserialize: evict it and
    reclassify the hit as a miss (W0610). *)
val invalidate : key:string -> unit

(** [find] and [save] under the {!report_key} of these arguments. *)
val find_report :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  strategy:Wcet_util.Fixpoint.strategy ->
  engine:string ->
  domain:string ->
  path:string ->
  Pred32_asm.Program.t ->
  string option

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
