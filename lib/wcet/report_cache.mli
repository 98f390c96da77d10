(** Persistent content-addressed analysis cache (the tool's warm-rerun
    layer).

    Two granularities over one {!Wcet_util.Store}: whole-program marshaled
    reports (a hit skips every analysis phase and reproduces the cold run
    bit for bit) and per-function summary rows for the component-scheduled
    analyses (on a report miss, components whose rows match re-install
    without transferring — incremental re-analysis in O(changed)). The
    per-function key is honest: it covers the function's OWN code bytes,
    its annotation slices and the constant ROM data it may read — not its
    callees — because the summary apply rule re-checks the omitted
    dataflow at apply time (external inputs must semantically equal the
    recorded ones). Entry envelopes carry a version string; corrupt or
    version-mismatched entries are evicted, reported as W0610/W0611
    warnings and recomputed, never a crash.

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
    configuration and the program. Opens a [store.key] trace span. *)
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

(** {1 Per-function summary slices}

    One store entry per function holds the summary rows of its nodes:
    external inputs delivered when recorded, converged value and cache
    states, and frame-linkage registrations. The scheduled analyses apply
    a whole component from rows when every member's row matches the
    dataflow delivered this run ({!Wcet_value.Analysis.run_scheduled}). *)

type slices

(** [load_slices ~hw ~annot ~assumes graph] reads every matching
    per-function entry; [None] when caching is off or nothing matched.
    [assumes] must be the resolved assume set the value analysis will run
    with. *)
val load_slices :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  assumes:(int * Wcet_value.Aval.t) list ->
  Wcet_cfg.Supergraph.t ->
  slices option

(** Functions restored from the store. *)
val hit_functions : slices -> string list

(** Node-indexed row view for the scheduled value analysis. *)
val value_slice : slices -> Wcet_value.Summary.slice

(** [cache_slice slices value] is the node-indexed row view for the
    scheduled cache analysis, restricted to nodes whose value states in
    the converged result [value] semantically equal the ones recorded
    beside the cache states. The cache transfer replays the current run's
    access sets (derived from value states), which the per-function key
    does not cover; applying cache rows computed under different value
    states could freeze stale must-cache contents and underestimate the
    bound. *)
val cache_slice :
  slices -> Wcet_value.Analysis.result -> Wcet_cache.Cache_analysis.summary_slice

(** [save_slices ~hw ~annot ~assumes value vinfo cache cache_input] writes
    one slice entry per analyzed function (skipping functions whose loads
    may read the text segment); [cache_input] is the per-node external
    input of the scheduled cache run. An existing entry under the same key is
    overwritten: the key does not cover caller-supplied dataflow, so it
    may hold rows from an older run. *)
val save_slices :
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  assumes:(int * Wcet_value.Aval.t) list ->
  Wcet_value.Analysis.result ->
  Wcet_value.Summary.info ->
  Wcet_cache.Cache_analysis.result ->
  Wcet_cache.Cache_analysis.Cstate.t option array ->
  unit
