(** The one implementation of each request step — compile, load
    annotations, analyze, audit, render — shared by the one-shot CLI, the
    daemon's standard methods and watch mode. Front ends differ only in the
    {!config} they pass, in text rendering and in exit codes.

    The daemon's standard method set:

    | method      | params                                              | result |
    |-------------|-----------------------------------------------------|--------|
    | [ping]      | —                                                   | [{"pong": true}] |
    | [analyze]   | [source], [annot]?, [hw]?, [soft_div]?              | the [analyze --format=json] report |
    | [explain]   | like [analyze]                                      | the [explain --format=json] object |
    | [audit]     | like [analyze]                                      | the [audit --format=json] object |
    | [metrics]   | [format]? ([json] or [prometheus])                  | the metrics snapshot |
    | [cache]     | —                                                   | store stats of the warm cache |
    | [codes]     | —                                                   | the diagnostic-code registry |

    The analysis methods run the interval domain without [--verify] (the
    daemon's one {!config}, chosen where the params are decoded), so they
    answer what [wcet_tool <method> --format json --domain interval]
    prints, timing keys aside. [analyze] answers through the persistent
    store ({!analyze}); [explain] and [audit] read analysis states, so they
    re-analyze.

    A failed analysis ([Analysis_failed]) is NOT an exception at the wire
    level: the result is the [{"verdict": "failed", ...}] object the CLI
    prints, because that is part of the shared report schema. Compile and
    input errors — an unparsable annotation file (E0404) included — raise
    their usual documented exceptions, which the server classifies into
    error replies.

    [source] paths are resolved by the daemon process ([.mc] MiniC or [.s]
    assembly) and [hw] accepts [default]/[uncached]/[no-hw-div]. The path
    analysis is always the portfolio: a request that still names the
    retired [path_backend] param is a D0702 reply, whatever its value. *)

module Json := Wcet_diag.Json

(** Raised for request parameters that are missing or unusable (maps to
    D0702 at the server). *)
exception Bad_params of string

(** The analyzer configuration a front end runs every analysis under. *)
type config = { domain : Wcet_value.Analysis.domain; verify : bool }

(** One analysis request on a source file. [annot] is an annotation-file
    path. *)
type request = {
  source : string;
  annot : string option;
  hw : Pred32_hw.Hw_config.t;
  soft_div : bool;
  config : config;
}

(** A report, or the fatal diagnostics of a failed analysis. *)
type outcome = (Wcet_core.Analyzer.report, Wcet_diag.Diag.t list) result

(** An answer, or the fatal diagnostics of a failed analysis. *)
type answer = (Wcet_core.Analyzer.answer, Wcet_diag.Diag.t list) result

val read_file : string -> string

(** [compile_file ~soft_div path]: a [.s] file goes straight to the
    assembler, anything else compiles as MiniC ([soft_div] lowers division
    to the software routine). Frontend and [Sys_error] exceptions escape to
    the caller's classifier. *)
val compile_file : soft_div:bool -> string -> Pred32_asm.Program.t

(** [run ?cancel config ~hw ~annot program] is {!Wcet_core.Analyzer.analyze}
    under [config], with [Analysis_failed] returned as [Error]. [cancel] is
    the daemon's deadline token ({!Wcet_util.Fixpoint.Cancelled} may
    escape). *)
val run :
  ?cancel:(unit -> bool) ->
  config ->
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  Pred32_asm.Program.t ->
  outcome

(** The answer of a request, through the persistent store when one is
    set ({!Wcet_core.Report_cache}). Reads the source and annotation
    files once and looks their {!Wcet_core.Report_cache.answer_key} up
    before compiling: a hit returns the stored answer. A miss compiles the
    bytes it hashed, loads the annotations (a syntax error raises
    [Analysis_failed] with one E0404 diagnostic, which escapes like a
    compile error), {!run}s, and stores the answer. A [verify] request
    neither reads nor writes the store, and a failed analysis is never
    stored. *)
val analyze : ?cancel:(unit -> bool) -> request -> answer

(** {!analyze} on bytes already read: [source] stands for the file
    [request.source] names (its suffix picks the front end) and [annot]
    for the annotation file's bytes. Exported only so that a test can hand
    the miss path bytes the file does not hold and check that the stored
    answer is theirs; front ends call {!analyze} or {!full_report}. *)
val analyze_text :
  ?cancel:(unit -> bool) -> request -> source:string -> annot:string option -> answer

(** Compile, load annotations, then {!run}: the report with every analysis
    state, for the commands that read states ([explain], [--attribute],
    watch mode). Never reads or writes the store. *)
val full_report : ?cancel:(unit -> bool) -> request -> outcome

(** {!run}, then grade the outcome ({!Misra.Audit.of_report} or
    {!Misra.Audit.of_failure}). *)
val audit_program :
  ?cancel:(unit -> bool) ->
  config ->
  hw:Pred32_hw.Hw_config.t ->
  annot:Wcet_annot.Annot.t ->
  misra:Misra.Checker.violation list ->
  ?coverage:(int -> int) ->
  Pred32_asm.Program.t ->
  outcome * Misra.Audit.t

(** The audit pipeline on a source file: compile, load annotations, MiniC
    rule check (skipped for [.s]), one zero-input simulator run for
    coverage, then {!audit_program}. Never reads or writes the store. *)
val audit : ?cancel:(unit -> bool) -> request -> outcome * Misra.Audit.t

(** [root], [version], [entries], [bytes] and [by_kind] of an open store. *)
val store_stats_fields : Wcet_util.Store.t -> (string * Json.t) list

(** Hex digest of a file's bytes; [""] when it cannot be read. *)
val file_digest : string -> string

(** The bound-drift snapshot of one answer: its verdict ([failed] on
    [Error]), bound and precision counters. [digest] identifies the program
    text, [observed] the worst simulated run. *)
val ledger_entry :
  program:string -> digest:string -> ?observed:int -> answer -> Wcet_obs.Ledger.entry

(** [standard ~cancel ~meth ~params] runs one method; [None] for an
    unknown method. *)
val standard : cancel:(unit -> bool) -> meth:string -> params:Json.t -> Json.t option

(** The daemon's request for a bare source path: no annotations, the
    default hardware, no [soft_div], the interval domain without
    [verify]. *)
val bare_request : string -> request

(** Watch mode's analysis of one source file: the {!full_report} of its
    {!bare_request} (watch events read function digests of
    the compiled program). Frontend/input exceptions escape to the
    caller's classifier. *)
val analyze_source : string -> outcome
