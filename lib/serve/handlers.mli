(** The daemon's standard method set, mirroring the one-shot CLI commands.

    | method      | params                                              | result |
    |-------------|-----------------------------------------------------|--------|
    | [ping]      | —                                                   | [{"pong": true}] |
    | [analyze]   | [source], [annot]?, [hw]?, [soft_div]?              | the [analyze --format=json] report |
    | [explain]   | like [analyze]                                      | the [explain --format=json] object |
    | [audit]     | like [analyze]                                      | the [audit --format=json] object |
    | [metrics]   | —                                                   | the metrics snapshot |
    | [cache]     | —                                                   | store stats of the warm cache |
    | [codes]     | —                                                   | the diagnostic-code registry |

    A failed analysis ([Analysis_failed]) is NOT an exception at the wire
    level: the result is the [{"verdict": "failed", ...}] object the CLI
    prints, because that is part of the shared report schema. Compile and
    input errors raise their usual documented exceptions, which the server
    classifies into error replies.

    [source] paths are resolved by the daemon process ([.mc] MiniC or [.s]
    assembly), and [hw] accepts [default]/[uncached]/[no-hw-div]. *)

module Json := Wcet_diag.Json

(** Raised for request parameters that are missing or unusable (maps to
    D0702 at the server). *)
exception Bad_params of string

(** [compile_file ~soft_div path] is the source dispatch the CLI shares
    with the daemon: a [.s] file goes straight to the assembler, anything
    else compiles as MiniC ([soft_div] lowers division to the software
    routine). Frontend and [Sys_error] exceptions escape to the caller's
    classifier. *)
val compile_file : soft_div:bool -> string -> Pred32_asm.Program.t

(** [standard ~cancel ~meth ~params] runs one method; [None] for an
    unknown method. [cancel] is the request's deadline token, threaded
    into {!Wcet_core.Analyzer.analyze} (so
    {!Wcet_util.Fixpoint.Cancelled} may escape). *)
val standard : cancel:(unit -> bool) -> meth:string -> params:Json.t -> Json.t option

(** Watch mode's analysis of one source file under default settings.
    [Error] is a failed analysis; frontend/input exceptions escape to the
    caller's classifier. *)
val analyze_source :
  string -> (Wcet_core.Analyzer.report, Wcet_diag.Diag.t list) result
