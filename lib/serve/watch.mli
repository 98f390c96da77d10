(** Watch mode: a polling mtime/digest scanner with debounce.

    The daemon polls a directory for MiniC ([.mc]) and assembly ([.s])
    sources. A file whose content digest changed is re-analyzed once its
    content has been stable for the debounce window (rapid editor save
    bursts coalesce into one analysis). Only the {e delta} is streamed to
    subscribed clients: changed functions (by code-byte digest), bound
    drift, and new/discharged findings.

    The module is deliberately passive: {!poll} does one scan and returns
    the events to publish; the server owns the thread and the cadence. *)

module Json := Wcet_diag.Json

(** [analyze path] produces the fresh report, or the diagnostics of a
    failed analysis. Must not raise: the server wraps its classifier
    around the real analysis (an unreadable/vanishing file may simply
    return [Error]). *)
type analyze = string -> (Wcet_core.Analyzer.report, Wcet_diag.Diag.t list) result

type t

(** [create ~dir ~debounce_s ~analyze] — no I/O happens here; the first
    {!poll} is the baseline scan (analyzed silently, no events). *)
val create : dir:string -> debounce_s:float -> analyze:analyze -> t

(** One scan. Returned events are [{"event": ..., "path": ..., ...}]
    objects ({!Proto.event}):
    - ["change"]: wcet/old_wcet/drift, verdict, changed_functions,
      new_findings (full diagnostics), discharged_findings (code+func)
    - ["analysis-failed"]: the failure diagnostics
    - ["vanished"]: the file disappeared or became unreadable (W0701)

    [now] is the monotonic time used for debouncing (injectable so tests
    need not sleep). *)
val poll : ?now:float -> t -> Json.t list
