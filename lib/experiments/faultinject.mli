(** Fault-injection robustness harness: the toolchain must never crash on
    malformed input — every failure is a structured {!Wcet_diag.Diag.t}
    with a stable code.

    {!classify_exn} is the single mapping from the toolchain's documented
    exception families to diagnostics; [bin/wcet_tool]'s top-level handler
    and this campaign share it, so "handled gracefully" means the same
    thing in production and under test. Deliberately generic exceptions
    ([Failure], [Invalid_argument], [Not_found], assertion failures) are
    {e not} classified: letting them through is exactly the bug the
    campaign exists to catch.

    The campaign mutates inputs along five axes — MiniC source text,
    assembly text, linked binary images (corrupted instruction words,
    truncated code), annotation text (including well-formed but bogus or
    contradictory annotations), and memory maps — and drives each mutant
    through compile/analyze/simulate under a fuel cap. Everything is
    seeded PCG32: a campaign is reproducible from its seed. *)

(** [classify_exn e] is the structured diagnostic for a documented,
    expected failure, or [None] for anything that should count as a
    crash. *)
val classify_exn : exn -> Wcet_diag.Diag.t option

type outcome =
  | Ran_complete  (** mutant compiled and analyzed to a complete bound *)
  | Ran_partial  (** analyzed with holes (partial bound) *)
  | Rejected of Wcet_diag.Diag.t  (** failed with a structured diagnostic *)
  | Crashed of string  (** escaped exception — a robustness bug *)

type trial = { family : string; index : int; outcome : outcome }

type campaign = {
  trials : trial list;
  complete : int;
  partial : int;
  rejected : int;
  crashed : int;
}

(** Crash-free. *)
val ok : campaign -> bool

(** [(code, count)] histogram over the rejected trials. *)
val rejection_histogram : campaign -> (string * int) list

(** [run ?seed ?minic ?annots ?asm ?binary ?memmap ()] runs the campaign:
    [minic] source-text mutants (default 120), [annots] annotation mutants
    (default 60), [asm] assembly-text mutants (default 30), [binary]
    corrupted/truncated images (default 24), plus the fixed bad-memory-map
    suite ([memmap] defaults true). Defaults total 240+ trials. *)
val run :
  ?seed:int64 ->
  ?minic:int ->
  ?annots:int ->
  ?asm:int ->
  ?binary:int ->
  ?memmap:bool ->
  unit ->
  campaign

(** [store_campaign ?seed ?trials ?dir ()] attacks the persistent analysis
    cache: each trial writes a seed program to a source file at the root of
    a store at [dir] (a scratch directory by default, removed afterwards),
    cold-analyzes it through {!Wcet_serve.Handlers.analyze} (the store's one
    reader and writer), then bit-flips, truncates, header-smashes, empties
    or pads [.wcache] answer entries on disk, or re-stamps them with an
    older tool version, and re-analyzes warm. Graceful means: raw
    {!Wcet_util.Store.read} of every damaged entry returns a value
    (Hit/Miss/Corrupt), the warm run heals with registered diagnostics
    (W0610/W0611) and reproduces the cold bound bit for bit. Bound drift or an unregistered heal counts as
    [Crashed]. The process-global cache configuration is saved and
    restored. Default 48 trials. *)
val store_campaign : ?seed:int64 -> ?trials:int -> ?dir:string -> unit -> campaign

(** [run_daemon ?seed ?trials ()] starts an in-process analysis daemon
    ([Wcet_serve.Server], 2 workers, admission queue of 4, 4 KiB frame cap)
    on a scratch socket and attacks it over the real wire: mutated frames,
    truncated JSON, non-JSON garbage, oversized frames, mid-request
    disconnects, concurrent overload bursts, expired deadlines, plus
    well-formed control requests. Graceful means every reply is either
    [ok] or carries a registered diagnostic code, and the server still
    answers a liveness ping after the barrage, then drains cleanly.
    Default 200 trials (the overload family opens 6 connections per
    trial). *)
val run_daemon : ?seed:int64 -> ?trials:int -> unit -> campaign

val pp_campaign : Format.formatter -> campaign -> unit
val to_json : campaign -> Wcet_diag.Json.t
