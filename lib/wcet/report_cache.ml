(* Persistent content-addressed analysis cache.

   One granularity over one Wcet_util.Store: the analyzer's answer
   (Analyzer.answer: bounds, verdict, findings, no per-node state), keyed
   by the bytes the front end compiles (source and annotation file), the
   front end, and the configuration (soft_div, hardware, value domain). The
   caller looks the answer up before compiling, so a hit skips the
   compiler and every analysis phase and is bit-identical to the run that
   wrote it; a miss compiles the hashed bytes, analyzes from scratch and
   writes one entry of about a kilobyte, so an answer is a function of its
   key alone.

   Keys are md5 content hashes; entry envelopes carry a version string
   (format + salt, the salt being the executable's digest in the CLI), so a
   rebuild or a format bump invalidates by version mismatch rather than by
   key. Corrupt or mismatched entries are evicted, counted, reported as
   W0610/W0611 warnings and recomputed — never a crash.

   Whole marshaled reports under the program key ([report_key],
   [find_report], [save_report]) remain only as frozen stubs for the
   benchmark's replay, which keeps its own store of them. *)

module Program = Pred32_asm.Program
module Image = Pred32_memory.Image
module Memory_map = Pred32_memory.Memory_map
module Hw_config = Pred32_hw.Hw_config
module Supergraph = Wcet_cfg.Supergraph
module Analysis = Wcet_value.Analysis
module Cache_analysis = Wcet_cache.Cache_analysis
module Annot = Wcet_annot.Annot
module Store = Wcet_util.Store
module Diag = Wcet_diag.Diag
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace

(* Bump when the marshaled answer (or replay report) layout changes or a
   key component changes meaning (5: the escalation record lost its
   requested-domain field; 6: backend runs record microseconds; 7: cache
   states are set-indexed; 8: the memory image holds only non-zero
   words; 9: the report records the model checker's gate decision; 10:
   the escalation solves only the escalated functions, so its recorded
   transfer count changed meaning; 11: no report is solved from
   per-function slices any more, so recorded transfer counts no longer
   depend on what the store held; 12: the value and cache analyses run
   one whole-program solve, which transfers a few more nodes than the
   component schedule on some programs; 13: the report no longer records
   a requested path backend, and its mc gate decision is always set; 14:
   the report records the octagon escalation's gate decision, and [auto]
   no longer escalates imprecision confined to one memory region; 15: the
   store keeps answers, not reports, under a key of the source bytes, and
   reports go only to the replay's own store). *)
let format_version = "15"

let m_hits_program =
  Metrics.counter ~labels:[ ("granularity", "program") ] ~name:"cache_store_hits"
    ~help:"Persistent-cache hits at program granularity" ()

let m_misses_program =
  Metrics.counter ~labels:[ ("granularity", "program") ] ~name:"cache_store_misses"
    ~help:"Persistent-cache misses at program granularity" ()

let m_evictions =
  Metrics.counter ~name:"cache_store_evictions"
    ~help:"Persistent-cache entries evicted (corrupt or version-mismatched)" ()

let m_bytes_read =
  Metrics.counter ~name:"cache_store_bytes_read"
    ~help:"Payload bytes read from the persistent cache" ()

let m_bytes_written =
  Metrics.counter ~name:"cache_store_bytes_written"
    ~help:"Bytes written to the persistent cache" ()

(* Global configuration: set once by the CLI (or a test) before analyses
   run; worker domains only read it. Off by default so library users and
   the test suite opt in explicitly. *)
let store_ref : Store.t option Atomic.t = Atomic.make None
let salt_ref : string Atomic.t = Atomic.make ""
let version () = format_version ^ Atomic.get salt_ref
let set_version_salt s = Atomic.set salt_ref s

(* Store-layer warnings accumulate here (the analyzer's collector is not in
   scope at lookup time, and appending them to a cached answer would break
   bit-identity); the CLI drains and prints them after the run. *)
let diags_mutex = Mutex.create ()
let diags_rev : Diag.t list ref = ref []

let add_diag d =
  Mutex.protect diags_mutex (fun () -> diags_rev := d :: !diags_rev)

let drain_diags () =
  Mutex.protect diags_mutex (fun () ->
      let ds = List.rev !diags_rev in
      diags_rev := [];
      ds)

let disable () = Atomic.set store_ref None
let enabled () = Atomic.get store_ref <> None
let dir () = Option.map Store.root (Atomic.get store_ref)

let set_dir d =
  match Store.open_store d with
  | Ok s ->
    Atomic.set store_ref (Some s);
    true
  | Error msg ->
    Atomic.set store_ref None;
    add_diag
      (Diag.makef Diag.Warning Diag.Store ~code:"W0612"
         ~hint:"pass --cache-dir DIR or --no-cache" "%s; caching disabled for this run" msg);
    false

(* ---- Key derivation ------------------------------------------------- *)

let digest_parts parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let marshal v = Marshal.to_string v []

(* Everything of the program the analyses can observe: entry/layout/symbol
   tables plus the canonical image dump (the non-zero words, sorted by
   address). *)
let program_parts (p : Program.t) =
  [
    marshal (p.Program.entry, p.Program.text_base, p.Program.text_limit, p.Program.functions,
             p.Program.symbols);
    marshal (Memory_map.regions p.Program.map);
    marshal (Image.contents p.Program.image);
  ]

(* Each part length-prefixed, so no byte a source may hold can shift one
   part into the next. *)
let digest_bytes parts =
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts)))

(* Compiling is a deterministic function of the bytes, the front end and
   [soft_div], and of the executable, whose digest salts every envelope's
   version; so the answer of the bytes is the answer of the program they
   compile to. [domain] keeps an escalated answer from ever being served
   to an interval-only request. *)
let answer_key ~source ~annot ~front_end ~soft_div ~hw ~domain =
  Trace.with_span ~cat:"store" "store.key" (fun () ->
      digest_bytes
        [
          "answer";
          front_end;
          (if soft_div then "soft_div" else "hw_div");
          marshal (hw : Hw_config.t);
          Analysis.domain_name domain;
          (match annot with None -> "no annotations" | Some _ -> "annotations");
          Option.value annot ~default:"";
          source;
        ])

(* The program key of a whole marshaled report: a frozen stub that only
   the benchmark's replay derives. [engine], [strategy] and [path] are
   constants there ("summary", rpo, "portfolio"). *)
let report_key ~hw ~annot ~strategy ~engine ~domain ~path program =
  Trace.with_span ~cat:"store" "store.key" (fun () ->
      digest_parts
        ("report" :: engine :: domain :: path
        :: marshal (hw : Hw_config.t)
        :: marshal (annot : Annot.t)
        :: Wcet_util.Fixpoint.strategy_name strategy
        :: program_parts program))

(* ---- Store plumbing -------------------------------------------------- *)

let evict store key ~code ~why =
  ignore (Store.remove store ~key);
  Metrics.incr m_evictions 1;
  add_diag
    (Diag.makef Diag.Warning Diag.Store ~code "%s; entry evicted and the result recomputed" why)

(* Read an entry of [kind]; handles corruption/version eviction. Returns
   the payload on a clean hit. *)
let read_entry store ~kind ~key =
  match Store.read store ~key with
  | Store.Miss -> None
  | Store.Corrupt reason ->
    evict store key ~code:"W0610" ~why:(Printf.sprintf "cache entry is corrupt (%s)" reason);
    None
  | Store.Hit { kind = k; version = v; payload } ->
    if v <> version () then begin
      evict store key ~code:"W0611"
        ~why:
          (Printf.sprintf "cache entry was written by tool version %s (this is %s)" v
             (version ()));
      None
    end
    else if k <> kind then begin
      evict store key ~code:"W0610"
        ~why:(Printf.sprintf "cache entry has kind %s where %s was expected" k kind);
      None
    end
    else begin
      Metrics.incr m_bytes_read (String.length payload);
      Some payload
    end

let find ~kind ~key =
  match Atomic.get store_ref with
  | None -> None
  | Some store -> (
    match
      Trace.with_span ~cat:"store" "store.read" (fun () -> read_entry store ~kind ~key)
    with
    | Some payload ->
      Metrics.incr m_hits_program 1;
      Some payload
    | None ->
      Metrics.incr m_misses_program 1;
      None)

let save ~kind ~key payload =
  match Atomic.get store_ref with
  | None -> ()
  | Some store -> (
    match Store.write store ~key ~kind ~version:(version ()) payload with
    | Ok n -> Metrics.incr m_bytes_written n
    | Error _ -> ()  (* a failed write only costs a future miss *))

(* ---- Answers ---------------------------------------------------------- *)

let answer_kind = "answer"

let find_answer ~key =
  match find ~kind:answer_kind ~key with
  | None -> None
  | Some payload -> (
    (* The envelope checksum and version already passed; a decode failure
       here means marshal-layout drift: evict, reclassify the hit as a miss
       and let the caller recompute. *)
    match
      Trace.with_span ~cat:"store" "store.decode" (fun () ->
          (Marshal.from_string payload 0 : Analyzer.answer))
    with
    | a -> Some a
    | exception _ ->
      (match Atomic.get store_ref with
      | None -> ()
      | Some store -> evict store key ~code:"W0610" ~why:"cached answer failed to deserialize");
      Metrics.decr m_hits_program 1;
      Metrics.incr m_misses_program 1;
      None)

let save_answer ~key (a : Analyzer.answer) =
  if enabled () then
    Trace.with_span ~cat:"store" "store.write" (fun () ->
        save ~kind:answer_kind ~key (marshal a))

(* ---- Frozen report stubs --------------------------------------------- *)

let find_report ~hw ~annot ~strategy ~engine ~domain ~path program =
  if enabled () then
    find ~kind:"report" ~key:(report_key ~hw ~annot ~strategy ~engine ~domain ~path program)
  else None

let save_report ~hw ~annot ~strategy ~engine ~domain ~path program payload =
  if enabled () then
    save ~kind:"report" ~key:(report_key ~hw ~annot ~strategy ~engine ~domain ~path program)
      payload

(* ---- Frozen slice stubs -------------------------------------------- *)

(* No value of [slices] exists: the store keeps answers only. These
   names stay for the benchmark's replay (see the .mli). *)
type slices = |

let load_slices ~hw:_ ~annot:_ ~assumes:_ (_ : Supergraph.t) : slices option = None
let hit_functions : slices -> string list = function _ -> .
let value_slice : slices -> Analysis.slice = function _ -> .
let cache_slice : slices -> Analysis.result -> Cache_analysis.slice = function _ -> .
