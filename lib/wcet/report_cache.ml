(* Persistent content-addressed analysis cache.

   One granularity over one Wcet_util.Store: the whole marshaled analyzer
   report, keyed by everything the analysis depends on (binary image,
   memory map, annotations, hardware configuration, value domain, path
   backend). A hit skips every phase and is bit-identical to the run that
   wrote it; a miss analyzes from scratch and writes one entry, so a
   report is a function of its key alone.

   Keys are md5 content hashes; entry envelopes carry a version string
   (format + salt), so a format bump invalidates by version mismatch
   rather than by key. Corrupt or mismatched entries are evicted, counted,
   reported as W0610/W0611 warnings and recomputed — never a crash. *)

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

(* Bump when the marshaled report layout changes or a key component
   changes meaning (5: the escalation record lost its
   requested-domain field; 6: backend runs record microseconds; 7: cache
   states are set-indexed; 8: the memory image holds only non-zero
   words; 9: the report records the model checker's gate decision; 10:
   the escalation solves only the escalated functions, so its recorded
   transfer count changed meaning; 11: no report is solved from
   per-function slices any more, so recorded transfer counts no longer
   depend on what the store held; 12: the value and cache analyses run
   one whole-program solve, which transfers a few more nodes than the
   component schedule on some programs; 13: the report no longer records
   a requested path backend, and its mc gate decision is always set). *)
let format_version = "13"

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
   scope at lookup time, and appending them to a cached report would break
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

(* [engine] and [strategy] are fixed by the analyzer ("summary", rpo); they
   stay key components so keys computed by external replay tools remain
   stable. [domain] is the
   value-domain name ("interval" / "auto"): an escalated run carries
   refined states and extra escalation accounting, so its report must
   never be served to (or overwrite) an interval-only run. *)
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

(* The store's one entry kind. *)
let kind = "report"

(* Read a report entry; handles corruption/version eviction. Returns the
   payload on a clean hit. *)
let read_entry store ~key =
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

(* ---- Whole-program reports ------------------------------------------ *)

let find ~key =
  match Atomic.get store_ref with
  | None -> None
  | Some store -> (
    match
      Trace.with_span ~cat:"store" "store.read" (fun () -> read_entry store ~key)
    with
    | Some payload ->
      Metrics.incr m_hits_program 1;
      Some payload
    | None ->
      Metrics.incr m_misses_program 1;
      None)

let save ~key payload =
  match Atomic.get store_ref with
  | None -> ()
  | Some store -> (
    match Store.write store ~key ~kind ~version:(version ()) payload with
    | Ok n -> Metrics.incr m_bytes_written n
    | Error _ -> ()  (* a failed write only costs a future miss *))

(* The caller could not decode a payload [find] returned (marshal layout
   drift not covered by the version string): reclassify the hit as a miss
   and evict the entry. *)
let invalidate ~key =
  (match Atomic.get store_ref with
  | None -> ()
  | Some store -> evict store key ~code:"W0610" ~why:"cached report failed to deserialize");
  Metrics.decr m_hits_program 1;
  Metrics.incr m_misses_program 1

let find_report ~hw ~annot ~strategy ~engine ~domain ~path program =
  if enabled () then find ~key:(report_key ~hw ~annot ~strategy ~engine ~domain ~path program)
  else None

let save_report ~hw ~annot ~strategy ~engine ~domain ~path program payload =
  if enabled () then
    save ~key:(report_key ~hw ~annot ~strategy ~engine ~domain ~path program) payload

(* ---- Frozen slice stubs -------------------------------------------- *)

(* No value of [slices] exists: the store keeps whole-program reports
   only. These names stay for the benchmark's replay (see the .mli). *)
type slices = |

let load_slices ~hw:_ ~annot:_ ~assumes:_ (_ : Supergraph.t) : slices option = None
let hit_functions : slices -> string list = function _ -> .
let value_slice : slices -> Analysis.slice = function _ -> .
let cache_slice : slices -> Analysis.result -> Cache_analysis.slice = function _ -> .
