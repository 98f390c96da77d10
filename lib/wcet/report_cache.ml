(* Persistent content-addressed analysis cache.

   Two granularities over one Wcet_util.Store:

   - "report": the whole marshaled analyzer report, keyed by everything
     the analysis depends on (binary image, memory map, annotations,
     hardware configuration, value domain, path backend). A hit skips every phase
     and is bit-identical to the run that wrote it.

   - "func": per-function summary rows for the component-scheduled
     analyses (Analysis.run_scheduled / Cache_analysis.run_scheduled),
     keyed by the function's OWN code bytes, the annotation slices that
     feed its fixpoints, and the non-text ROM data it may read — not by
     its callees' code. The key is honest: everything it omits
     (caller- and callee-supplied dataflow) is re-checked at apply time:
     Fixpoint.Make.solve_plan only installs a component from rows when
     the external inputs delivered this run semantically equal the
     recorded ones. Editing a callee changes the inputs flowing
     back to its callers, so their rows fail the input check and re-solve;
     editing nothing but one leaf re-solves exactly that leaf's component
     and the components whose inputs actually changed. Cache rows carry
     one more guard: the cache transfer replays the CURRENT run's access
     sets (derived from value states), so a cache row is only offered
     where this run's value states equal the recorded ones (cache_slice).
     A function whose own loads may read the text segment is never
     cached, because its transfer function could then change without its
     key changing.

   Keys are md5 content hashes; entry envelopes carry a version string
   (format + salt), so a format bump invalidates by version mismatch
   rather than by key. Corrupt or mismatched entries are evicted, counted,
   reported as W0610/W0611 warnings and recomputed — never a crash. *)

module Program = Pred32_asm.Program
module Image = Pred32_memory.Image
module Memory_map = Pred32_memory.Memory_map
module Region = Pred32_memory.Region
module Hw_config = Pred32_hw.Hw_config
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Analysis = Wcet_value.Analysis
module Summary = Wcet_value.Summary
module Fixpoint = Wcet_util.Fixpoint
module State = Wcet_value.State
module Aval = Wcet_value.Aval
module Cache_analysis = Wcet_cache.Cache_analysis
module Cstate = Wcet_cache.Cache_analysis.Cstate
module Annot = Wcet_annot.Annot
module Store = Wcet_util.Store
module Diag = Wcet_diag.Diag
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace

(* Bump when the marshaled payload layout changes (report or slice types)
   or a key component changes meaning (5: the escalation record lost its
   requested-domain field; 6: backend runs record microseconds; 7: cache
   states are set-indexed; 8: the memory image holds only non-zero
   words; 9: the report records the model checker's gate decision; 10:
   the escalation solves only the escalated functions, so its recorded
   transfer count changed meaning). *)
let format_version = "10"

let m_hits gran =
  Metrics.counter ~labels:[ ("granularity", gran) ] ~name:"cache_store_hits"
    ~help:("Persistent-cache hits at " ^ gran ^ " granularity") ()

let m_hits_program = m_hits "program"
let m_hits_function = m_hits "function"

let m_misses gran =
  Metrics.counter ~labels:[ ("granularity", gran) ] ~name:"cache_store_misses"
    ~help:("Persistent-cache misses at " ^ gran ^ " granularity") ()

let m_misses_program = m_misses "program"
let m_misses_function = m_misses "function"

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

(* ---- Per-function slices -------------------------------------------- *)

(* A node is addressed position-independently by its context signature —
   the chain of (function, caller-block-entry) pairs from the root — plus
   its own block entry address. One call per block (a call terminates a
   block), so the signature is unique per node. *)
type node_sig = (string * int) list * int

type slice_row = {
  rsig : node_sig;
  rvinput : State.t option;  (* external value input delivered when recorded *)
  rvalue : (State.t * State.t) option;  (* converged value (in, out) *)
  rlinkage : int list;  (* frame-linkage registrations replayed on apply *)
  rcinput : Cstate.t option;  (* external cache input delivered when recorded *)
  rcache : (Cstate.t * Cstate.t) option;  (* converged cache (in, out) *)
}

let ctx_sig (graph : Supergraph.t) =
  let memo = Array.make (Array.length graph.Supergraph.contexts) None in
  let rec go cid =
    match memo.(cid) with
    | Some s -> s
    | None ->
      let c = graph.Supergraph.contexts.(cid) in
      let s =
        match c.Supergraph.parent with
        | None -> [ (c.Supergraph.cfunc, -1) ]
        | Some (pcid, caller) ->
          (c.Supergraph.cfunc,
           graph.Supergraph.nodes.(caller).Supergraph.block.Func_cfg.entry)
          :: go pcid
      in
      memo.(cid) <- Some s;
      s
  in
  go

let node_sig graph =
  let csig = ctx_sig graph in
  fun (n : Supergraph.node) ->
    ((csig n.Supergraph.ctx, n.Supergraph.block.Func_cfg.entry) : node_sig)

(* ROM words outside the text segment: constant data the value analysis
   can read through State.load. Text words are covered per function by
   Program.code_digest; functions whose loads may reach into text are not
   cached at all (see may_read_text). *)
let rom_data_digest (p : Program.t) =
  Image.contents p.Program.image
  |> List.filter (fun (addr, _) ->
         (addr < p.Program.text_base || addr >= p.Program.text_limit)
         &&
         match Memory_map.find p.Program.map addr with
         | Some r -> r.Region.kind = Region.Rom
         | None -> false)
  |> marshal |> Digest.string |> Digest.to_hex

(* Functions containing indirect control flow, whose resolution depends on
   annotations or global dataflow. *)
let indirect_funcs (graph : Supergraph.t) =
  let indirect : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match n.Supergraph.block.Func_cfg.term with
      | Func_cfg.Term_call_indirect _ | Func_cfg.Term_jump_indirect _ ->
        Hashtbl.replace indirect n.Supergraph.func ()
      | _ -> ())
    graph.Supergraph.nodes;
  fun f -> Hashtbl.mem indirect f

(* Per-function key: the function's OWN code and the configuration its
   transfer functions read — deliberately NOT its callees' code. The
   summary apply rule re-checks everything the key omits: a row is only
   installed when the external inputs delivered this run equal the
   recorded ones, so a changed callee invalidates its callers through
   changed dataflow, not through the key. *)
let function_key ~hw ~(annot : Annot.t) ~assumes ~rom_data ~has_indirect
    (program : Program.t) fname =
  let own_code =
    match Program.find_function program fname with
    | Some fi -> [ string_of_int fi.Program.entry; Program.code_digest program fi ]
    | None -> [ "?" ]
  in
  let region_slices =
    List.filter (fun (g, _) -> g = fname) annot.Annot.memory_regions |> List.sort compare
  in
  let indirect_salt =
    if has_indirect fname then [ marshal (annot.Annot.call_targets, annot.Annot.setjmp_auto) ]
    else []
  in
  digest_parts
    ([
       "func";
       fname;
       marshal (hw : Hw_config.t);
       marshal (Memory_map.regions program.Program.map);
       Printf.sprintf "%d:%d" program.Program.text_base program.Program.text_limit;
       marshal (assumes : (int * Aval.t) list);
       marshal annot.Annot.recursion_depths;
       marshal region_slices;
       rom_data;
     ]
    @ indirect_salt @ own_code)

(* A function whose loads may read inside the text segment could change
   behaviour when *other* code moves, without its own key changing: never
   cache it. Unknown-address loads may read anywhere. *)
let may_read_text (program : Program.t) (value : Analysis.result) nodes_of_func fname =
  let text_lo = program.Program.text_base and text_hi = program.Program.text_limit in
  List.exists
    (fun nid ->
      List.exists
        (fun (a : Analysis.access) ->
          (not a.Analysis.is_store)
          &&
          match Aval.range a.Analysis.addr with
          | None -> true
          | Some (lo, hi) -> lo < text_hi && hi >= text_lo)
        value.Analysis.accesses.(nid))
    (nodes_of_func fname)

(* ---- Store plumbing -------------------------------------------------- *)

let evict store key ~code ~why =
  ignore (Store.remove store ~key);
  Metrics.incr m_evictions 1;
  add_diag
    (Diag.makef Diag.Warning Diag.Store ~code "%s; entry evicted and the result recomputed" why)

(* Read an entry expecting [kind]; handles corruption/version eviction.
   Returns the payload on a clean hit. *)
let read_entry store ~key ~kind =
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

let write_entry store ~key ~kind payload =
  match Store.write store ~key ~kind ~version:(version ()) payload with
  | Ok n -> Metrics.incr m_bytes_written n
  | Error _ -> ()  (* a failed write only costs a future miss *)

(* ---- Whole-program reports ------------------------------------------ *)

let find ~key =
  match Atomic.get store_ref with
  | None -> None
  | Some store -> (
    match
      Trace.with_span ~cat:"store" "store.read" (fun () -> read_entry store ~key ~kind:"report")
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
  | Some store -> write_entry store ~key ~kind:"report" payload

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

(* ---- Per-function summary slices ------------------------------------ *)

type slices = {
  srows : slice_row option array;  (* node-indexed restored rows *)
  shit_functions : string list;  (* functions restored from the store *)
}

let hit_functions s = s.shit_functions

let nodes_by_func (graph : Supergraph.t) =
  let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match Hashtbl.find_opt tbl n.Supergraph.func with
      | Some l -> l := n.Supergraph.id :: !l
      | None -> Hashtbl.add tbl n.Supergraph.func (ref [ n.Supergraph.id ]))
    graph.Supergraph.nodes;
  fun f -> match Hashtbl.find_opt tbl f with Some l -> !l | None -> []

let cached_function_names (graph : Supergraph.t) =
  let program = graph.Supergraph.program in
  List.filter_map
    (fun (f : Program.func_info) ->
      (* only functions the graph actually expanded *)
      if
        Array.exists
          (fun (n : Supergraph.node) -> n.Supergraph.func = f.Program.name)
          graph.Supergraph.nodes
      then Some f.Program.name
      else None)
    program.Program.functions

let load_slices ~hw ~annot ~assumes (graph : Supergraph.t) =
  match Atomic.get store_ref with
  | None -> None
  | Some store ->
    Trace.with_span ~cat:"store" "store.read" (fun () ->
        let program = graph.Supergraph.program in
        let has_indirect = indirect_funcs graph in
        let rom_data = rom_data_digest program in
        let nsig = node_sig graph in
        let n = Array.length graph.Supergraph.nodes in
        let by_sig : (node_sig, int) Hashtbl.t = Hashtbl.create n in
        Array.iter
          (fun (node : Supergraph.node) -> Hashtbl.replace by_sig (nsig node) node.Supergraph.id)
          graph.Supergraph.nodes;
        let srows = Array.make n None in
        let hits = ref [] in
        List.iter
          (fun fname ->
            let key = function_key ~hw ~annot ~assumes ~rom_data ~has_indirect program fname in
            match read_entry store ~key ~kind:"func" with
            | None ->
              Metrics.incr m_misses_function 1
            | Some payload -> (
              match (Marshal.from_string payload 0 : string * slice_row list) with
              | exception _ ->
                evict store key ~code:"W0610" ~why:"cached function slice failed to deserialize";
                Metrics.incr m_misses_function 1
              | (dom, _) when dom <> "interval" ->
                (* Slices are interval-domain facts: an entry tagged with any
                   other domain would feed refined (escalated) states into a
                   baseline run, so it is evicted and recomputed. *)
                evict store key ~code:"W0613"
                  ~why:(Printf.sprintf "cached slice was recorded under the %s value domain" dom);
                Metrics.incr m_misses_function 1
              | (_, rows) ->
                List.iter
                  (fun row ->
                    match Hashtbl.find_opt by_sig row.rsig with
                    | None -> ()  (* context no longer exists; harmless *)
                    | Some nid -> srows.(nid) <- Some row)
                  rows;
                Metrics.incr m_hits_function 1;
                hits := fname :: !hits))
          (cached_function_names graph);
        if !hits = [] then None else Some { srows; shit_functions = List.rev !hits })

let value_slice slices =
  {
    Summary.rows =
      (fun i ->
        Option.map
          (fun row -> { Fixpoint.input = row.rvinput; states = row.rvalue })
          slices.srows.(i));
    linkage = (fun i -> match slices.srows.(i) with Some row -> row.rlinkage | None -> []);
  }

(* The cache transfer function at node [i] replays this run's access set
   (value.Analysis.accesses.(i), a deterministic function of the converged
   value in-state), which neither the per-function key nor the cache-state
   input check covers. A row's cache states were computed under the value
   states recorded beside them, so the row is offered to the scheduled
   cache analysis only at nodes where this run's value analysis converged
   to semantically equal states — there the old and new transfer functions
   coincide. Anywhere else a stale out-state could freeze must-cache
   contents the wider access set no longer guarantees and classify later
   accesses Always_hit unsoundly (a WCET underestimate), so the row is
   withheld and the component re-solves. *)
let cache_slice slices (value : Analysis.result) i =
  match slices.srows.(i) with
  | None -> None
  | Some row ->
    let value_matches =
      match (row.rvalue, value.Analysis.node_in.(i), value.Analysis.node_out.(i)) with
      | Some (s_in, s_out), Some v_in, Some v_out ->
        Summary.equal_state s_in v_in && Summary.equal_state s_out v_out
      | None, None, None -> true
      | _ -> false
    in
    if value_matches then
      Some { Fixpoint.input = row.rcinput; states = row.rcache }
    else None

let save_slices ~hw ~annot ~assumes (value : Analysis.result)
    (vinfo : Summary.info) (cache : Cache_analysis.result) cache_input =
  match Atomic.get store_ref with
  | None -> ()
  | Some store ->
    Trace.with_span ~cat:"store" "store.write" (fun () ->
        let graph = value.Analysis.graph in
        let program = graph.Supergraph.program in
        let has_indirect = indirect_funcs graph in
        let rom_data = rom_data_digest program in
        let nsig = node_sig graph in
        let nodes_of = nodes_by_func graph in
        List.iter
          (fun fname ->
            if not (may_read_text program value nodes_of fname) then begin
              let key = function_key ~hw ~annot ~assumes ~rom_data ~has_indirect program fname in
              (* Overwrite any existing entry: the key does not cover
                 caller-supplied dataflow, so it may hold rows recorded under
                 inputs that no longer flow; the store always tracks the
                 latest run. *)
              let rows =
                List.map
                  (fun nid ->
                    {
                      rsig = nsig graph.Supergraph.nodes.(nid);
                      rvinput = vinfo.Summary.ext_input.(nid);
                      rvalue =
                        (match (value.Analysis.node_in.(nid), value.Analysis.node_out.(nid)) with
                        | Some i, Some o -> Some (i, o)
                        | _ -> None);
                      rlinkage = vinfo.Summary.node_linkage.(nid);
                      rcinput = cache_input.(nid);
                      rcache =
                        (match
                           (cache.Cache_analysis.node_in.(nid), cache.Cache_analysis.node_out.(nid))
                         with
                        | Some i, Some o -> Some (i, o)
                        | _ -> None);
                    })
                  (nodes_of fname)
              in
              write_entry store ~key ~kind:"func"
                (marshal (("interval", rows) : string * slice_row list))
            end)
          (cached_function_names graph))
