module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Analyzer = Wcet_core.Analyzer
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Pcg = Wcet_util.Pcg
module Program = Pred32_asm.Program
module Image = Pred32_memory.Image
module Region = Pred32_memory.Region
module Memory_map = Pred32_memory.Memory_map

let classify_exn = function
  | Sys_error msg -> Some (Diag.make Diag.Error Diag.Frontend ~code:"E0101" msg)
  | Harness.Invalid_env d -> Some d
  | Minic.Lexer.Error (msg, loc) ->
    Some
      (Diag.make Diag.Error Diag.Frontend ~code:"E0102" ~loc:(Diag.at_line loc.Minic.Ast.line)
         msg)
  | Minic.Parser.Error (msg, loc) ->
    Some
      (Diag.make Diag.Error Diag.Frontend ~code:"E0103" ~loc:(Diag.at_line loc.Minic.Ast.line)
         msg)
  | Minic.Typecheck.Error (msg, loc) ->
    Some
      (Diag.make Diag.Error Diag.Frontend ~code:"E0104" ~loc:(Diag.at_line loc.Minic.Ast.line)
         msg)
  | Minic.Codegen.Error msg -> Some (Diag.make Diag.Error Diag.Frontend ~code:"E0105" msg)
  | Pred32_asm.Assembler.Error msg ->
    Some (Diag.make Diag.Error Diag.Frontend ~code:"E0106" msg)
  | Pred32_asm.Asm_parser.Error (msg, line) ->
    Some (Diag.make Diag.Error Diag.Frontend ~code:"E0107" ~loc:(Diag.at_line line) msg)
  | Minic.Compile.Error msg -> Some (Diag.make Diag.Error Diag.Frontend ~code:"E0108" msg)
  | Wcet_cfg.Func_cfg.Decode_error msg ->
    Some (Diag.make Diag.Error Diag.Decode ~code:"E0201" msg)
  | Wcet_cfg.Supergraph.Build_error msg ->
    let code =
      (* recursion without an annotated depth has its own code; everything
         else the supergraph rejects is a reconstruction failure *)
      let contains affix =
        let al = String.length affix and ml = String.length msg in
        let rec go i = i + al <= ml && (String.sub msg i al = affix || go (i + 1)) in
        go 0
      in
      if contains "recursi" then "E0202" else "E0201"
    in
    Some (Diag.make Diag.Error Diag.Decode ~code msg)
  | Analyzer.Analysis_failed ds -> (
    match List.find_opt (fun d -> d.Diag.severity = Diag.Error) ds with
    | Some d -> Some d
    | None -> (
      match ds with
      | d :: _ -> Some d
      | [] -> Some (Diag.make Diag.Error Diag.Internal ~code:"E0901" "empty failure payload")))
  | Image.Bus_error addr ->
    Some
      (Diag.makef Diag.Error Diag.Simulation ~code:"E0603" "bus error: unmapped or unaligned \
                                                            access at 0x%x" addr)
  | Image.Write_to_rom addr ->
    Some (Diag.makef Diag.Error Diag.Simulation ~code:"E0603" "write to ROM at 0x%x" addr)
  | _ -> None

type outcome =
  | Ran_complete
  | Ran_partial
  | Rejected of Diag.t
  | Crashed of string

type trial = { family : string; index : int; outcome : outcome }

type campaign = {
  trials : trial list;
  complete : int;
  partial : int;
  rejected : int;
  crashed : int;
}

let guard f =
  match f () with
  | outcome -> outcome
  | exception e -> (
    match classify_exn e with
    | Some d -> Rejected d
    | None -> Crashed (Printexc.to_string e))

let sim_fuel = 200_000

(* Analyze a linked mutant and briefly simulate it; the simulator returns
   faults as values ([Faulted]), which is graceful by definition — only
   escaped exceptions count as crashes. *)
let drive_program ?(annot = Annot.empty) program =
  let report = Analyzer.analyze ~annot program in
  ignore (Sim.run ~fuel:sim_fuel (Sim.create Pred32_hw.Hw_config.default program));
  match report.Analyzer.verdict with
  | Analyzer.Complete -> Ran_complete
  | Analyzer.Partial -> Ran_partial

(* --- mutation operators ------------------------------------------------ *)

let random_char rng = Char.chr (32 + Pcg.next_int rng 95)

let mutate_text rng s =
  let n = String.length s in
  if n = 0 then String.make 1 (random_char rng)
  else
    match Pcg.next_int rng 5 with
    | 0 -> String.sub s 0 (Pcg.next_int rng n) (* truncate *)
    | 1 ->
      let b = Bytes.of_string s in
      Bytes.set b (Pcg.next_int rng n) (random_char rng);
      Bytes.to_string b
    | 2 ->
      let i = Pcg.next_int rng (n + 1) in
      String.sub s 0 i ^ String.make 1 (random_char rng) ^ String.sub s i (n - i)
    | 3 ->
      let i = Pcg.next_int rng n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ ->
      let b = Bytes.of_string s in
      let i = Pcg.next_int rng n and j = Pcg.next_int rng n in
      let ci = Bytes.get b i in
      Bytes.set b i (Bytes.get b j);
      Bytes.set b j ci;
      Bytes.to_string b

(* Stack a few mutations so mutants drift further from well-formed input. *)
let mutate_text_n rng s =
  let rec go s k = if k = 0 then s else go (mutate_text rng s) (k - 1) in
  go s (1 + Pcg.next_int rng 3)

(* --- seed inputs ------------------------------------------------------- *)

let minic_seeds =
  [
    Harness.quickstart_source;
    "int n; int main() { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } \
     return s; }";
    "int buf[8]; int main() { int i; for (i = 0; i < 8; i = i + 1) { buf[i] = i * i; } return \
     buf[7]; }";
  ]

let asm_seed =
  ".func main\n\
  \  li r2, 5\n\
  \  li r1, 0\n\
   loop:\n\
  \  add r1, r1, r2\n\
  \  subi r2, r2, 1\n\
  \  bne r2, r0, loop\n\
  \  ret\n\
   .data value ram\n\
  \  .word 7\n"

let annot_seed =
  "# quickstart annotations\n\
   assume sensor in [0, 200]\n\
   loop in main bound 4\n\
   maxcount filter <= 4\n"

(* Well-formed but wrong: unknown names, contradictions, absurd values.
   These must parse (or fail with E0404) and then degrade or fail with
   structured analysis diagnostics — never crash. *)
let adversarial_annots =
  [
    "calltargets at 0x40 = no_such_function";
    "assume no_such_symbol in [0, 1]";
    "memory main = no_such_region";
    "maxcount no_such_function <= 3";
    "loop in no_such_function bound 9";
    "maxcount main <= 0\nmaxcount main <= 5";
    "recursion main depth 1000000";
    "loop in main bound 0";
    "assume sensor in [200, 0]";
    "setjmp auto\nsetjmp auto";
  ]

(* --- trial families ---------------------------------------------------- *)

let minic_trial rng i =
  let seed = List.nth minic_seeds (i mod List.length minic_seeds) in
  let source = mutate_text_n rng seed in
  guard (fun () -> drive_program (Compile.compile source))

let asm_trial rng _i =
  let text = mutate_text_n rng asm_seed in
  guard (fun () ->
      drive_program (Pred32_asm.Assembler.link (Pred32_asm.Asm_parser.parse text)))

let annot_trial rng i =
  let n_adv = List.length adversarial_annots in
  let text =
    if i < n_adv then List.nth adversarial_annots i else mutate_text_n rng annot_seed
  in
  guard (fun () ->
      let program = Compile.compile Harness.quickstart_source in
      match Annot.parse text with
      | Error msg -> Rejected (Diag.make Diag.Error Diag.Annot ~code:"E0404" msg)
      | Ok annot -> drive_program ~annot program)

let binary_trial rng i =
  guard (fun () ->
      let program =
        Compile.compile (List.nth minic_seeds (i mod List.length minic_seeds))
      in
      let image = Image.copy program.Program.image in
      let text_words = (program.Program.text_limit - program.Program.text_base) / 4 in
      if i mod 4 = 3 then begin
        (* truncation: wipe the tail of the text segment *)
        let keep = Pcg.next_int rng text_words in
        Image.load_words image
          ~base:(program.Program.text_base + (4 * keep))
          (Array.make (text_words - keep) 0)
      end
      else
        (* corrupt a few instruction words *)
        for _ = 0 to Pcg.next_int rng 4 do
          let w = Pcg.next_int rng text_words in
          Image.load_words image
            ~base:(program.Program.text_base + (4 * w))
            [| Pcg.next_uint32_int rng |]
        done;
      drive_program { program with Program.image })

let bad_maps () =
  let r = Region.make in
  [
    ( "tiny-rom",
      Memory_map.make
        [
          r ~name:"rom" ~kind:Region.Rom ~base:0 ~size:256 ~read_latency:2 ~write_latency:2
            ~cacheable:true ~writable:false;
          r ~name:"ram" ~kind:Region.Ram ~base:0x10000000 ~size:0x100000 ~read_latency:6
            ~write_latency:6 ~cacheable:true ~writable:true;
        ] );
    ( "tiny-ram",
      Memory_map.make
        [
          r ~name:"rom" ~kind:Region.Rom ~base:0 ~size:0x40000 ~read_latency:2
            ~write_latency:2 ~cacheable:true ~writable:false;
          r ~name:"ram" ~kind:Region.Ram ~base:0x10000000 ~size:64 ~read_latency:6
            ~write_latency:6 ~cacheable:true ~writable:true;
        ] );
    ( "readonly-ram",
      Memory_map.make
        [
          r ~name:"rom" ~kind:Region.Rom ~base:0 ~size:0x40000 ~read_latency:2
            ~write_latency:2 ~cacheable:true ~writable:false;
          r ~name:"ram" ~kind:Region.Ram ~base:0x10000000 ~size:0x100000 ~read_latency:6
            ~write_latency:6 ~cacheable:true ~writable:false;
        ] );
    ( "glacial-io-only-ram",
      Memory_map.make
        [
          r ~name:"rom" ~kind:Region.Rom ~base:0 ~size:0x40000 ~read_latency:2
            ~write_latency:2 ~cacheable:true ~writable:false;
          r ~name:"ram" ~kind:Region.Io ~base:0x10000000 ~size:0x100000 ~read_latency:500
            ~write_latency:500 ~cacheable:false ~writable:true;
        ] );
  ]

let memmap_trial (name, map) =
  ignore name;
  guard (fun () -> drive_program (Compile.compile ~map Harness.quickstart_source))

(* --- campaign ---------------------------------------------------------- *)

let run ?(seed = 20110318L) ?(minic = 120) ?(annots = 60) ?(asm = 30) ?(binary = 24)
    ?(memmap = true) () =
  let rng = Pcg.create ~seed () in
  let trials = ref [] in
  let emit family index outcome = trials := { family; index; outcome } :: !trials in
  for i = 0 to minic - 1 do
    emit "minic" i (minic_trial rng i)
  done;
  for i = 0 to annots - 1 do
    emit "annot" i (annot_trial rng i)
  done;
  for i = 0 to asm - 1 do
    emit "asm" i (asm_trial rng i)
  done;
  for i = 0 to binary - 1 do
    emit "binary" i (binary_trial rng i)
  done;
  if memmap then
    List.iteri (fun i m -> emit "memmap" i (memmap_trial m)) (bad_maps ());
  let trials = List.rev !trials in
  let count p = List.length (List.filter p trials) in
  {
    trials;
    complete = count (fun t -> t.outcome = Ran_complete);
    partial = count (fun t -> t.outcome = Ran_partial);
    rejected = count (fun t -> match t.outcome with Rejected _ -> true | _ -> false);
    crashed = count (fun t -> match t.outcome with Crashed _ -> true | _ -> false);
  }

let ok c = c.crashed = 0

let rejection_histogram c =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      match t.outcome with
      | Rejected d ->
        Hashtbl.replace tbl d.Diag.code (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.Diag.code))
      | _ -> ())
    c.trials;
  Hashtbl.fold (fun code n acc -> (code, n) :: acc) tbl [] |> List.sort compare

(* --- cache-store campaign ---------------------------------------------- *)

module Store = Wcet_util.Store
module Report_cache = Wcet_core.Report_cache

let write_whole_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let list_wcache_files root =
  let acc = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | entries ->
      Array.iter
        (fun name ->
          let p = Filename.concat d name in
          if try Sys.is_directory p with Sys_error _ -> false then walk p
          else if Filename.check_suffix p ".wcache" then acc := p :: !acc)
        entries
    | exception Sys_error _ -> ()
  in
  walk root;
  List.sort compare !acc

(* On-disk envelope mutations: the store must degrade every one of these to
   Miss/Corrupt on read, never raise. *)
let corrupt_file rng path kind =
  match Wcet_serve.Handlers.read_file path with
  | exception Sys_error _ -> ()
  | s ->
    let n = String.length s in
    let s' =
      match kind with
      | 0 when n > 0 ->
        (* single bit flip *)
        let b = Bytes.of_string s in
        let i = Pcg.next_int rng n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Pcg.next_int rng 8)));
        Bytes.to_string b
      | 1 when n > 0 -> String.sub s 0 (Pcg.next_int rng n) (* truncate *)
      | 2 -> "" (* zero-length file *)
      | 3 ->
        (* smash the envelope header *)
        let b = Bytes.of_string s in
        for i = 0 to min 7 (n - 1) do
          Bytes.set b i (random_char rng)
        done;
        Bytes.to_string b
      | _ -> s ^ "trailing garbage past the recorded length"
    in
    write_whole_file path s'

(* Run [f] against a store at [dir], restoring the process-global cache
   configuration afterwards (the campaign must not leak state into the
   caller's runs). *)
let with_cache_dir dir f =
  let prev_enabled = Report_cache.enabled () in
  let prev_dir = Report_cache.dir () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Report_cache.drain_diags ());
      match (prev_enabled, prev_dir) with
      | true, Some d -> ignore (Report_cache.set_dir d)
      | _ -> Report_cache.disable ())
    (fun () ->
      if not (Report_cache.set_dir dir) then
        Crashed (Printf.sprintf "cannot open fault-injection store at %s" dir)
      else f ())

let store_trial ~dir rng i =
  guard (fun () ->
      with_cache_dir dir (fun () ->
          let program =
            Compile.compile (List.nth minic_seeds (i mod List.length minic_seeds))
          in
          (match Store.open_store dir with
          | Ok s -> ignore (Store.clear s)
          | Error _ -> ());
          ignore (Report_cache.drain_diags ());
          (* cold run populates report + slice entries *)
          let cold = Analyzer.analyze ~annot:Annot.empty program in
          let files = list_wcache_files dir in
          let n = List.length files in
          if n > 0 then
            for _ = 0 to Pcg.next_int rng 3 do
              corrupt_file rng (List.nth files (Pcg.next_int rng n)) (Pcg.next_int rng 5)
            done;
          (* direct probe: a raw store read of any mutated entry must come
             back as a value (Hit/Miss/Corrupt), never an exception *)
          (match Store.open_store dir with
          | Ok s ->
            List.iter
              (fun p ->
                let key = Filename.chop_suffix (Filename.basename p) ".wcache" in
                ignore (Store.read s ~key))
              files
          | Error _ -> ());
          (* warm run must heal: evict the damage (W0610/W0611), recompute,
             and land on the cold bound bit for bit *)
          let warm = Analyzer.analyze ~annot:Annot.empty program in
          let heals = Report_cache.drain_diags () in
          match
            List.find_opt (fun (d : Diag.t) -> Diag.describe d.Diag.code = None) heals
          with
          | Some d -> Crashed (Printf.sprintf "unregistered heal code %s" d.Diag.code)
          | None ->
            if warm.Analyzer.wcet <> cold.Analyzer.wcet then
              Crashed
                (Printf.sprintf "bound drift after store corruption: cold %d, warm %d"
                   cold.Analyzer.wcet warm.Analyzer.wcet)
            else (
              match warm.Analyzer.verdict with
              | Analyzer.Complete -> Ran_complete
              | Analyzer.Partial -> Ran_partial)))

let summarize trials =
  let count p = List.length (List.filter p trials) in
  {
    trials;
    complete = count (fun t -> t.outcome = Ran_complete);
    partial = count (fun t -> t.outcome = Ran_partial);
    rejected = count (fun t -> match t.outcome with Rejected _ -> true | _ -> false);
    crashed = count (fun t -> match t.outcome with Crashed _ -> true | _ -> false);
  }

let fresh_scratch_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let store_campaign ?(seed = 20110318L) ?(trials = 48) ?dir () =
  let rng = Pcg.create ~seed () in
  let dir, cleanup =
    match dir with
    | Some d -> (d, false)
    | None -> (fresh_scratch_dir "wcet-store-faults", true)
  in
  let out = ref [] in
  for i = 0 to trials - 1 do
    out := { family = "store"; index = i; outcome = store_trial ~dir rng i } :: !out
  done;
  if cleanup then begin
    (match Store.open_store dir with Ok s -> ignore (Store.clear s) | Error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  end;
  summarize (List.rev !out)

(* --- daemon campaign ---------------------------------------------------- *)

module Server = Wcet_serve.Server
module Client = Wcet_serve.Client
module Proto = Wcet_serve.Proto
module Json = Wcet_diag.Json

let strip_newlines s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

(* A failed reply counts as graceful only under a registered code. *)
let reply_outcome (r : Proto.reply) =
  if r.Proto.ok then Ran_complete
  else
    match Proto.error_code r with
    | Some code when Diag.describe code <> None ->
      Rejected (Diag.make Diag.Error Diag.Serve ~code "daemon rejection")
    | Some code -> Crashed (Printf.sprintf "unregistered rejection code %s" code)
    | None -> Crashed "error reply without a diagnostic code"

let with_conn socket_path f =
  match Client.connect socket_path with
  | Error msg -> Crashed ("connect: " ^ msg)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let daemon_read_timeout = 60.

let send_one_frame_and_read socket_path text =
  with_conn socket_path (fun c ->
      match Client.send_raw c text with
      | Error msg -> Crashed ("send: " ^ msg)
      | Ok () -> (
        match Client.read_reply ~timeout_s:daemon_read_timeout c with
        | Error msg -> Crashed ("no reply to an injected frame: " ^ msg)
        | Ok r -> reply_outcome r))

let daemon_trial ~socket_path ~src rng i =
  let analyze_params = Json.Obj [ ("source", Json.String src) ] in
  let well_formed =
    strip_newlines
      (String.trim (Proto.encode_request ~id:(Json.Int i) ~meth:"analyze" analyze_params))
  in
  match i mod 8 with
  | 0 ->
    (* mutated frame: may decode (and then run, fail, or be unknown) or be
       rejected as D0701/D0702 — all typed either way *)
    ("malformed", send_one_frame_and_read socket_path
                    (strip_newlines (mutate_text_n rng well_formed) ^ "\n"))
  | 1 ->
    (* truncated JSON *)
    let cut = Pcg.next_int rng (String.length well_formed) in
    ("truncated", send_one_frame_and_read socket_path (String.sub well_formed 0 cut ^ "\n"))
  | 2 ->
    let garbage = String.init (1 + Pcg.next_int rng 64) (fun _ -> random_char rng) in
    ("not-json", send_one_frame_and_read socket_path (strip_newlines garbage ^ "\n"))
  | 3 ->
    (* oversized: blow past the server's max_frame in one line *)
    ("oversized", send_one_frame_and_read socket_path (String.make 8192 'a' ^ "\n"))
  | 4 ->
    (* mid-request disconnect, then prove the server survived *)
    ( "disconnect",
      match Client.connect socket_path with
      | Error msg -> Crashed ("connect: " ^ msg)
      | Ok c ->
        ignore (Client.send_raw c (Proto.encode_request ~id:(Json.Int i) ~meth:"analyze"
                                     analyze_params));
        Client.close c;
        with_conn socket_path (fun c2 ->
            match
              Client.request ~timeout_s:daemon_read_timeout c2 ~id:(Json.Int i) ~meth:"ping"
                (Json.Obj [])
            with
            | Ok r when r.Proto.ok -> Ran_complete
            | Ok r -> reply_outcome r
            | Error msg -> Crashed ("liveness after disconnect: " ^ msg)) )
  | 5 ->
    (* concurrent overload burst: a small queue sheds load as D0704 while
       everything else is answered typed *)
    ( "overload",
      let conns = List.init 6 (fun _ -> Client.connect socket_path) in
      let outcomes =
        List.mapi
          (fun k conn ->
            match conn with
            | Error msg -> Crashed ("connect: " ^ msg)
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  match
                    Client.request ~timeout_s:daemon_read_timeout ~timeout_ms:1 c
                      ~id:(Json.Int ((i * 16) + k))
                      ~meth:"analyze" analyze_params
                  with
                  | Error msg -> Crashed ("overload reply: " ^ msg)
                  | Ok r ->
                    if r.Proto.ok then Ran_complete else reply_outcome r))
          conns
      in
      let crashedo =
        List.find_opt (function Crashed _ -> true | _ -> false) outcomes
      in
      let rejectedo =
        List.find_opt (function Rejected _ -> true | _ -> false) outcomes
      in
      match (crashedo, rejectedo) with
      | Some o, _ -> o
      | None, Some o -> o
      | None, None -> Ran_complete )
  | 6 ->
    (* deadline expiry: timeout_ms=0 is expired on arrival *)
    ( "deadline",
      with_conn socket_path (fun c ->
          match
            Client.request ~timeout_s:daemon_read_timeout ~timeout_ms:0 c ~id:(Json.Int i)
              ~meth:"analyze" analyze_params
          with
          | Error msg -> Crashed ("deadline reply: " ^ msg)
          | Ok r when not r.Proto.ok -> reply_outcome r
          | Ok r -> (
            match r.Proto.result with
            | Some res when Json.member "verdict" res = Some (Json.String "partial") ->
              Ran_partial
            | Some _ -> Ran_complete (* warm-cache hit beat the deadline poll *)
            | None -> Crashed "ok reply without a result")) )
  | _ ->
    (* well-formed control requests, rotating over the method table *)
    let meths =
      [| ("ping", Json.Obj []); ("metrics", Json.Obj []); ("codes", Json.Obj []);
         ("cache", Json.Obj []); ("analyze", analyze_params);
         ("frobnicate", Json.Obj []) |]
    in
    let meth, params = meths.(i / 8 mod Array.length meths) in
    ( "control",
      with_conn socket_path (fun c ->
          match
            Client.request ~timeout_s:daemon_read_timeout c ~id:(Json.String "ctl")
              ~meth params
          with
          | Error msg -> Crashed ("control reply: " ^ msg)
          | Ok r -> reply_outcome r) )

let run_daemon ?(seed = 20110318L) ?(trials = 200) () =
  let rng = Pcg.create ~seed () in
  let pid = Unix.getpid () in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "wcet-faultd-%d.sock" pid)
  in
  let src = Filename.temp_file "wcet-daemon" ".mc" in
  write_whole_file src Harness.quickstart_source;
  let cfg =
    {
      (Server.default_config ~socket_path) with
      Server.workers = 2;
      Server.queue_capacity = 4;
      Server.max_frame = 4096;
      Server.retry_after_ms = 10;
      Server.classify = classify_exn;
    }
  in
  let out = ref [] in
  let emit family index outcome = out := { family; index; outcome } :: !out in
  (match Server.create cfg with
  | Error msg -> emit "daemon" 0 (Crashed ("server did not start: " ^ msg))
  | Ok server ->
    let th = Thread.create Server.run server in
    for i = 0 to trials - 1 do
      let family, outcome =
        try daemon_trial ~socket_path ~src rng i
        with e -> ("daemon", Crashed (Printexc.to_string e))
      in
      emit family i outcome
    done;
    (* post-campaign liveness: the server must still answer, then drain *)
    emit "liveness" trials
      (with_conn socket_path (fun c ->
           match
             Client.request ~timeout_s:daemon_read_timeout c ~id:(Json.Int (-1)) ~meth:"ping"
               (Json.Obj [])
           with
           | Ok r when r.Proto.ok -> Ran_complete
           | Ok r -> reply_outcome r
           | Error msg -> Crashed ("post-campaign liveness: " ^ msg)));
    Server.request_stop server;
    Thread.join th);
  (try Sys.remove src with Sys_error _ -> ());
  (try Sys.remove socket_path with Sys_error _ -> ());
  summarize (List.rev !out)

let pp_campaign ppf c =
  Format.fprintf ppf
    "@[<v>fault injection: %d trials — %d complete, %d partial, %d rejected, %d crashed@,"
    (List.length c.trials) c.complete c.partial c.rejected c.crashed;
  List.iter
    (fun (code, n) ->
      Format.fprintf ppf "  %s (%s): %d@," code
        (Option.value ~default:"?" (Diag.describe code))
        n)
    (rejection_histogram c);
  List.iter
    (fun t ->
      match t.outcome with
      | Crashed msg -> Format.fprintf ppf "CRASH %s/%d: %s@," t.family t.index msg
      | _ -> ())
    c.trials;
  Format.fprintf ppf "verdict: %s@]" (if ok c then "OK" else "FAILED")

let to_json c =
  let open Wcet_diag.Json in
  Obj
    [
      ("trials", Int (List.length c.trials));
      ("complete", Int c.complete);
      ("partial", Int c.partial);
      ("rejected", Int c.rejected);
      ("crashed", Int c.crashed);
      ( "rejections",
        Obj (List.map (fun (code, n) -> (code, Int n)) (rejection_histogram c)) );
      ( "crashes",
        List
          (List.filter_map
             (fun t ->
               match t.outcome with
               | Crashed msg ->
                 Some (Obj [ ("family", String t.family); ("index", Int t.index);
                             ("detail", String msg) ])
               | _ -> None)
             c.trials) );
      ("ok", Bool (ok c));
    ]
