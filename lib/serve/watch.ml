module Json = Wcet_diag.Json
module Diag = Wcet_diag.Diag
module Analyzer = Wcet_core.Analyzer
module Program = Pred32_asm.Program

type analyze = string -> (Analyzer.report, Diag.t list) result

(* What the delta is computed against: the digest of each function's code
   bytes, the bound, and the findings as (code, func) pairs. *)
type baseline = {
  wcet : int;
  verdict : string;
  func_digests : (string * string) list;
  findings : (string * string) list;
}

type entry = {
  mutable fingerprint : string;  (** content digest last analyzed *)
  mutable pending : (float * string) option;  (** (first seen, digest) in debounce *)
  mutable last : baseline option;  (** [None] after a failed analysis *)
}

type t = {
  dir : string;
  debounce_s : float;
  analyze : analyze;
  files : (string, entry) Hashtbl.t;
  mutable initialized : bool;  (** first poll = silent baseline scan *)
}

let create ~dir ~debounce_s ~analyze =
  { dir; debounce_s; analyze; files = Hashtbl.create 16; initialized = false }

let finding_key (d : Diag.t) = (d.Diag.code, match d.Diag.loc.Diag.func with Some f -> f | None -> "")

let baseline_of (report : Analyzer.report) =
  let program = report.Analyzer.program in
  {
    wcet = report.Analyzer.wcet;
    verdict = Analyzer.verdict_name report.Analyzer.verdict;
    func_digests =
      List.map
        (fun (f : Program.func_info) -> (f.Program.name, Program.code_digest program f))
        program.Program.functions;
    findings = List.map finding_key report.Analyzer.diagnostics;
  }

(* Functions added, removed, or with different code bytes. *)
let changed_functions old_digests new_digests =
  let changed =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name old_digests with
        | Some d' when d' = d -> None
        | Some _ | None -> Some name)
      new_digests
  in
  let removed =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name new_digests then None else Some name)
      old_digests
  in
  List.sort_uniq compare (changed @ removed)

let change_event path old_baseline (report : Analyzer.report) =
  let fresh = baseline_of report in
  let fields =
    match old_baseline with
    | None ->
      [
        ("wcet", Json.Int fresh.wcet);
        ("old_wcet", Json.Null);
        ("drift", Json.Null);
        ("verdict", Json.String fresh.verdict);
        ( "changed_functions",
          Json.List (List.map (fun (n, _) -> Json.String n) fresh.func_digests) );
        ( "new_findings",
          Json.List (List.map Diag.to_json report.Analyzer.diagnostics) );
        ("discharged_findings", Json.List []);
      ]
    | Some old ->
      let changed = changed_functions old.func_digests fresh.func_digests in
      let new_findings =
        List.filter
          (fun d -> not (List.mem (finding_key d) old.findings))
          report.Analyzer.diagnostics
      in
      let discharged =
        List.filter (fun k -> not (List.mem k fresh.findings)) old.findings
      in
      [
        ("wcet", Json.Int fresh.wcet);
        ("old_wcet", Json.Int old.wcet);
        ("drift", Json.Int (fresh.wcet - old.wcet));
        ("verdict", Json.String fresh.verdict);
        ("changed_functions", Json.List (List.map (fun n -> Json.String n) changed));
        ("new_findings", Json.List (List.map Diag.to_json new_findings));
        ( "discharged_findings",
          Json.List
            (List.map
               (fun (code, func) ->
                 Json.Obj [ ("code", Json.String code); ("func", Json.String func) ])
               discharged) );
      ]
  in
  (Proto.event "change" (("path", Json.String path) :: fields), Some fresh)

let watched_name name =
  Filename.check_suffix name ".mc" || Filename.check_suffix name ".s"

let listing dir =
  match Sys.readdir dir with
  | names ->
    Array.to_list names
    |> List.filter watched_name
    |> List.map (fun n -> Filename.concat dir n)
    |> List.sort compare
  | exception Sys_error _ -> []

let vanished_event path =
  Proto.event "vanished"
    [
      ("path", Json.String path);
      ( "diagnostic",
        Diag.to_json
          (Diag.makef Diag.Warning Diag.Serve ~code:"W0701"
             "watched source %s vanished or became unreadable (skipped)" path) );
    ]

(* Analyze [path] and compute its event against [prior]; always updates the
   entry's baseline. *)
let reanalyze t path (e : entry) ~digest ~emit =
  e.fingerprint <- digest;
  e.pending <- None;
  match t.analyze path with
  | Ok report ->
    let ev, fresh = change_event path e.last report in
    e.last <- fresh;
    if emit then [ ev ] else []
  | Error ds ->
    e.last <- None;
    if emit then
      [
        Proto.event "analysis-failed"
          [
            ("path", Json.String path);
            ("diagnostics", Json.List (List.map Diag.to_json ds));
          ];
      ]
    else []

let poll ?now t =
  let now = match now with Some x -> x | None -> Wcet_util.Mono_clock.now () in
  let emit = t.initialized in
  t.initialized <- true;
  let present = listing t.dir in
  let events = ref [] in
  (* Vanished files: known but no longer listed (or unreadable below). *)
  let still_here = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace still_here p ()) present;
  Hashtbl.iter
    (fun path _ ->
      if not (Hashtbl.mem still_here path) then begin
        Hashtbl.remove t.files path;
        if emit then events := vanished_event path :: !events
      end)
    (Hashtbl.copy t.files);
  List.iter
    (fun path ->
      match Digest.to_hex (Digest.file path) with
      | digest -> (
        match Hashtbl.find_opt t.files path with
        | None ->
          (* New file: baseline immediately on the first scan, debounce
             like any other change afterwards. *)
          let e = { fingerprint = ""; pending = None; last = None } in
          Hashtbl.replace t.files path e;
          if emit then e.pending <- Some (now, digest)
          else events := reanalyze t path e ~digest ~emit:false @ !events
        | Some e ->
          if digest = e.fingerprint then e.pending <- None
          else (
            match e.pending with
            | Some (since, d) when d = digest ->
              if now -. since >= t.debounce_s then
                events := reanalyze t path e ~digest ~emit @ !events
            | Some _ | None -> e.pending <- Some (now, digest)))
      | exception _ ->
        if Hashtbl.mem t.files path then begin
          Hashtbl.remove t.files path;
          if emit then events := vanished_event path :: !events
        end)
    present;
  List.rev !events
