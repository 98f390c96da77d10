module Json = Wcet_diag.Json
module Diag = Wcet_diag.Diag
module Analyzer = Wcet_core.Analyzer
module Explain = Wcet_core.Explain
module Report_cache = Wcet_core.Report_cache
module Store = Wcet_util.Store
module Ledger = Wcet_obs.Ledger
module Annot = Wcet_annot.Annot
module Sim = Pred32_sim.Simulator

exception Bad_params of string

type config = { domain : Wcet_value.Analysis.domain; verify : bool }

type request = {
  source : string;
  annot : string option;
  hw : Pred32_hw.Hw_config.t;
  soft_div : bool;
  config : config;
}

type outcome = (Analyzer.report, Diag.t list) result
type answer = (Analyzer.answer, Diag.t list) result

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_assembly path = Filename.check_suffix path ".s"

let compile_text ~soft_div ~path text =
  if is_assembly path then Pred32_asm.Assembler.link (Pred32_asm.Asm_parser.parse text)
  else
    let options = { Minic.Codegen.default_options with Minic.Codegen.soft_div } in
    Minic.Compile.compile ~options text

let compile_file ~soft_div path = compile_text ~soft_div ~path (read_file path)

let parse_annot = function
  | None -> Annot.empty
  | Some text -> (
    match Annot.parse text with
    | Ok a -> a
    | Error msg ->
      raise (Analyzer.Analysis_failed [ Diag.make Diag.Error Diag.Annot ~code:"E0404" msg ]))

let run ?cancel c ~hw ~annot program =
  match
    Analyzer.analyze ~hw ~annot ~domain:c.domain ~verify:c.verify ?cancel program
  with
  | report -> Ok report
  | exception Analyzer.Analysis_failed ds -> Error ds

let full_report ?cancel r =
  let program = compile_file ~soft_div:r.soft_div r.source in
  let annot = parse_annot (Option.map read_file r.annot) in
  run ?cancel r.config ~hw:r.hw ~annot program

let analyze_text ?cancel r ~source ~annot =
  (* A hit would skip --verify's cross-checks, so a verified request
     neither reads nor writes the store. *)
  let key =
    if r.config.verify || not (Report_cache.enabled ()) then None
    else
      Some
        (Report_cache.answer_key ~source ~annot
           ~front_end:(if is_assembly r.source then "asm" else "minic")
           ~soft_div:r.soft_div ~hw:r.hw ~domain:r.config.domain)
  in
  match Option.bind key (fun key -> Report_cache.find_answer ~key) with
  | Some a -> Ok a
  | None -> (
    let program = compile_text ~soft_div:r.soft_div ~path:r.source source in
    match run ?cancel r.config ~hw:r.hw ~annot:(parse_annot annot) program with
    | Ok report ->
      let a = Analyzer.answer report in
      Option.iter (fun key -> Report_cache.save_answer ~key a) key;
      Ok a
    | Error ds -> Error ds)

let analyze ?cancel r =
  let source = read_file r.source in
  analyze_text ?cancel r ~source ~annot:(Option.map read_file r.annot)

let audit_program ?cancel c ~hw ~annot ~misra ?coverage program =
  let outcome = run ?cancel c ~hw ~annot program in
  ( outcome,
    match outcome with
    | Ok report -> Misra.Audit.of_report ~misra ~annot ?coverage report
    | Error ds -> Misra.Audit.of_failure ds )

let audit ?cancel r =
  let program = compile_file ~soft_div:r.soft_div r.source in
  let annot = parse_annot (Option.map read_file r.annot) in
  let misra =
    if is_assembly r.source then []
    else Misra.Checker.check_user (Minic.Compile.frontend_with_runtime (read_file r.source))
  in
  (* Nominal coverage: one zero-input simulator run (inputs left at their
     initial memory image), feeding the A0510 detector. *)
  let coverage =
    let sim = Sim.create r.hw program in
    match Sim.run sim with
    | Sim.Halted _ -> Some (fun addr -> Sim.exec_count sim addr)
    | Sim.Faulted _ | Sim.Out_of_fuel _ -> None
  in
  audit_program ?cancel r.config ~hw:r.hw ~annot ~misra ?coverage program

let store_stats_fields s =
  let st = Store.stats s in
  [
    ("root", Json.String (Store.root s));
    ("version", Json.String (Report_cache.version ()));
    ("entries", Json.Int st.Store.entries);
    ("bytes", Json.Int st.Store.bytes);
    ("by_kind", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) st.Store.by_kind));
  ]

let cache_stats () =
  match (Report_cache.enabled (), Report_cache.dir ()) with
  | true, Some dir -> (
    match Store.open_store dir with
    | Error msg -> Json.Obj [ ("enabled", Json.Bool true); ("error", Json.String msg) ]
    | Ok s -> Json.Obj (("enabled", Json.Bool true) :: store_stats_fields s))
  | _ -> Json.Obj [ ("enabled", Json.Bool false) ]

let file_digest path = try Digest.to_hex (Digest.file path) with _ -> ""

let ledger_entry ~program ~digest ?observed answer =
  let verdict, bound, metrics =
    match answer with
    | Ok (a : Analyzer.answer) ->
      (Analyzer.verdict_name a.Analyzer.an_verdict, Some a.Analyzer.an_wcet, a.Analyzer.an_precision)
    | Error _ -> ("failed", None, [])
  in
  {
    Ledger.program;
    digest;
    commit = Ledger.git_commit ();
    date = Ledger.iso_date ();
    verdict;
    bound;
    observed;
    metrics;
  }

(* --- the daemon's request decoding ------------------------------------ *)

let str_param params key = Option.bind (Json.member key params) Json.to_string_opt
let bool_param params key = Option.bind (Json.member key params) Json.to_bool_opt

let request_of params =
  let source =
    match str_param params "source" with
    | Some s -> s
    | None -> raise (Bad_params "params.source (a program path) is required")
  in
  let hw =
    match str_param params "hw" with
    | None -> Pred32_hw.Hw_config.default
    | Some name -> (
      match List.assoc_opt name Pred32_hw.Hw_config.profiles with
      | Some hw -> hw
      | None -> raise (Bad_params ("unknown hw profile " ^ name)))
  in
  if Json.member "path_backend" params <> None then
    raise (Bad_params "path_backend is retired: the portfolio is the only path analysis");
  {
    source;
    annot = str_param params "annot";
    hw;
    soft_div = bool_param params "soft_div" = Some true;
    (* The daemon (and watch mode) run the interval domain, the library
       default, while the CLI defaults to auto; ROADMAP item 2 gives every
       front end one default, and this is the line it changes. *)
    config = { domain = Wcet_value.Analysis.Interval; verify = false };
  }

let bare_request path = request_of (Json.Obj [ ("source", Json.String path) ])
let analyze_source path = full_report (bare_request path)

let outcome_json render = function
  | Ok x -> render x
  | Error ds -> Analyzer.failure_to_json ds

let standard ~cancel ~meth ~params =
  match meth with
  | "ping" -> Some (Json.Obj [ ("pong", Json.Bool true) ])
  | "analyze" -> Some (outcome_json Analyzer.report_to_json (analyze ~cancel (request_of params)))
  | "explain" ->
    Some
      (outcome_json
         (fun r -> Explain.to_json (Explain.of_report r))
         (full_report ~cancel (request_of params)))
  | "audit" -> Some (Misra.Audit.to_json (snd (audit ~cancel (request_of params))))
  | "metrics" -> (
    match str_param params "format" with
    | Some "prometheus" ->
      (* Prometheus text exposition, wrapped for the JSON wire: the caller
         (or `wcet_tool metrics --prometheus` against a daemon) writes
         [body] verbatim to the scrape response. *)
      Some
        (Json.Obj
           [
             ("content_type", Json.String "text/plain; version=0.0.4");
             ("body", Json.String (Wcet_obs.Metrics.to_prometheus ()));
           ])
    | Some "json" | None -> Some (Wcet_obs.Metrics.to_json ())
    | Some other -> raise (Bad_params ("unknown metrics format " ^ other)))
  | "cache" -> Some (cache_stats ())
  | "codes" ->
    Some
      (Json.Obj
         (List.map (fun (code, descr) -> (code, Json.String descr)) Diag.all_codes))
  | _ -> None
