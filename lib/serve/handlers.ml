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

type config = {
  domain : Wcet_value.Analysis.domain;
  path_backend : Wcet_path.Path_analysis.choice;
  verify : bool;
}

type request = {
  source : string;
  annot : string option;
  hw : Pred32_hw.Hw_config.t;
  soft_div : bool;
  config : config;
}

type outcome = (Analyzer.report, Diag.t list) result

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compile_file ~soft_div path =
  if Filename.check_suffix path ".s" then
    Pred32_asm.Assembler.link (Pred32_asm.Asm_parser.parse (read_file path))
  else
    let options = { Minic.Codegen.default_options with Minic.Codegen.soft_div } in
    Minic.Compile.compile ~options (read_file path)

let load_annot = function
  | None -> Annot.empty
  | Some path -> (
    match Annot.parse (read_file path) with
    | Ok a -> a
    | Error msg ->
      raise (Analyzer.Analysis_failed [ Diag.make Diag.Error Diag.Annot ~code:"E0404" msg ]))

let run ?cancel c ~hw ~annot program =
  match
    Analyzer.analyze ~hw ~annot ~domain:c.domain ~path_backend:c.path_backend ~verify:c.verify
      ?cancel program
  with
  | report -> Ok report
  | exception Analyzer.Analysis_failed ds -> Error ds

let analyze ?cancel r =
  let program = compile_file ~soft_div:r.soft_div r.source in
  let annot = load_annot r.annot in
  run ?cancel r.config ~hw:r.hw ~annot program

let audit_program ?cancel c ~hw ~annot ~misra ?coverage program =
  let outcome = run ?cancel c ~hw ~annot program in
  ( outcome,
    match outcome with
    | Ok report -> Misra.Audit.of_report ~misra ~annot ?coverage report
    | Error ds -> Misra.Audit.of_failure ds )

let audit ?cancel r =
  let program = compile_file ~soft_div:r.soft_div r.source in
  let annot = load_annot r.annot in
  let misra =
    if Filename.check_suffix r.source ".s" then []
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

let ledger_entry ~program ~digest ?observed outcome =
  let verdict, bound, metrics =
    match outcome with
    | Ok (r : Analyzer.report) ->
      ( Analyzer.verdict_name r.Analyzer.verdict,
        Some r.Analyzer.wcet,
        Wcet_core.Attribution.precision_counts r )
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
  let path_backend =
    match str_param params "path_backend" with
    | None -> Wcet_path.Path_analysis.Portfolio
    | Some name -> (
      match Wcet_path.Path_analysis.choice_of_string name with
      | Some c -> c
      | None -> raise (Bad_params ("unknown path backend " ^ name)))
  in
  {
    source;
    annot = str_param params "annot";
    hw;
    soft_div = bool_param params "soft_div" = Some true;
    (* The daemon (and watch mode) run the interval domain, the library
       default, while the CLI defaults to auto; ROADMAP item 2 gives every
       front end one default, and this is the line it changes. *)
    config = { domain = Wcet_value.Analysis.Interval; path_backend; verify = false };
  }

let analyze_source path = analyze (request_of (Json.Obj [ ("source", Json.String path) ]))

let outcome_json render = function
  | Ok report -> render report
  | Error ds -> Analyzer.failure_to_json ds

let standard ~cancel ~meth ~params =
  match meth with
  | "ping" -> Some (Json.Obj [ ("pong", Json.Bool true) ])
  | "analyze" -> Some (outcome_json Analyzer.report_to_json (analyze ~cancel (request_of params)))
  | "explain" ->
    Some
      (outcome_json
         (fun r -> Explain.to_json (Explain.of_report r))
         (analyze ~cancel (request_of params)))
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
