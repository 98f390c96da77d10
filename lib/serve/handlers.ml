module Json = Wcet_diag.Json
module Diag = Wcet_diag.Diag
module Analyzer = Wcet_core.Analyzer
module Explain = Wcet_core.Explain
module Report_cache = Wcet_core.Report_cache
module Store = Wcet_util.Store

exception Bad_params of string

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

let str_param params key = Option.bind (Json.member key params) Json.to_string_opt
let bool_param params key = Option.bind (Json.member key params) Json.to_bool_opt

let source_of params =
  match str_param params "source" with
  | Some s -> s
  | None -> raise (Bad_params "params.source (a program path) is required")

let hw_of params =
  match str_param params "hw" with
  | None -> Pred32_hw.Hw_config.default
  | Some name -> (
    match List.assoc_opt name Pred32_hw.Hw_config.profiles with
    | Some hw -> hw
    | None -> raise (Bad_params ("unknown hw profile " ^ name)))

let annot_of params =
  match str_param params "annot" with
  | None -> Wcet_annot.Annot.empty
  | Some path -> (
    match Wcet_annot.Annot.parse (read_file path) with
    | Ok a -> a
    | Error msg ->
      (* The documented annotation-parse failure; the server classifier
         maps it to E0404 like the CLI does. *)
      raise (Analyzer.Analysis_failed [ Diag.make Diag.Error Diag.Annot ~code:"E0404" msg ]))

let path_backend_of params =
  match str_param params "path_backend" with
  | None -> Wcet_path.Path_analysis.Portfolio
  | Some name -> (
    match Wcet_path.Path_analysis.choice_of_string name with
    | Some c -> c
    | None -> raise (Bad_params ("unknown path backend " ^ name)))

let analyzed ~cancel params =
  let source = source_of params in
  let soft_div = bool_param params "soft_div" = Some true in
  let program = compile_file ~soft_div source in
  let annot = annot_of params in
  Analyzer.analyze ~hw:(hw_of params) ~annot ~path_backend:(path_backend_of params) ~cancel
    program

let cache_stats () =
  match (Report_cache.enabled (), Report_cache.dir ()) with
  | true, Some dir -> (
    match Store.open_store dir with
    | Error msg -> Json.Obj [ ("enabled", Json.Bool true); ("error", Json.String msg) ]
    | Ok s ->
      let st = Store.stats s in
      Json.Obj
        [
          ("enabled", Json.Bool true);
          ("root", Json.String (Store.root s));
          ("version", Json.String (Report_cache.version ()));
          ("entries", Json.Int st.Store.entries);
          ("bytes", Json.Int st.Store.bytes);
          ("by_kind", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) st.Store.by_kind));
        ])
  | _ -> Json.Obj [ ("enabled", Json.Bool false) ]

(* Watch mode's analysis entry: defaults only (the watched directory is a
   plain source tree). [Analysis_failed] becomes [Error]; anything else —
   frontend faults included — escapes for the server's classifier. *)
let analyze_source path =
  let program = compile_file ~soft_div:false path in
  match
    Analyzer.analyze ~hw:Pred32_hw.Hw_config.default ~annot:Wcet_annot.Annot.empty program
  with
  | report -> Ok report
  | exception Analyzer.Analysis_failed ds -> Error ds

let standard ~cancel ~meth ~params =
  match meth with
  | "ping" -> Some (Json.Obj [ ("pong", Json.Bool true) ])
  | "analyze" ->
    Some
      (match analyzed ~cancel params with
      | report -> Analyzer.report_to_json report
      | exception Analyzer.Analysis_failed ds -> Analyzer.failure_to_json ds)
  | "explain" ->
    Some
      (match analyzed ~cancel params with
      | report -> Explain.to_json (Explain.of_report report)
      | exception Analyzer.Analysis_failed ds -> Analyzer.failure_to_json ds)
  | "audit" ->
    let source = source_of params in
    let soft_div = bool_param params "soft_div" = Some true in
    let hw = hw_of params in
    let program = compile_file ~soft_div source in
    let annot = annot_of params in
    let misra =
      if Filename.check_suffix source ".s" then []
      else Misra.Checker.check_user (Minic.Compile.frontend_with_runtime (read_file source))
    in
    let coverage =
      let sim = Pred32_sim.Simulator.create hw program in
      match Pred32_sim.Simulator.run sim with
      | Pred32_sim.Simulator.Halted _ ->
        Some (fun addr -> Pred32_sim.Simulator.exec_count sim addr)
      | Pred32_sim.Simulator.Faulted _ | Pred32_sim.Simulator.Out_of_fuel _ -> None
    in
    let audit =
      match Analyzer.analyze ~hw ~annot ~cancel program with
      | report -> Misra.Audit.of_report ~misra ~annot ?coverage report
      | exception Analyzer.Analysis_failed ds -> Misra.Audit.of_failure ds
    in
    Some (Misra.Audit.to_json audit)
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
