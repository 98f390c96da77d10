module Corpus = Wcet_corpus.Corpus
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Handlers = Wcet_serve.Handlers
module Annot = Wcet_annot.Annot
module Audit = Misra.Audit
module Json = Wcet_diag.Json

type row = {
  entry_id : string;
  variant : string;
  automatic : Audit.grade;
  assisted : Audit.grade;
  tier1 : int;
  tier2 : int;
  codes : string list;
}

(* Coverage for the error-handling detector (A0510): one nominal run with
   one of the scenario's declared input sets (the seed selects which).
   Faulted or fuel-exhausted runs yield no coverage rather than a
   misleading all-zero one. *)
let coverage_of ~seed (s : Corpus.scenario) program =
  match s.Corpus.inputs with
  | [] -> None
  | inputs -> (
    let pokes =
      List.nth inputs (Int64.to_int (Int64.rem seed (Int64.of_int (List.length inputs))))
    in
    let sim = Sim.create s.Corpus.hw program in
    List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
    match Sim.run sim with
    | Sim.Halted _ -> Some (fun addr -> Sim.exec_count sim addr)
    | Sim.Faulted _ | Sim.Out_of_fuel _ -> None)

let audit_scenario ~config ~seed ~id ~variant (s : Corpus.scenario) =
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let misra =
    Misra.Checker.check_user
      (Compile.frontend_with_runtime ~options:s.Corpus.options s.Corpus.source)
  in
  let coverage = coverage_of ~seed s program in
  let audit annot =
    snd (Handlers.audit_program config ~hw:s.Corpus.hw ~annot ~misra ?coverage program)
  in
  let automatic = audit Annot.empty in
  let annot = s.Corpus.annotations program in
  let assisted = if annot = Annot.empty then automatic else audit annot in
  let count tier =
    List.length
      (List.filter (fun (f : Audit.finding) -> f.Audit.tier = tier) automatic.Audit.findings)
  in
  {
    entry_id = id;
    variant;
    automatic = automatic.Audit.grade;
    assisted = assisted.Audit.grade;
    tier1 = count Audit.Tier1;
    tier2 = count Audit.Tier2;
    codes =
      List.sort_uniq compare
        (List.map (fun (f : Audit.finding) -> f.Audit.code) automatic.Audit.findings);
  }

let audit_entry ~config ~seed (e : Corpus.entry) =
  let audit = audit_scenario ~config ~seed ~id:e.Corpus.id in
  (audit ~variant:"conforming" e.Corpus.conforming, audit ~variant:"violating" e.Corpus.violating)

let run ?domains ~config ?(seed = 20110318L) () =
  Wcet_util.Parallel.map_list ?domains (audit_entry ~config ~seed) Corpus.all
  |> List.concat_map (fun (a, b) -> [ a; b ])

let grades_lines rows =
  List.map
    (fun r ->
      Printf.sprintf "%s %s automatic=%s assisted=%s" r.entry_id r.variant
        (Audit.grade_name r.automatic)
        (Audit.grade_name r.assisted))
    rows

let pp ppf rows =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "| entry    | variant    | automatic         | assisted          | t1 | t2 | codes |@,";
  Format.fprintf ppf
    "|----------|------------|-------------------|-------------------|----|----|-------|@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "| %-8s | %-10s | %-17s | %-17s | %2d | %2d | %s |@," r.entry_id
        r.variant
        (Audit.grade_name r.automatic)
        (Audit.grade_name r.assisted)
        r.tier1 r.tier2 (String.concat " " r.codes))
    rows;
  Format.fprintf ppf "@]"

let to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("entry", Json.String r.entry_id);
             ("variant", Json.String r.variant);
             ("automatic", Json.String (Audit.grade_name r.automatic));
             ("assisted", Json.String (Audit.grade_name r.assisted));
             ("tier1_findings", Json.Int r.tier1);
             ("tier2_findings", Json.Int r.tier2);
             ("codes", Json.List (List.map (fun c -> Json.String c) r.codes));
           ])
       rows)
