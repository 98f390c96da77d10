(* Slack attribution: the exact-sum acceptance property over the whole
   corpus, plus shape/rendering checks on the quickstart program. *)

module Corpus = Wcet_corpus.Corpus
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Analyzer = Wcet_core.Analyzer
module Attribution = Wcet_core.Attribution
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Json = Wcet_diag.Json

let attribution_exn ?pokes report =
  match Attribution.of_report ?pokes report with
  | Ok a -> a
  | Error d -> Alcotest.failf "attribution failed: %a" (fun ppf -> Diag.pp ppf) d

let sum_sources totals = List.fold_left (fun acc (_, v) -> acc + v) 0 totals

(* On every corpus scenario whose assisted analysis is complete and whose
   first input set halts, the per-source totals sum exactly to
   bound − observed, and every block's buckets sum to its slack. *)
let test_corpus_exact_sum () =
  let checked = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      List.iter
        (fun (variant, (s : Corpus.scenario)) ->
          let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
          let annot = s.Corpus.annotations program in
          match Analyzer.analyze ~hw:s.Corpus.hw ~annot program with
          | exception Analyzer.Analysis_failed _ -> ()
          | report when report.Analyzer.verdict <> Analyzer.Complete -> ()
          | report ->
            let pokes = match s.Corpus.inputs with [] -> [] | p :: _ -> p in
            let a = attribution_exn ~pokes report in
            incr checked;
            let id = e.Corpus.id ^ "/" ^ variant in
            Alcotest.(check int)
              (id ^ " slack = bound - observed")
              (a.Attribution.a_bound - a.Attribution.a_observed)
              a.Attribution.a_slack;
            Alcotest.(check int)
              (id ^ " sources sum to slack")
              a.Attribution.a_slack
              (sum_sources a.Attribution.a_totals);
            List.iter
              (fun (b : Attribution.block_row) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s block 0x%x buckets sum to its slack" id
                     b.Attribution.addr)
                  b.Attribution.slack
                  (sum_sources b.Attribution.by_source))
              a.Attribution.a_blocks;
            (* The ladder-difference buckets are non-negative by
               construction; only flow_count and dynamic_residual are
               signed. *)
            List.iter
              (fun (src, v) ->
                match src with
                | Attribution.Cache_unclassified | Attribution.Value_multi_region
                | Attribution.Pipeline_stall ->
                  if v < 0 then
                    Alcotest.failf "%s: %s is negative (%d)" id
                      (Attribution.source_name src) v
                | Attribution.Flow_count | Attribution.Dynamic_residual -> ())
              a.Attribution.a_totals)
        [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
    Corpus.all;
  if !checked < 5 then Alcotest.failf "only %d corpus scenarios attributed" !checked

let quickstart_source =
  {|
int sensor[4];
int out;

int filter(int x) {
  if (x < 0) { return 0; }
  if (x > 100) { return 100; }
  return x;
}

int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 4; i = i + 1) {
    s = s + filter(sensor[i]);
  }
  out = s;
  return s;
}
|}

let quickstart_report () =
  Analyzer.analyze (Compile.compile quickstart_source)

let test_quickstart_shape () =
  let report = quickstart_report () in
  let a = attribution_exn ~pokes:[ ("sensor", 0, 42) ] report in
  Alcotest.(check int) "bound echoes the report" report.Analyzer.wcet a.Attribution.a_bound;
  Alcotest.(check bool) "bound dominates observed" true (a.Attribution.a_slack >= 0);
  Alcotest.(check int) "all observed cycles covered by blocks" 0 a.Attribution.a_uncovered;
  Alcotest.(check int) "five sources" 5 (List.length a.Attribution.a_totals);
  (* The sim sees one path; the bound maxes over filter's branches, so at
     least one source must carry nonzero slack unless slack is zero. *)
  if a.Attribution.a_slack > 0 then
    Alcotest.(check bool) "some source is nonzero" true
      (List.exists (fun (_, v) -> v <> 0) a.Attribution.a_totals)

let test_json_roundtrip () =
  let a = attribution_exn (quickstart_report ()) in
  let s = Json.to_string (Attribution.to_json a) in
  match Json.parse s with
  | Error msg -> Alcotest.failf "attribution JSON does not re-parse: %s" msg
  | Ok j ->
    let slack = Option.bind (Json.member "slack" j) Json.to_int_opt in
    Alcotest.(check (option int)) "slack survives the roundtrip"
      (Some a.Attribution.a_slack) slack;
    (match Json.member "sources" j with
    | Some (Json.Obj fields) ->
      Alcotest.(check int) "all sources serialized" 5 (List.length fields)
    | _ -> Alcotest.fail "sources object missing")

(* A program with an input-dependent loop analyzes to a partial bound:
   attribution must refuse with E0805, not produce a bogus decomposition. *)
let test_partial_refused () =
  let source = {|
int n;
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + i;
  }
  return s;
}
|} in
  let report = Analyzer.analyze (Compile.compile source) in
  Alcotest.(check bool) "bound is partial" true (report.Analyzer.verdict = Analyzer.Partial);
  match Attribution.of_report report with
  | Ok _ -> Alcotest.fail "partial bound must not attribute"
  | Error d -> Alcotest.(check string) "typed refusal" "E0805" d.Diag.code

let test_precision_counts () =
  let counts = (Analyzer.answer (quickstart_report ())).Analyzer.an_precision in
  List.iter
    (fun key ->
      match List.assoc_opt key counts with
      | Some v -> Alcotest.(check bool) (key ^ " non-negative") true (v >= 0)
      | None -> Alcotest.failf "precision counts missing %s" key)
    [ "value_interval"; "value_unknown"; "fetch_not_classified"; "data_not_classified"; "holes" ]

let () =
  Alcotest.run "attribution"
    [
      ( "attribution",
        [
          Alcotest.test_case "corpus exact sum" `Slow test_corpus_exact_sum;
          Alcotest.test_case "quickstart shape" `Quick test_quickstart_shape;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "partial refused" `Quick test_partial_refused;
          Alcotest.test_case "precision counts" `Quick test_precision_counts;
        ] );
    ]
