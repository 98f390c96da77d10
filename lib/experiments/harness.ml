module Corpus = Wcet_corpus.Corpus
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Analyzer = Wcet_core.Analyzer
module Annot = Wcet_annot.Annot
module Ldivmod = Softarith.Ldivmod
module Diag = Wcet_diag.Diag

type verdict =
  | Bound of int
  | Partial of int * Diag.t list
  | Fails of Diag.t list

(* Render-time truncation only: verdicts store the full diagnostics so
   nothing is lost before the caller decides how much to show. *)
let shorten msg =
  let msg = String.map (fun c -> if c = '\n' then ' ' else c) msg in
  if String.length msg > 60 then String.sub msg 0 57 ^ "..." else msg

type run = {
  entry_id : string;
  variant : string;
  automatic : verdict;
  assisted : verdict;
  uses_annotations : bool;
  observed : int;
  misra_violations : int;
}

let try_bound ~hw ~annot program =
  match Analyzer.analyze ~hw ~annot program with
  | report -> (
    match report.Analyzer.verdict with
    | Analyzer.Complete -> Bound report.Analyzer.wcet
    | Analyzer.Partial -> Partial (report.Analyzer.wcet, report.Analyzer.diagnostics))
  | exception Analyzer.Analysis_failed ds -> Fails ds
  | exception Wcet_cfg.Supergraph.Build_error msg ->
    Fails [ Diag.make Diag.Error Diag.Decode ~code:"E0201" msg ]

let run_scenario ~id ~variant (s : Corpus.scenario) =
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  let automatic = try_bound ~hw:s.Corpus.hw ~annot:Annot.empty program in
  let assisted =
    if annot = Annot.empty then automatic else try_bound ~hw:s.Corpus.hw ~annot program
  in
  let observed =
    List.fold_left
      (fun acc pokes ->
        let sim = Sim.create s.Corpus.hw program in
        List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
        max acc (Sim.halted_cycles (Sim.run sim)))
      0 s.Corpus.inputs
  in
  (* A partial bound is conditional on its holes, so only a complete bound
     is checked against the simulated executions. *)
  (match assisted with
  | Bound b when observed > b ->
    failwith
      (Printf.sprintf "%s/%s: observed %d cycles exceeds the bound %d — unsound!" id variant
         observed b)
  | Bound _ | Partial _ | Fails _ -> ());
  let misra_violations =
    (* count findings in the user's functions, not the linked runtime *)
    Misra.Checker.check_user
      (Compile.frontend_with_runtime ~options:s.Corpus.options s.Corpus.source)
    |> List.length
  in
  {
    entry_id = id;
    variant;
    automatic;
    assisted;
    uses_annotations = annot <> Annot.empty;
    observed;
    misra_violations;
  }

let run_entry (e : Corpus.entry) =
  ( run_scenario ~id:e.Corpus.id ~variant:"conforming" e.Corpus.conforming,
    run_scenario ~id:e.Corpus.id ~variant:"violating" e.Corpus.violating )

let ratio run =
  match run.assisted with
  | Bound b when run.observed > 0 -> Some (float_of_int b /. float_of_int run.observed)
  | Bound _ | Partial _ | Fails _ -> None

let verdict_str = function
  | Bound b -> string_of_int b
  | Partial (b, _) -> Printf.sprintf "partial %d" b
  | Fails _ -> "needs-annotation"

let verdict_diags = function Bound _ -> [] | Partial (_, ds) | Fails ds -> ds

let pp_row ppf run =
  let ratio_str =
    match ratio run with Some r -> Printf.sprintf "%.2f" r | None -> "-"
  in
  Format.fprintf ppf "| %-8s | %-10s | %-16s | %16s | %5s | %8d | %5s | %5d |@," run.entry_id
    run.variant
    (verdict_str run.automatic)
    (verdict_str run.assisted)
    (if run.uses_annotations then "yes" else "no")
    run.observed ratio_str run.misra_violations

let table_header ppf () =
  Format.fprintf ppf
    "| rule     | variant    | automatic bound  |   assisted | annot | observed | ratio | \
     misra |@,";
  Format.fprintf ppf
    "|----------|------------|------------------|------------|-------|----------|-------|-------|@,"

let table_of ?domains entries ppf title =
  (* Corpus entries are independent: analyze them across the domain pool,
     then render in corpus order (the pool preserves task order, so the
     table is identical for every domain count). *)
  let runs = Wcet_util.Parallel.map_list ?domains run_entry entries in
  Format.fprintf ppf "@[<v>== %s ==@,@," title;
  table_header ppf ();
  List.iter
    (fun (c, v) ->
      pp_row ppf c;
      pp_row ppf v)
    runs;
  Format.fprintf ppf "@,";
  (* Diagnostics behind every partial / needs-annotation cell, one line
     each (truncated here, at render time only). *)
  List.iter
    (fun (c, v) ->
      List.iter
        (fun run ->
          let seen = Hashtbl.create 4 in
          List.iter
            (fun d ->
              let key = (d.Diag.code, d.Diag.message) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                Format.fprintf ppf "%s/%s: [%s] %s@," run.entry_id run.variant d.Diag.code
                  (shorten d.Diag.message)
              end)
            (verdict_diags run.automatic @ verdict_diags run.assisted))
        [ c; v ])
    runs;
  Format.fprintf ppf "@,";
  List.iter
    (fun (e : Corpus.entry) ->
      Format.fprintf ppf "%s (%s): %s@," e.Corpus.id e.Corpus.title e.Corpus.expectation)
    entries;
  Format.fprintf ppf "@]@."

let table_rules ?domains ppf () =
  table_of ?domains Corpus.rule_entries ppf
    "E1: MISRA-C rules vs WCET analyzability (Section 4.2)"

let table_tier_two ?domains ppf () =
  table_of ?domains Corpus.tier_two_entries ppf
    "E2: design-level information vs WCET precision (Section 4.3)"

(* --- E4: value-domain precision (interval vs interval*octagon) --- *)

type e4_row = {
  e4_entry : string;
  e4_interval : verdict;
  e4_auto : verdict;
  e4_interval_secs : float;
  e4_auto_secs : float;
  e4_escalated : int;
  e4_transfers : int;
  e4_loops : int;
  e4_accesses : int;
  e4_value_nonexact : int * int;
  e4_cache_nc : int * int;
}

let e4_entry_row (e : Corpus.entry) =
  let s = e.Corpus.conforming in
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  let run domain =
    let t0 = Wcet_util.Mono_clock.now () in
    let v, report =
      match Analyzer.analyze ~hw:s.Corpus.hw ~annot ~domain program with
      | r ->
        ( (match r.Analyzer.verdict with
          | Analyzer.Complete -> Bound r.Analyzer.wcet
          | Analyzer.Partial -> Partial (r.Analyzer.wcet, r.Analyzer.diagnostics)),
          Some r )
      | exception Analyzer.Analysis_failed ds -> (Fails ds, None)
    in
    (v, report, Wcet_util.Mono_clock.now () -. t0)
  in
  let iv, ir, isecs = run Wcet_value.Analysis.Interval in
  let av, ar, asecs = run Wcet_value.Analysis.Auto in
  (* Standing acceptance check: the reduced product only ever adds
     constraints, so a comparable (complete-vs-complete) bound must never
     increase under escalation. *)
  (match (iv, av) with
  | Bound bi, Bound ba when ba > bi ->
    failwith
      (Printf.sprintf "%s: octagon escalation raised the bound (%d -> %d) — reduction bug"
         e.Corpus.id bi ba)
  | _ -> ());
  let nonexact = function
    | None -> (0, 0)
    | Some r ->
      let counts = (Analyzer.answer r).Analyzer.an_precision in
      let get k = Option.value (List.assoc_opt k counts) ~default:0 in
      ( get "value_interval" + get "value_unknown",
        get "fetch_not_classified" + get "data_not_classified" )
  in
  let i_val, i_nc = nonexact ir in
  let a_val, a_nc = nonexact ar in
  let esc, transfers, loops, accs =
    match ar with
    | Some { Analyzer.escalation = Some ei; _ } ->
      ( List.length ei.Analyzer.ei_funcs,
        ei.Analyzer.ei_transfers,
        List.length ei.Analyzer.ei_discharged_loops,
        List.length ei.Analyzer.ei_tightened_accesses )
    | Some _ | None -> (0, 0, 0, 0)
  in
  {
    e4_entry = e.Corpus.id;
    e4_interval = iv;
    e4_auto = av;
    e4_interval_secs = isecs;
    e4_auto_secs = asecs;
    e4_escalated = esc;
    e4_transfers = transfers;
    e4_loops = loops;
    e4_accesses = accs;
    e4_value_nonexact = (i_val, a_val);
    e4_cache_nc = (i_nc, a_nc);
  }

let e4_rows ?domains () = Wcet_util.Parallel.map_list ?domains e4_entry_row Corpus.all

let pp_e4 ppf rows =
  Format.fprintf ppf
    "@[<v>== E4: value-domain precision — interval vs auto (interval*octagon escalation), \
     conforming scenarios, assisted ==@,@,";
  Format.fprintf ppf
    "| entry    | interval bound   | auto bound       | esc | loops | accesses | value !exact \
     | cache !class |@,";
  Format.fprintf ppf
    "|----------|------------------|------------------|-----|-------|----------|--------------|--------------|@,";
  List.iter
    (fun r ->
      let iv, av = r.e4_value_nonexact in
      let ic, ac = r.e4_cache_nc in
      Format.fprintf ppf
        "| %-8s | %-16s | %-16s | %3d | %5d | %8d | %5d -> %3d | %5d -> %3d |@," r.e4_entry
        (verdict_str r.e4_interval) (verdict_str r.e4_auto) r.e4_escalated r.e4_loops
        r.e4_accesses iv av ic ac)
    rows;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Format.fprintf ppf
    "@,totals: %d function(s) escalated, %d octagon transfer(s), %d loop(s) discharged, %d \
     access(es) tightened@,\
     non-exact value accesses: %d -> %d; unclassified cache accesses: %d -> %d@,\
     (the driver escalates only functions whose interval pass left an access that may touch two \
     or more memory regions, or an input-dependent/aliased loop hole;@,\
     every other entry runs the interval pass alone and its bound is bit-identical by \
     construction)@]@."
    (sum (fun r -> r.e4_escalated))
    (sum (fun r -> r.e4_transfers))
    (sum (fun r -> r.e4_loops))
    (sum (fun r -> r.e4_accesses))
    (sum (fun r -> fst r.e4_value_nonexact))
    (sum (fun r -> snd r.e4_value_nonexact))
    (sum (fun r -> fst r.e4_cache_nc))
    (sum (fun r -> snd r.e4_cache_nc))

let table_e4 ?domains ppf () = pp_e4 ppf (e4_rows ?domains ())

(* --- E5: path-analysis portfolio (IPET vs model checking) --- *)

type e5_row = {
  e5_entry : string;
  e5_verdict : verdict;  (** portfolio verdict/bound *)
  e5_backends : Analyzer.backend_run list;
  e5_winner : string;
  e5_mc_gate : Analyzer.mc_gate option;
}

let e5_entry_row (e : Corpus.entry) =
  let s = e.Corpus.conforming in
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  match Analyzer.analyze ~hw:s.Corpus.hw ~annot program with
  | exception Analyzer.Analysis_failed ds ->
    {
      e5_entry = e.Corpus.id;
      e5_verdict = Fails ds;
      e5_backends = [];
      e5_winner = "-";
      e5_mc_gate = None;
    }
  | r ->
    (* Standing acceptance check: the portfolio includes IPET, so the
       tightest-of-backends bound can never exceed the IPET bound. *)
    (match
       List.find_opt (fun b -> b.Analyzer.br_name = "ipet") r.Analyzer.backend_runs
     with
    | Some { Analyzer.br_bound = Some bi; _ } when r.Analyzer.wcet > bi ->
      failwith
        (Printf.sprintf "%s: portfolio bound %d exceeds the IPET bound %d — selection bug"
           e.Corpus.id r.Analyzer.wcet bi)
    | _ -> ());
    {
      e5_entry = e.Corpus.id;
      e5_verdict =
        (match r.Analyzer.verdict with
        | Analyzer.Complete -> Bound r.Analyzer.wcet
        | Analyzer.Partial -> Partial (r.Analyzer.wcet, r.Analyzer.diagnostics));
      e5_backends = r.Analyzer.backend_runs;
      e5_winner =
        (match List.find_opt (fun b -> b.Analyzer.br_winner) r.Analyzer.backend_runs with
        | Some b -> b.Analyzer.br_name
        | None -> "-");
      e5_mc_gate = Some r.Analyzer.mc_gate;
    }

let e5_rows ?domains () = Wcet_util.Parallel.map_list ?domains e5_entry_row Corpus.all

let pp_e5 ppf rows =
  Format.fprintf ppf
    "@[<v>== E5: path-analysis portfolio — IPET vs model checking, conforming scenarios, \
     assisted ==@,@,";
  Format.fprintf ppf "| entry    | ipet             | mc               | winner | bound    |@,";
  Format.fprintf ppf "|----------|------------------|------------------|--------|----------|@,";
  let backend_cell row name =
    match List.find_opt (fun b -> b.Analyzer.br_name = name) row.e5_backends with
    | Some { Analyzer.br_bound = Some b; br_wall_us; _ } ->
      Printf.sprintf "%d (%.3f ms)" b (float_of_int br_wall_us /. 1000.)
    | Some { Analyzer.br_error = Some (code, _); _ } -> code
    | Some { Analyzer.br_error = None; _ } -> "-"
    | None -> if name = "mc" && row.e5_mc_gate = Some Analyzer.Mc_gated then "gated" else "-"
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "| %-8s | %-16s | %-16s | %-6s | %-8s |@," r.e5_entry
        (backend_cell r "ipet") (backend_cell r "mc") r.e5_winner
        (match r.e5_verdict with
        | Bound b -> string_of_int b
        | Partial (b, _) -> Printf.sprintf "%d*" b
        | Fails _ -> "fails"))
    rows;
  let wins name =
    List.length (List.filter (fun r -> r.e5_winner = name) rows)
  in
  let strict =
    List.length
      (List.filter
         (fun r ->
           match
             ( List.find_opt (fun b -> b.Analyzer.br_name = "ipet") r.e5_backends,
               r.e5_verdict )
           with
           | Some { Analyzer.br_bound = Some bi; _ }, (Bound b | Partial (b, _)) -> b < bi
           | _ -> false)
         rows)
  in
  Format.fprintf ppf
    "@,winners: ipet %d, mc %d; portfolio strictly below IPET on %d entr(ies)@,\
     (ties prefer IPET for stable worst-path counts; * marks a partial bound;@,\
     mc races only behind a mode guard and is gated elsewhere;@,\
     it wins exactly where path-sensitivity prunes mode-infeasible paths)@]@."
    (wins "ipet") (wins "mc") strict

let table_e5 ?domains ppf () = pp_e5 ppf (e5_rows ?domains ())

exception Invalid_env of Diag.t

(* LDIVMOD_SAMPLES is user input like any other: parsed with
   int_of_string_opt (the PAR_DOMAINS convention in Wcet_util.Parallel) and
   rejected with a registered diagnostic, never a bare Failure. *)
let samples_from_env () =
  match Sys.getenv_opt "LDIVMOD_SAMPLES" with
  | None -> Ok 10_000_000
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> Ok v
    | Some _ | None ->
      Error
        (Diag.makef Diag.Error Diag.Frontend ~code:"E0110"
           ~hint:"LDIVMOD_SAMPLES must be a positive integer sample count"
           "invalid LDIVMOD_SAMPLES value %S" s))

(* Paper's Table 1 numbers (10^8 samples) for the side-by-side print. *)
let paper_table1 =
  [
    ("0", 1552); ("1", 99_881_801); ("2", 116_421); ("3", 114); ("4 .. 9", 13);
    ("10 .. 19", 19); ("20 .. 39", 24); ("40 .. 59", 22); ("60 .. 79", 13);
    ("80 .. 99", 11); ("100 .. 135", 7); ("156", 1); ("186", 1); ("204", 1);
  ]

let table_t1 ?samples ?(seed = 20110318L) ?domains ppf () =
  let samples =
    match samples with
    | Some s -> s
    | None -> (
      match samples_from_env () with
      | Ok s -> s
      | Error d -> raise (Invalid_env d))
  in
  let hist, top = Ldivmod.histogram ?domains ~samples ~seed () in
  let rows = Ldivmod.bucketize hist in
  Format.fprintf ppf
    "@[<v>== T1: lDivMod iteration counts (Table 1; ours: %d samples, paper: 10^8) ==@,@," samples;
  Format.fprintf ppf "| iteration counts | ours %10s | paper (10^8) |@," "";
  Format.fprintf ppf "|------------------|-----------------|--------------|@,";
  let printed = ref [] in
  List.iter
    (fun (label, count) ->
      printed := label :: !printed;
      let paper =
        match List.assoc_opt label paper_table1 with
        | Some c -> string_of_int c
        | None -> "-"
      in
      Format.fprintf ppf "| %-16s | %15d | %12s |@," label count paper)
    rows;
  (* paper rows we did not observe (the deep tail) *)
  List.iter
    (fun (label, count) ->
      if not (List.mem label !printed) then
        Format.fprintf ppf "| %-16s | %15d | %12d |@," label 0 count)
    paper_table1;
  List.iter
    (fun (n, (a, b)) ->
      Format.fprintf ppf "@,max observed: %d iterations for lDivMod(0x%08x, 0x%08x)" n a b)
    top;
  Format.fprintf ppf
    "@,@,shape check: >=99%% of samples at 1 iteration; 0 iterations only for divisors \
     below 2^16; a rare decaying tail.@,\
     substitution note: our reimplementation's estimator converges geometrically, so the \
     extreme tail is shorter than the original's (max ~15-20 vs 204); the WCET consequence — \
     assume the maximum whenever inputs are unknown — is identical.@]@."

let quickstart_source =
  "int sensor[4]; int out; \
   int filter(int x) { if (x < 0) { return 0; } if (x > 100) { return 100; } return x; } \
   int main() { int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + filter(sensor[i]); } out = s; return s; }"

let table_f1 ppf () =
  let program = Compile.compile quickstart_source in
  let report = Analyzer.analyze program in
  Format.fprintf ppf
    "@[<v>== F1: phases of WCET computation (Figure 1) on the quickstart program ==@,@,";
  Format.fprintf ppf "| phase                           | runtime (ms) |@,";
  Format.fprintf ppf "|---------------------------------|--------------|@,";
  List.iter
    (fun (phase, dt) ->
      Format.fprintf ppf "| %-31s | %12.2f |@," (Analyzer.phase_name phase) (dt *. 1000.))
    report.Analyzer.phase_seconds;
  Format.fprintf ppf "@,WCET bound: %d cycles; graph: %d nodes in %d contexts, %d loops@]@."
    report.Analyzer.wcet
    (Array.length report.Analyzer.graph.Wcet_cfg.Supergraph.nodes)
    (Array.length report.Analyzer.graph.Wcet_cfg.Supergraph.contexts)
    (Array.length report.Analyzer.loops.Wcet_cfg.Loops.loops)

(* --- ablations --- *)

let single_path_source =
  "int data; int acc; \
   int main() { int i; int x; acc = 0; for (i = 0; i < 32; i = i + 1) { x = 0; if ((data >> (i & 31)) & 1) { x = i * 3; } acc = acc + x; } return acc; }"

let single_path_inputs = [ 0; 0x55555555; -1; 0x0F0F0F0F ]

let measure_program ?(hw = Pred32_hw.Hw_config.default) program inputs =
  let report = Analyzer.analyze ~hw program in
  let observed =
    List.fold_left
      (fun acc data ->
        let sim = Sim.create hw program in
        Sim.poke_symbol sim "data" 0 data;
        max acc (Sim.halted_cycles (Sim.run sim)))
      0 inputs
  in
  (report.Analyzer.wcet, observed)

let single_path_measurements () =
  let branchy = Compile.compile single_path_source in
  let single =
    Compile.compile
      ~options:{ Minic.Codegen.default_options with Minic.Codegen.if_conversion = true }
      single_path_source
  in
  (measure_program branchy single_path_inputs, measure_program single single_path_inputs)

let cache_sweep_source =
  "int data; int table[64]; int acc; \
   int main() { int i; int r; acc = 0; for (i = 0; i < 64; i = i + 1) { r = table[(i + data) & 63]; if (r > 8) { acc = acc + r * 3; } else { acc = acc + r + i; } } return acc; }"

let cache_configs =
  let open Pred32_hw in
  [
    ("uncached", Hw_config.uncached);
    ( "tiny (1-way x 8 sets x 16B)",
      {
        Hw_config.default with
        Hw_config.icache = Some (Cache_config.make ~sets:8 ~assoc:1 ~line_bytes:16);
        dcache = Some (Cache_config.make ~sets:8 ~assoc:1 ~line_bytes:16);
      } );
    ("default (2-way x 16 sets x 16B)", Hw_config.default);
    ( "large (4-way x 64 sets x 16B)",
      {
        Hw_config.default with
        Hw_config.icache = Some (Cache_config.make ~sets:64 ~assoc:4 ~line_bytes:16);
        dcache = Some (Cache_config.make ~sets:64 ~assoc:4 ~line_bytes:16);
      } );
  ]

let table_ablations ppf () =
  Format.fprintf ppf "@[<v>== A1: single-path (if-conversion) ablation ==@,@,";
  let (b_bound, b_obs), (s_bound, s_obs) = single_path_measurements () in
  Format.fprintf ppf "| code generation     | bound | observed max | ratio |@,";
  Format.fprintf ppf "|---------------------|-------|--------------|-------|@,";
  Format.fprintf ppf "| branchy (default)   | %5d | %12d | %5.2f |@," b_bound b_obs
    (float_of_int b_bound /. float_of_int b_obs);
  Format.fprintf ppf "| single-path (cmov)  | %5d | %12d | %5.2f |@," s_bound s_obs
    (float_of_int s_bound /. float_of_int s_obs);
  Format.fprintf ppf
    "@,The predicated code has almost no bound/observed gap (every run takes the same path)      but executes the conditional work unconditionally — the trade-off the paper's related      work discusses for the single-path paradigm.@,@,";
  Format.fprintf ppf "== A2: cache geometry sweep (COLA-style layout sensitivity) ==@,@,";
  let program = Compile.compile cache_sweep_source in
  Format.fprintf ppf "| configuration                  | bound | observed | ratio |@,";
  Format.fprintf ppf "|--------------------------------|-------|----------|-------|@,";
  List.iter
    (fun (name, hw) ->
      let bound, observed = measure_program ~hw program [ 0; 17; 63 ] in
      Format.fprintf ppf "| %-30s | %5d | %8d | %5.2f |@," name bound observed
        (float_of_int bound /. float_of_int observed))
    cache_configs;
  Format.fprintf ppf "@]@."

let all_runs ?domains () =
  List.concat_map
    (fun (c, v) -> [ c; v ])
    (Wcet_util.Parallel.map_list ?domains run_entry Corpus.all)
