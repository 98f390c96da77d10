module Corpus = Wcet_corpus.Corpus
module Compile = Minic.Compile
module Sim = Pred32_sim.Simulator
module Analyzer = Wcet_core.Analyzer
module Attribution = Wcet_core.Attribution
module Annot = Wcet_annot.Annot
module Diag = Wcet_diag.Diag
module Ledger = Wcet_obs.Ledger
module Handlers = Wcet_serve.Handlers
module Pcg = Wcet_util.Pcg

type stats = {
  scenarios : int;
  complete : int;
  partial : int;
  failed : int;
  simulations : int;
  attributed : int;
  portfolio_wins : int;
  violations : Diag.t list;
  diagnostics : Diag.t list;
}

(* Random input sets that respect the scenario's contracts: cells covered
   by an [assume] range (word 0 of the symbol) are sampled inside it;
   every other poked cell is recombined from the values the declared input
   sets actually use. Cells never poked stay at their linked initial
   values. *)
let random_input_sets rng ~count (annot : Annot.t) inputs =
  let pool : ((string * int), int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (sym, idx, v) ->
         match Hashtbl.find_opt pool (sym, idx) with
         | Some cell -> if not (List.mem v !cell) then cell := v :: !cell
         | None -> Hashtbl.add pool (sym, idx) (ref [ v ])))
    inputs;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) pool [] |> List.sort compare in
  if keys = [] then []
  else
    List.init count (fun _ ->
        List.map
          (fun (sym, idx) ->
            let v =
              match
                List.find_opt (fun (s, _, _) -> s = sym && idx = 0) annot.Annot.assumes
              with
              | Some (_, lo, hi) -> lo + Pcg.next_int rng (hi - lo + 1)
              | None ->
                let vs = !(Hashtbl.find pool (sym, idx)) in
                List.nth vs (Pcg.next_int rng (List.length vs))
            in
            (sym, idx, v))
          keys)

let sim_fuel = 2_000_000

(* The exact-sum acceptance property, re-asserted on every complete
   scenario: [Attribution.of_report] internally verifies that the
   per-source decomposition sums to bound − observed and fails with E0804
   otherwise; non-halting or partial cases (E0805) prove nothing and are
   skipped. *)
let check_attribution ~id ~variant (s : Corpus.scenario) report acc =
  let pokes = match s.Corpus.inputs with [] -> [] | p :: _ -> p in
  match Attribution.of_report ~pokes ~fuel:sim_fuel report with
  | Ok a ->
    ignore (a : Attribution.t);
    { acc with attributed = acc.attributed + 1 }
  | Error d when d.Diag.code = "E0804" ->
    let v =
      Diag.make Diag.Error Diag.Check ~code:"E0804"
        (Printf.sprintf "%s/%s: %s" id variant d.Diag.message)
    in
    { acc with violations = v :: acc.violations }
  | Error _ -> acc

(* Per-backend bounds for the ledger, so bound drift is attributable to a
   specific path backend across tool versions. *)
let backend_metrics (report : Analyzer.report) =
  List.filter_map
    (fun (b : Analyzer.backend_run) ->
      Option.map (fun bound -> ("path_bound_" ^ b.Analyzer.br_name, bound)) b.Analyzer.br_bound)
    report.Analyzer.backend_runs

(* The standing portfolio acceptance property: the portfolio includes IPET,
   so its tightest-of-backends bound can never exceed the bound of its own
   IPET run. A violation is the E0303 soundness bug surfaced as a check
   violation. *)
let check_portfolio ~id ~variant (report : Analyzer.report) acc =
  match List.find_opt (fun b -> b.Analyzer.br_name = "ipet") report.Analyzer.backend_runs with
  | Some { Analyzer.br_bound = Some ipet; _ } ->
    if report.Analyzer.wcet > ipet then
      let d =
        Diag.make Diag.Error Diag.Check ~code:"E0303"
          (Printf.sprintf
             "%s/%s: portfolio bound %d exceeds the IPET bound %d — the tightest-bound \
              selection is broken"
             id variant report.Analyzer.wcet ipet)
      in
      { acc with violations = d :: acc.violations }
    else if report.Analyzer.wcet < ipet then { acc with portfolio_wins = acc.portfolio_wins + 1 }
    else acc
  | Some { Analyzer.br_bound = None; _ } | None -> acc

(* The transfer counts of the fixpoints behind a bound, for the ledger:
   a cost regression trips it like a bound regression. *)
let transfer_metrics (report : Analyzer.report) =
  [
    ("value_transfers", report.Analyzer.value.Wcet_value.Analysis.transfers);
    ("cache_transfers", report.Analyzer.cache.Wcet_cache.Cache_analysis.transfers);
    ( "octagon_transfers",
      match report.Analyzer.escalation with Some e -> e.Analyzer.ei_transfers | None -> 0 );
  ]

let analyze_scenario ~domain ~verify (s : Corpus.scenario) =
  let program = Compile.compile ~options:s.Corpus.options s.Corpus.source in
  let annot = s.Corpus.annotations program in
  (program, annot, Handlers.run { Handlers.domain; verify } ~hw:s.Corpus.hw ~annot program)

let check_scenario rng ~verify ~random_per_scenario ~record ~id ~variant
    (s : Corpus.scenario) (program, annot, outcome) acc =
  (* One ledger snapshot per analyzed scenario; [observed] is the worst
     halting cycle count seen across this run's input sets (None when
     nothing halted). The digest covers the scenario source text, so drift
     between tool versions is attributed to the tool, not the program. *)
  let ledger_entry ?observed () =
    Handlers.ledger_entry ~program:(id ^ "/" ^ variant)
      ~digest:(Digest.to_hex (Digest.string s.Corpus.source))
      ?observed (Result.map Analyzer.answer outcome)
  in
  match outcome with
  | Error ds ->
    let d =
      Diag.make Diag.Error Diag.Check ~code:"E0701"
        (Printf.sprintf "%s/%s: analysis failed during check (%s)" id variant
           (match ds with d :: _ -> d.Diag.code | [] -> "?"))
    in
    record (ledger_entry ());
    { acc with scenarios = acc.scenarios + 1; failed = acc.failed + 1;
      diagnostics = d :: acc.diagnostics }
  | Ok report -> (
    (* Under verify the analyzer polices the model checker's gate (W0306)
       and the octagon escalation's trigger (W0502), both precision
       oracles: surface each miss in the check's diagnostics. *)
    let misses =
      List.filter_map
        (fun (d : Diag.t) ->
          if d.Diag.code <> "W0306" && d.Diag.code <> "W0502" then None
          else
            Some
              (Diag.makef Diag.Info Diag.Check ~code:d.Diag.code "%s/%s: %s" id variant
                 d.Diag.message))
        report.Analyzer.diagnostics
    in
    let acc = { acc with diagnostics = List.rev_append misses acc.diagnostics } in
    match report.Analyzer.verdict with
    | Analyzer.Partial ->
      let entry = ledger_entry () in
      record { entry with Ledger.metrics = entry.Ledger.metrics @ transfer_metrics report };
      { acc with scenarios = acc.scenarios + 1; partial = acc.partial + 1 }
    | Analyzer.Complete ->
      let bound = report.Analyzer.wcet in
      let worst_observed = ref None in
      let input_sets =
        s.Corpus.inputs
        @ random_input_sets rng ~count:random_per_scenario annot s.Corpus.inputs
      in
      let acc = ref { acc with scenarios = acc.scenarios + 1; complete = acc.complete + 1 } in
      List.iter
        (fun pokes ->
          let sim = Sim.create s.Corpus.hw program in
          List.iter (fun (sym, idx, v) -> Sim.poke_symbol sim sym idx v) pokes;
          match Sim.run ~fuel:sim_fuel sim with
          | Sim.Halted { cycles; _ } ->
            acc := { !acc with simulations = !acc.simulations + 1 };
            (match !worst_observed with
            | Some c when c >= cycles -> ()
            | Some _ | None -> worst_observed := Some cycles);
            if cycles > bound then begin
              let d =
                Diag.make Diag.Error Diag.Check ~code:"E0601"
                  ~hint:
                    (String.concat "; "
                       (List.map (fun (s, i, v) -> Printf.sprintf "%s[%d]=%d" s i v) pokes))
                  (Printf.sprintf
                     "%s/%s: simulated run took %d cycles, exceeding the complete bound %d — \
                      analyzer soundness bug"
                     id variant cycles bound)
              in
              acc := { !acc with violations = d :: !acc.violations }
            end
          | Sim.Faulted { fault; _ } ->
            let d =
              Diag.make Diag.Warning Diag.Check ~code:"W0602"
                (Format.asprintf "%s/%s: simulation faulted (%a) — comparison inconclusive" id
                   variant
                   (fun ppf -> function
                     | Sim.Illegal_instruction pc ->
                       Format.fprintf ppf "illegal instruction at 0x%x" pc
                     | Sim.Bus_error a -> Format.fprintf ppf "bus error at 0x%x" a
                     | Sim.Write_to_rom a -> Format.fprintf ppf "write to ROM at 0x%x" a)
                   fault)
            in
            acc := { !acc with diagnostics = d :: !acc.diagnostics }
          | Sim.Out_of_fuel _ ->
            let d =
              Diag.make Diag.Warning Diag.Check ~code:"W0602"
                (Printf.sprintf "%s/%s: simulation exhausted %d-instruction fuel — comparison \
                                 inconclusive"
                   id variant sim_fuel)
            in
            acc := { !acc with diagnostics = d :: !acc.diagnostics })
        input_sets;
      let entry = ledger_entry ?observed:!worst_observed () in
      record
        {
          entry with
          Ledger.metrics =
            entry.Ledger.metrics @ transfer_metrics report
            @ if verify then backend_metrics report else [];
        };
      let acc = check_attribution ~id ~variant s report !acc in
      if verify then check_portfolio ~id ~variant report acc
      else acc)

let run ?(seed = 20110318L) ?(domain = Wcet_value.Analysis.Interval) ?(verify = false)
    ?(random_per_scenario = 8) ?ledger () =
  let rng = Pcg.create ~seed () in
  let entries = ref [] in
  let record e = if ledger <> None then entries := e :: !entries in
  let empty =
    {
      scenarios = 0;
      complete = 0;
      partial = 0;
      failed = 0;
      simulations = 0;
      attributed = 0;
      portfolio_wins = 0;
      violations = [];
      diagnostics = [];
    }
  in
  let scenarios =
    List.concat_map
      (fun (e : Corpus.entry) ->
        [ (e.Corpus.id, "conforming", e.Corpus.conforming); (e.Corpus.id, "violating", e.Corpus.violating) ])
      Corpus.all
  in
  (* The analyses are independent, so they run across the domain pool; the
     checks draw from one input generator, so they run in corpus order.
     Either way the stats and the ledger are the same for any pool width. *)
  let analyzed =
    Wcet_util.Parallel.map_list (fun (_, _, s) -> analyze_scenario ~domain ~verify s) scenarios
  in
  let stats =
    List.fold_left2
      (fun acc (id, variant, s) analysis ->
        check_scenario rng ~verify ~random_per_scenario ~record ~id ~variant s analysis acc)
      empty scenarios analyzed
  in
  let stats =
    match ledger with
    | None -> stats
    | Some path -> (
      match Ledger.append ~path (List.rev !entries) with
      | Ok () -> stats
      | Error msg ->
        let d =
          Diag.makef Diag.Warning Diag.Obs ~code:"W0802" "bound ledger %s not written: %s"
            path msg
        in
        { stats with diagnostics = d :: stats.diagnostics })
  in
  {
    stats with
    violations = List.rev stats.violations;
    diagnostics = List.rev stats.diagnostics;
  }

let ok s = s.violations = [] && s.failed = 0

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>soundness check: %d scenarios (%d complete, %d partial, %d failed), %d simulated \
     runs, %d attributed, %d violation(s)@,"
    s.scenarios s.complete s.partial s.failed s.simulations s.attributed
    (List.length s.violations);
  if s.portfolio_wins > 0 then
    Format.fprintf ppf "portfolio strictly tighter than IPET on %d scenario(s)@,"
      s.portfolio_wins;
  if s.violations <> [] then Format.fprintf ppf "%a@," Diag.pp_list s.violations;
  if s.diagnostics <> [] then Format.fprintf ppf "%a@," Diag.pp_list s.diagnostics;
  Format.fprintf ppf "verdict: %s@]" (if ok s then "OK" else "FAILED")

let to_json s =
  let open Wcet_diag.Json in
  Obj
    [
      ("scenarios", Int s.scenarios);
      ("complete", Int s.complete);
      ("partial", Int s.partial);
      ("failed", Int s.failed);
      ("simulations", Int s.simulations);
      ("attributed", Int s.attributed);
      ("portfolio_wins", Int s.portfolio_wins);
      ("violations", List (List.map Diag.to_json s.violations));
      ("diagnostics", List (List.map Diag.to_json s.diagnostics));
      ("ok", Bool (ok s));
    ]
