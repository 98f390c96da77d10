(* Worst-case path explanation: decode the IPET solution back into terms a
   developer can act on.

   IPET returns, besides the bound, the execution count the ILP optimum
   assigns to every supergraph node. Because the objective is exactly
   sum(count(v) * time(v)) (the entry supernode contributes its time as the
   constant base), the per-block products decompose the bound with no
   residue: [covered] always equals [wcet]. The explanation ranks blocks
   and loops by that product, so the top rows are where cycles go on the
   worst-case path — the place to aim restructuring (the paper's Section 4
   rules) or annotation tightening. *)

module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops
module Json = Wcet_diag.Json

type block_row = {
  node : int;  (* supergraph node id *)
  func : string;
  addr : int;  (* block entry address *)
  count : int;
  cycles : int;  (* per execution *)
  total : int;  (* count * cycles *)
  share : float;  (* of the WCET bound *)
}

type loop_row = {
  loop : int;  (* loop index *)
  header_addr : int;
  loop_func : string;
  depth : int;
  bound : int option;  (* effective iteration bound, if any *)
  loop_total : int;  (* cycles of body blocks on the worst-case path *)
  loop_share : float;
}

type t = {
  wcet : int;
  blocks : block_row list;  (* descending by total *)
  loops : loop_row list;  (* descending by total; includes nested bodies *)
  dominating : loop_row option;
  covered : int;  (* sum of block totals; equals [wcet] *)
  backends : Analyzer.backend_run list;  (* per-backend portfolio outcomes *)
  mc_gate : Analyzer.mc_gate;  (* why the model checker did or did not race *)
}

let share_of wcet total = if wcet = 0 then 0. else float_of_int total /. float_of_int wcet

let of_report (r : Analyzer.report) =
  let nodes = r.Analyzer.graph.Supergraph.nodes in
  let counts = r.Analyzer.solution.Wcet_ipet.Ipet.node_counts in
  let times = r.Analyzer.timing.Wcet_pipeline.Block_timing.wcet in
  let wcet = r.Analyzer.wcet in
  let blocks = ref [] in
  let covered = ref 0 in
  Array.iteri
    (fun i (node : Supergraph.node) ->
      let count = counts.(i) in
      if count > 0 then begin
        let cycles = times.(i) in
        let total = count * cycles in
        covered := !covered + total;
        blocks :=
          {
            node = i;
            func = node.Supergraph.func;
            addr = node.Supergraph.block.Func_cfg.entry;
            count;
            cycles;
            total;
            share = share_of wcet total;
          }
          :: !blocks
      end)
    nodes;
  let blocks =
    List.sort (fun a b -> compare (b.total, a.node) (a.total, b.node)) !blocks
  in
  let loop_rows =
    Array.to_list r.Analyzer.loops.Loops.loops
    |> List.mapi (fun li (loop : Loops.loop) ->
           let total =
             List.fold_left (fun acc v -> acc + (counts.(v) * times.(v))) 0 loop.Loops.body
           in
           let header = nodes.(loop.Loops.header) in
           {
             loop = li;
             header_addr = header.Supergraph.block.Func_cfg.entry;
             loop_func = header.Supergraph.func;
             depth = loop.Loops.depth;
             bound = List.assoc_opt li r.Analyzer.effective_bounds;
             loop_total = total;
             loop_share = share_of wcet total;
           })
    |> List.filter (fun row -> row.loop_total > 0)
    |> List.sort (fun a b -> compare (b.loop_total, a.loop) (a.loop_total, b.loop))
  in
  let dominating = match loop_rows with [] -> None | row :: _ -> Some row in
  {
    wcet;
    blocks;
    loops = loop_rows;
    dominating;
    covered = !covered;
    backends = r.Analyzer.backend_runs;
    mc_gate = r.Analyzer.mc_gate;
  }

let pp_loop_row ppf row =
  Format.fprintf ppf "loop at 0x%x in %s (depth %d%s): %d cycles, %.1f%% of bound"
    row.header_addr row.loop_func row.depth
    (match row.bound with Some b -> Printf.sprintf ", bound %d" b | None -> "")
    row.loop_total (100. *. row.loop_share)

let pp ?(top = 10) ppf t =
  Format.fprintf ppf "@[<v>WCET bound: %d cycles; %d block(s) on the worst-case path@,"
    t.wcet (List.length t.blocks);
  Format.fprintf ppf "%8s %6s %11s %8s  %s@," "total" "count" "cycles/exec" "share" "block";
  let shown = ref 0 in
  List.iter
    (fun row ->
      if !shown < top then begin
        incr shown;
        Format.fprintf ppf "%8d %6d %11d %7.1f%%  %s:0x%x@," row.total row.count row.cycles
          (100. *. row.share) row.func row.addr
      end)
    t.blocks;
  let rest = List.length t.blocks - !shown in
  if rest > 0 then begin
    let rest_total =
      List.fold_left (fun acc r -> acc + r.total) 0 t.blocks
      - List.fold_left
          (fun acc r -> acc + r.total)
          0
          (List.filteri (fun i _ -> i < !shown) t.blocks)
    in
    Format.fprintf ppf "%8d %6s %11s %7.1f%%  (%d more blocks)@," rest_total "" ""
      (100. *. share_of t.wcet rest_total)
      rest
  end;
  (match t.dominating with
  | Some row -> Format.fprintf ppf "dominating loop: %a@," pp_loop_row row
  | None -> Format.fprintf ppf "dominating loop: none (no loop on the worst-case path)@,");
  List.iter
    (fun row -> if Some row.loop <> Option.map (fun d -> d.loop) t.dominating then
        Format.fprintf ppf "loop: %a@," pp_loop_row row)
    t.loops;
  Format.fprintf ppf "decomposition covers %d of %d cycles@," t.covered t.wcet;
  (* Only interesting when a portfolio actually raced: a single-backend run
     would just restate the bound. *)
  if List.length t.backends > 1 then
    List.iter
      (fun (b : Analyzer.backend_run) ->
        match b.Analyzer.br_bound with
        | Some bound ->
          Format.fprintf ppf "path backend %s: %d cycles, %.3f ms%s@," b.Analyzer.br_name bound
            (float_of_int b.Analyzer.br_wall_us /. 1000.)
            (if b.Analyzer.br_winner then " (tightest, shown above)" else "")
        | None ->
          Format.fprintf ppf "path backend %s: failed (%s), %.3f ms@," b.Analyzer.br_name
            (match b.Analyzer.br_error with Some (code, _) -> code | None -> "?")
            (float_of_int b.Analyzer.br_wall_us /. 1000.))
      t.backends;
  Format.fprintf ppf "mc gate: %s (%s)@," (Analyzer.mc_gate_decision t.mc_gate)
    (Analyzer.mc_gate_reason t.mc_gate);
  Format.fprintf ppf "@]"

let block_row_json row =
  Json.Obj
    [
      ("node", Json.Int row.node);
      ("func", Json.String row.func);
      ("addr", Json.Int row.addr);
      ("count", Json.Int row.count);
      ("cycles_per_exec", Json.Int row.cycles);
      ("total_cycles", Json.Int row.total);
      ("share", Json.Float row.share);
    ]

let loop_row_json row =
  Json.Obj
    [
      ("loop", Json.Int row.loop);
      ("header", Json.Int row.header_addr);
      ("func", Json.String row.loop_func);
      ("depth", Json.Int row.depth);
      ("bound", match row.bound with Some b -> Json.Int b | None -> Json.Null);
      ("total_cycles", Json.Int row.loop_total);
      ("share", Json.Float row.loop_share);
    ]

let to_json t =
  Json.Obj
    [
      ("wcet", Json.Int t.wcet);
      ("covered", Json.Int t.covered);
      ("blocks", Json.List (List.map block_row_json t.blocks));
      ("loops", Json.List (List.map loop_row_json t.loops));
      ( "dominating_loop",
        match t.dominating with Some row -> loop_row_json row | None -> Json.Null );
      ( "path_backends",
        Json.List
          (List.map
             (fun (b : Analyzer.backend_run) ->
               Json.Obj
                 [
                   ("name", Json.String b.Analyzer.br_name);
                   ( "bound",
                     match b.Analyzer.br_bound with Some x -> Json.Int x | None -> Json.Null );
                   ("wall_us", Json.Int b.Analyzer.br_wall_us);
                   ("winner", Json.Bool b.Analyzer.br_winner);
                 ])
             t.backends) );
      ("mc_gate", Analyzer.mc_gate_to_json t.mc_gate);
    ]

(* DOT view: the whole supergraph, with worst-case-path nodes filled —
   darker means a larger share of the bound — and path edges bold. *)
let emit_dot ppf (r : Analyzer.report) t =
  let nodes = r.Analyzer.graph.Supergraph.nodes in
  let counts = r.Analyzer.solution.Wcet_ipet.Ipet.node_counts in
  let share = Array.make (Array.length nodes) 0. in
  List.iter (fun row -> share.(row.node) <- row.share) t.blocks;
  Format.fprintf ppf "@[<v>digraph wcet_path {@,";
  Format.fprintf ppf "  node [shape=box, fontname=\"monospace\"];@,";
  Format.fprintf ppf "  label=\"worst-case path: %d cycles\";@," t.wcet;
  Array.iteri
    (fun i (node : Supergraph.node) ->
      let label =
        Format.asprintf "%s:0x%x\\nx%d, %d cyc" node.Supergraph.func
          node.Supergraph.block.Func_cfg.entry counts.(i)
          r.Analyzer.timing.Wcet_pipeline.Block_timing.wcet.(i)
      in
      if counts.(i) > 0 then begin
        (* saturation tracks the share: hot blocks read at a glance *)
        let sat = 0.15 +. (0.85 *. min 1.0 (share.(i) *. 4.)) in
        Format.fprintf ppf "  n%d [label=\"%s\", style=filled, fillcolor=\"0.05 %.2f 1.0\"];@,"
          i label sat
      end
      else Format.fprintf ppf "  n%d [label=\"%s\", color=gray, fontcolor=gray];@," i label)
    nodes;
  Array.iteri
    (fun i (node : Supergraph.node) ->
      List.iter
        (fun (_, succ) ->
          if counts.(i) > 0 && counts.(succ) > 0 then
            Format.fprintf ppf "  n%d -> n%d [penwidth=2.2, color=\"#aa2222\"];@," i succ
          else Format.fprintf ppf "  n%d -> n%d [color=gray];@," i succ)
        node.Supergraph.succs)
    nodes;
  Format.fprintf ppf "}@]@."
