module Rat = Wcet_util.Rat
module Supergraph = Wcet_cfg.Supergraph
module Loops = Wcet_cfg.Loops
module Analysis = Wcet_value.Analysis

module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace

let m_solves = Metrics.counter ~name:"ipet_solves" ~help:"IPET problems handed to the ILP solver" ()

let m_constraints =
  Metrics.gauge ~name:"ipet_constraints" ~help:"Constraint rows of the last IPET problem" ()

let m_variables =
  Metrics.gauge ~name:"ipet_variables" ~help:"Flow variables of the last IPET problem" ()

module Path_analysis = Wcet_path.Path_analysis

type fact = Path_analysis.fact = {
  fact_coeffs : (int * int) list;
  fact_bound : int;
  fact_label : string;
}

type spec = Path_analysis.spec = {
  value : Analysis.result;
  times : int array;
  loop_bounds : (int * int) list;
  facts : fact list;
}

type solution = Path_analysis.solution = { wcet : int; node_counts : int array }

let name = "ipet"
let path_sensitive = false
let fact_blind = false
let exact_witness = false

let solve_lp (spec : spec) (loops : Loops.info) =
  let graph = spec.value.Analysis.graph in
  let n = Array.length graph.Supergraph.nodes in
  let entry = graph.Supergraph.entry in
  let reachable i = Analysis.reachable spec.value i in
  let feasible = Array.init n (fun i -> Analysis.feasible_successors spec.value i) in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun (_, t) -> indeg.(t) <- indeg.(t) + 1)) feasible;
  (* Chain collapsing: u merges into its unique successor v when v has a
     unique predecessor and is not the entry. *)
  let next = Array.make n (-1) in
  Array.iteri
    (fun u succs ->
      match succs with
      | [ (_, v) ] when indeg.(v) = 1 && v <> entry && v <> u -> next.(u) <- v
      | _ -> ())
    feasible;
  let merged_into = Array.make n false in
  Array.iter (fun v -> if v >= 0 then merged_into.(v) <- true) next;
  let super_of = Array.make n (-1) in
  let super_members : int list list ref = ref [] in
  let super_count = ref 0 in
  for u = 0 to n - 1 do
    if reachable u && not merged_into.(u) then begin
      let id = !super_count in
      incr super_count;
      let rec collect v acc =
        super_of.(v) <- id;
        if next.(v) >= 0 then collect next.(v) (v :: acc) else List.rev (v :: acc)
      in
      super_members := collect u [] :: !super_members
    end
  done;
  let members = Array.make !super_count [] in
  List.iter
    (fun ms -> match ms with [] -> () | v :: _ -> members.(super_of.(v)) <- ms)
    !super_members;
  let super_time =
    Array.map (fun ms -> List.fold_left (fun acc v -> acc + spec.times.(v)) 0 ms) members
  in
  (* Super edges: feasible edges not swallowed by chain collapsing, tagged
     with their original (src, dst) so loop bounds can find them. *)
  let edge_list = ref [] in
  let edge_count = ref 0 in
  let edge_index : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun u succs ->
      if reachable u then
        List.iter
          (fun (_, v) ->
            if next.(u) <> v then begin
              let id = !edge_count in
              incr edge_count;
              edge_list := (id, u, v) :: !edge_list;
              let prev = Option.value ~default:[] (Hashtbl.find_opt edge_index (u, v)) in
              Hashtbl.replace edge_index (u, v) (id :: prev)
            end)
          succs)
    feasible;
  let edges = Array.make !edge_count (0, 0) in
  List.iter (fun (id, u, v) -> edges.(id) <- (u, v)) !edge_list;
  let num_edges = !edge_count in
  (* Exit variables for supers without outgoing edges. *)
  let super_out = Array.make !super_count [] in
  let super_in = Array.make !super_count [] in
  Array.iteri
    (fun id (u, v) ->
      super_out.(super_of.(u)) <- id :: super_out.(super_of.(u));
      super_in.(super_of.(v)) <- id :: super_in.(super_of.(v)))
    edges;
  let exit_var = Array.make !super_count (-1) in
  let num_vars = ref num_edges in
  for s = 0 to !super_count - 1 do
    if super_out.(s) = [] then begin
      exit_var.(s) <- !num_vars;
      incr num_vars
    end
  done;
  let entry_super = super_of.(entry) in
  let constraints = ref [] in
  let add c = constraints := c :: !constraints in
  (* Flow conservation: in + [entry] = out + exit. *)
  for s = 0 to !super_count - 1 do
    let coeffs =
      List.map (fun e -> (e, Rat.one)) super_in.(s)
      @ List.map (fun e -> (e, Rat.minus_one)) super_out.(s)
      @ (if exit_var.(s) >= 0 then [ (exit_var.(s), Rat.minus_one) ] else [])
    in
    let rhs = if s = entry_super then Rat.minus_one else Rat.zero in
    add { Wcet_lp.Simplex.coeffs; op = Wcet_lp.Simplex.Eq; rhs }
  done;
  (* Loop bounds: sum(back) <= B * sum(entry). *)
  List.iter
    (fun (li, bound) ->
      let loop = loops.Loops.loops.(li) in
      let edge_vars pairs =
        List.concat_map
          (fun (u, v) -> Option.value ~default:[] (Hashtbl.find_opt edge_index (u, v)))
          pairs
      in
      let back = edge_vars loop.Loops.back_edges in
      let entries = edge_vars loop.Loops.entry_edges in
      if back <> [] then
        add
          {
            Wcet_lp.Simplex.coeffs =
              List.map (fun e -> (e, Rat.one)) back
              @ List.map (fun e -> (e, Rat.of_int (-bound))) entries;
            op = Wcet_lp.Simplex.Le;
            rhs = Rat.zero;
          })
    spec.loop_bounds;
  (* Node execution count as a linear form over variables: flow through its
     supernode. *)
  let count_form v =
    let s = super_of.(v) in
    if s < 0 then ([], 0)
    else
      (List.map (fun e -> (e, 1)) super_in.(s), if s = entry_super then 1 else 0)
  in
  List.iter
    (fun fact ->
      let coeffs = ref [] in
      let const = ref 0 in
      List.iter
        (fun (node, k) ->
          if node >= 0 && node < n && reachable node then begin
            let form, c = count_form node in
            const := !const + (k * c);
            List.iter (fun (e, w) -> coeffs := (e, Rat.of_int (k * w)) :: !coeffs) form
          end)
        fact.fact_coeffs;
      add
        {
          Wcet_lp.Simplex.coeffs = !coeffs;
          op = Wcet_lp.Simplex.Le;
          rhs = Rat.of_int (fact.fact_bound - !const);
        })
    spec.facts;
  (* Objective: time of each super times its flow; entry flow is the
     constant 1. *)
  let objective = Hashtbl.create 64 in
  Array.iteri
    (fun id (_, v) ->
      let t = super_time.(super_of.(v)) in
      if t <> 0 then
        Hashtbl.replace objective id (t + Option.value ~default:0 (Hashtbl.find_opt objective id)))
    edges;
  let maximize = Hashtbl.fold (fun e t acc -> (e, Rat.of_int t) :: acc) objective [] in
  let problem =
    { Wcet_lp.Simplex.num_vars = !num_vars; maximize; constraints = !constraints }
  in
  Metrics.incr m_solves 1;
  Metrics.set m_constraints (List.length !constraints);
  Metrics.set m_variables !num_vars;
  match Wcet_lp.Ilp.solve problem with
  | Wcet_lp.Ilp.Unbounded ->
    Error
      (Path_analysis.unbounded
         "some cycle has neither a derived loop bound nor an annotation (irreducible \
          control flow or an unbounded loop)")
  | Wcet_lp.Ilp.Infeasible -> Error (Path_analysis.infeasible "contradictory flow facts")
  | Wcet_lp.Ilp.Optimal (value, assignment) ->
    let base = super_time.(entry_super) in
    (* A fractional vertex can survive the branch-and-bound budget once
       weighted flow facts break total unimodularity. Flooring such an
       assignment edge-by-edge would desynchronize the counts from the
       bound; instead round every edge count up — the rounded objective
       dominates the LP relaxation, which dominates the ILP optimum, so
       the repaired bound stays sound and the count/time identity holds
       by construction. *)
    let fractional = Array.exists (fun x -> not (Rat.is_integer x)) assignment in
    let count_of e =
      if fractional then Rat.ceil assignment.(e) else Rat.floor assignment.(e)
    in
    let wcet =
      if fractional then
        base + Hashtbl.fold (fun e t acc -> acc + (t * count_of e)) objective 0
      else base + Rat.floor value
    in
    let node_counts = Array.make n 0 in
    for v = 0 to n - 1 do
      if reachable v && super_of.(v) >= 0 then begin
        let form, c = count_form v in
        let count = List.fold_left (fun acc (e, w) -> acc + (w * count_of e)) c form in
        node_counts.(v) <- count
      end
    done;
    Path_analysis.checked ~who:"IPET" { wcet; node_counts } spec.times

module Simplex = struct
  let name = "simplex"
  let path_sensitive = false
  let fact_blind = false
  let exact_witness = false
  let solve = solve_lp
end

(* A fact-free spec is a tree-structured problem: the longest path over the
   collapsed loop forest is its optimum. Flow facts, and any spec the
   forest cannot collapse (irreducible or unbounded cycles), go to the
   simplex, which also supplies the typed error. *)
let solve (spec : spec) (loops : Loops.info) =
  match if spec.facts = [] then Some (Wcet_path.Forest.solve spec loops) else None with
  | Some sol ->
    Trace.add_attr "solver" (Trace.Str "forest");
    Path_analysis.checked ~who:"IPET" sol spec.times
  | None | (exception Wcet_path.Forest.Failed _) ->
    Trace.add_attr "solver" (Trace.Str "simplex");
    solve_lp spec loops
