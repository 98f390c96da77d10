(* Call-graph condensation: [function_scc_count], for the [scc_count]
   metric — how many SCCs the resolved calls between expanded functions
   form, counted by one iterative Tarjan pass. *)

module Supergraph = Supergraph

(* Iterative Tarjan. Emits SCCs in reverse topological order; [emit] is
   called once per component with its member list. *)
let tarjan ~num_nodes ~succs ~emit =
  let index = Array.make num_nodes (-1) in
  let lowlink = Array.make num_nodes 0 in
  let on_stack = Array.make num_nodes false in
  let stack = ref [] in
  let next_index = ref 0 in
  let visit root =
    if index.(root) < 0 then begin
      let dfs = ref [] in
      let push n =
        index.(n) <- !next_index;
        lowlink.(n) <- !next_index;
        incr next_index;
        stack := n :: !stack;
        on_stack.(n) <- true;
        dfs := (n, ref (succs n)) :: !dfs
      in
      push root;
      while !dfs <> [] do
        match !dfs with
        | [] -> ()
        | (n, rest) :: tl -> (
          match !rest with
          | m :: ms ->
            rest := ms;
            if m >= 0 && m < num_nodes then begin
              if index.(m) < 0 then push m
              else if on_stack.(m) && index.(m) < lowlink.(n) then lowlink.(n) <- index.(m)
            end
          | [] ->
            dfs := tl;
            (match tl with
            | (parent, _) :: _ ->
              if lowlink.(n) < lowlink.(parent) then lowlink.(parent) <- lowlink.(n)
            | [] -> ());
            if lowlink.(n) = index.(n) then begin
              let members = ref [] in
              let continue_ = ref true in
              while !continue_ do
                match !stack with
                | [] -> continue_ := false
                | m :: restack ->
                  stack := restack;
                  on_stack.(m) <- false;
                  members := m :: !members;
                  if m = n then continue_ := false
              done;
              emit !members
            end)
      done
    end
  in
  for n = 0 to num_nodes - 1 do
    visit n
  done

let function_scc_count (graph : Supergraph.t) =
  let nodes = graph.Supergraph.nodes in
  (* The program functions the graph actually expanded. *)
  let expanded : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  Array.iter (fun (n : Supergraph.node) -> Hashtbl.replace expanded n.Supergraph.func ()) nodes;
  let index_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Pred32_asm.Program.func_info) ->
      let name = f.Pred32_asm.Program.name in
      if Hashtbl.mem expanded name && not (Hashtbl.mem index_of name) then
        Hashtbl.replace index_of name (Hashtbl.length index_of))
    graph.Supergraph.program.Pred32_asm.Program.functions;
  let callees = Array.make (Hashtbl.length index_of) [] in
  Array.iter
    (fun (n : Supergraph.node) ->
      match Hashtbl.find_opt index_of n.Supergraph.func with
      | None -> ()
      | Some fi ->
        List.iter
          (fun (kind, m) ->
            match (kind, Hashtbl.find_opt index_of nodes.(m).Supergraph.func) with
            | Supergraph.Ecall, Some ci -> callees.(fi) <- ci :: callees.(fi)
            | _ -> ())
          n.Supergraph.succs)
    nodes;
  let count = ref 0 in
  tarjan ~num_nodes:(Array.length callees) ~succs:(fun i -> callees.(i)) ~emit:(fun _ ->
      incr count);
  !count
