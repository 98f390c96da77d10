module Program = Pred32_asm.Program
module Reg = Pred32_isa.Reg
module Supergraph = Wcet_cfg.Supergraph
module Func_cfg = Wcet_cfg.Func_cfg
module Loops = Wcet_cfg.Loops

type guard = { symbol : string; sites : (int * string) list }

let guards (program : Program.t) (loops : Loops.info) (v : Analysis.result) =
  let g = v.Analysis.graph in
  (* Data symbols by address; the first symbol listed at an address names it. *)
  let data_syms = Hashtbl.create 16 in
  List.iter
    (fun (name, a) ->
      if (a < program.Program.text_base || a >= program.Program.text_limit)
         && not (Hashtbl.mem data_syms a)
      then Hashtbl.add data_syms a name)
    program.Program.symbols;
  (* Every store's address range narrower than 4 KB, collected once. *)
  let stores =
    lazy
      (Array.fold_left
         (List.fold_left (fun acc (x : Analysis.access) ->
              if not x.Analysis.is_store then acc
              else
                match Aval.range x.Analysis.addr with
                | Some (lo, hi) when hi - lo < 4096 -> (lo, hi) :: acc
                | _ -> acc))
         [] v.Analysis.accesses)
  in
  let stored addr = List.exists (fun (lo, hi) -> lo <= addr && addr <= hi) (Lazy.force stores) in
  (* Does the branch select between two different callees? The successor
     block on each side is inspected for the first direct call. *)
  let side_callee (n : Supergraph.node) kind =
    List.fold_left
      (fun acc (k, d) ->
        if acc <> None || k <> kind then acc
        else
          match g.Supergraph.nodes.(d).Supergraph.block.Func_cfg.term with
          | Func_cfg.Term_call { target; _ } -> (
            match Program.function_at program target with
            | Some f -> Some f.Program.name
            | None -> None)
          | _ -> None)
      None n.Supergraph.succs
  in
  let dispatches n =
    match (side_callee n Supergraph.Etaken, side_callee n Supergraph.Enottaken) with
    | Some a, Some b -> a <> b
    | _ -> false
  in
  let terminator_addr (n : Supergraph.node) =
    let insns = n.Supergraph.block.Func_cfg.insns in
    fst insns.(Array.length insns - 1)
  in
  (* symbol -> (site, (func, dispatches)), the first node seen per site *)
  let found = Hashtbl.create 8 in
  Array.iter
    (fun (n : Supergraph.node) ->
      match (n.Supergraph.block.Func_cfg.term, v.Analysis.node_out.(n.Supergraph.id)) with
      | Func_cfg.Term_branch { rs1; rs2; _ }, Some st ->
        List.iter
          (fun rs ->
            match st.State.origins.(Reg.to_int rs) with
            | None -> ()
            | Some a -> (
              match Hashtbl.find_opt data_syms a with
              | Some name
                when Loops.innermost_loop loops n.Supergraph.id = None && not (stored a) ->
                let site = terminator_addr n in
                let prev = Option.value (Hashtbl.find_opt found name) ~default:[] in
                if not (List.mem_assoc site prev) then
                  Hashtbl.replace found name ((site, (n.Supergraph.func, dispatches n)) :: prev)
              | _ -> ()))
          [ rs1; rs2 ]
      | _ -> ())
    g.Supergraph.nodes;
  Hashtbl.fold
    (fun symbol sites acc ->
      if List.length sites < 2 && not (List.exists (fun (_, (_, d)) -> d) sites) then acc
      else { symbol; sites = List.sort compare (List.map (fun (a, (f, _)) -> (a, f)) sites) } :: acc)
    found []
  |> List.sort (fun a b -> compare a.symbol b.symbol)
