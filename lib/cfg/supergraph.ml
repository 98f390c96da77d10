module Program = Pred32_asm.Program

type edge_kind = Efall | Etaken | Enottaken | Ecall | Ereturn | Eindirect

type node = {
  id : int;
  ctx : int;
  func : string;
  block : Func_cfg.block;
  mutable succs : (edge_kind * int) list;
  mutable preds : (edge_kind * int) list;
}

type context = { cid : int; cfunc : string; parent : (int * int) option }

type t = {
  nodes : node array;
  contexts : context array;
  entry : int;
  program : Pred32_asm.Program.t;
  unresolved_calls : (int * int) list;  (* (node id, site address) *)
  unresolved_jumps : int list;  (* site addresses (degrade mode only) *)
}

exception Build_error of string

let build_error fmt = Format.kasprintf (fun s -> raise (Build_error s)) fmt

let max_nodes = 200_000

(* The startup stub is code outside the function table; give it a synthetic
   entry so the whole execution (stub -> entry function -> halt) is one
   graph. *)
let start_func (program : Program.t) =
  let limit =
    List.fold_left
      (fun acc (f : Program.func_info) -> min acc f.Program.entry)
      program.Program.text_limit program.Program.functions
  in
  { Program.name = "__start"; entry = program.Program.entry; limit }

let build ?(allow_unresolved = false) ?(degrade = false) ?resolver (program : Program.t) =
  let allow_unresolved = allow_unresolved || degrade in
  let resolver = match resolver with Some r -> r | None -> Resolver.auto program in
  let all_funcs = start_func program :: program.Program.functions in
  let func_named name = List.find_opt (fun (f : Program.func_info) -> f.Program.name = name) all_funcs in
  let func_at_entry addr =
    List.find_opt (fun (f : Program.func_info) -> f.Program.entry = addr) all_funcs
  in
  let func_containing addr =
    List.find_opt
      (fun (f : Program.func_info) -> addr >= f.Program.entry && addr < f.Program.limit)
      all_funcs
  in
  (* Round 1: plain per-function CFGs, to discover indirect jumps and
     resolve their targets (which become extra block leaders). *)
  let round1 : (string, Func_cfg.block list) Hashtbl.t = Hashtbl.create 16 in
  let cfg_round1 (f : Program.func_info) =
    match Hashtbl.find_opt round1 f.Program.name with
    | Some blocks -> blocks
    | None ->
      let blocks =
        try Func_cfg.build program f
        with Func_cfg.Decode_error msg -> build_error "decode: %s" msg
      in
      Hashtbl.add round1 f.Program.name blocks;
      blocks
  in
  let extra_leaders : (string, int list ref) Hashtbl.t = Hashtbl.create 4 in
  let jump_target_table : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let unresolved_jumps : int list ref = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun (b : Func_cfg.block) ->
          match b.Func_cfg.term with
          | Func_cfg.Term_jump_indirect { site; _ } -> (
            match resolver.Resolver.jump_targets ~site ~block:b with
            | None ->
              (* Degrade mode: the jump becomes a dead end (an analysis hole
                 reported by the caller); otherwise a hard build error. *)
              if degrade then begin
                unresolved_jumps := site :: !unresolved_jumps;
                Hashtbl.replace jump_target_table site []
              end
              else
                build_error
                  "indirect jump at 0x%x cannot be resolved; add a jump-targets annotation" site
            | Some targets ->
              Hashtbl.replace jump_target_table site targets;
              List.iter
                (fun target ->
                  match func_containing target with
                  | None -> build_error "indirect jump target 0x%x is outside any function" target
                  | Some tf ->
                    let cell =
                      match Hashtbl.find_opt extra_leaders tf.Program.name with
                      | Some c -> c
                      | None ->
                        let c = ref [] in
                        Hashtbl.add extra_leaders tf.Program.name c;
                        c
                    in
                    cell := target :: !cell)
                targets)
          | _ -> ())
        (cfg_round1 f))
    all_funcs;
  (* Round 2: final CFGs with the extra leaders. *)
  let cfgs : (string, Func_cfg.block list) Hashtbl.t = Hashtbl.create 16 in
  let cfg_of (f : Program.func_info) =
    match Hashtbl.find_opt cfgs f.Program.name with
    | Some blocks -> blocks
    | None ->
      let extra =
        match Hashtbl.find_opt extra_leaders f.Program.name with Some c -> !c | None -> []
      in
      let blocks =
        try Func_cfg.build ~extra_leaders:extra program f
        with Func_cfg.Decode_error msg -> build_error "decode: %s" msg
      in
      Hashtbl.add cfgs f.Program.name blocks;
      blocks
  in
  (* Context expansion. *)
  let nodes : node list ref = ref [] in
  let node_count = ref 0 in
  let contexts : context list ref = ref [] in
  let ctx_count = ref 0 in
  let node_table : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* (ctx, block entry) -> node id *)
  let node_by_id : (int, node) Hashtbl.t = Hashtbl.create 256 in
  let new_context func_name parent =
    let cid = !ctx_count in
    incr ctx_count;
    let ctx = { cid; cfunc = func_name; parent } in
    contexts := ctx :: !contexts;
    let f =
      match func_named func_name with
      | Some f -> f
      | None -> build_error "no function named %s" func_name
    in
    List.iter
      (fun block ->
        if !node_count >= max_nodes then
          build_error "context expansion exceeds %d nodes (deep recursion?)" max_nodes;
        let id = !node_count in
        incr node_count;
        let n = { id; ctx = cid; func = func_name; block; succs = []; preds = [] } in
        nodes := n :: !nodes;
        Hashtbl.replace node_table (cid, block.Func_cfg.entry) id;
        Hashtbl.replace node_by_id id n)
      (cfg_of f);
    ctx
  in
  let node_in ctx addr =
    match Hashtbl.find_opt node_table (ctx, addr) with
    | Some id -> Hashtbl.find node_by_id id
    | None -> build_error "no block at 0x%x in context %d" addr ctx
  in
  let add_edge kind (src : node) (dst : node) =
    src.succs <- src.succs @ [ (kind, dst.id) ];
    dst.preds <- dst.preds @ [ (kind, src.id) ]
  in
  let ctx_by_id cid = List.find (fun c -> c.cid = cid) !contexts in
  (* How many activations of [fname] are on the context chain of [cid]? *)
  let activations cid fname =
    let rec go cid acc =
      let c = ctx_by_id cid in
      let acc = if c.cfunc = fname then acc + 1 else acc in
      match c.parent with
      | Some (p, _) -> go p acc
      | None -> acc
    in
    go cid 0
  in
  let pending_indirect : (node * int list) list ref = ref [] in
  let unresolved : (int * int) list ref = ref [] in
  let worklist = Queue.create () in
  let root = new_context "__start" None in
  Queue.add root worklist;
  while not (Queue.is_empty worklist) do
    let ctx = Queue.take worklist in
    let f = match func_named ctx.cfunc with Some f -> f | None -> assert false in
    let blocks = cfg_of f in
    let do_call (n : node) ~target ~return_to =
      match func_at_entry target with
      | None -> build_error "call at node %d targets 0x%x, not a function entry" n.id target
      | Some callee ->
        let allowed =
          1 + Option.value ~default:0 (resolver.Resolver.recursion_depth callee.Program.name)
        in
        if activations ctx.cid callee.Program.name >= allowed then begin
          if Option.is_none (resolver.Resolver.recursion_depth callee.Program.name) then
            build_error
              "recursive call to %s requires a recursion-depth annotation (rule 16.2)"
              callee.Program.name;
          (* Depth exhausted: the annotation promises this call cannot
             happen; link straight to the return site. *)
          add_edge Efall n (node_in ctx.cid return_to)
        end
        else begin
          let child = new_context callee.Program.name (Some (ctx.cid, n.id)) in
          Queue.add child worklist;
          add_edge Ecall n (node_in child.cid callee.Program.entry);
          List.iter
            (fun (b : Func_cfg.block) ->
              match b.Func_cfg.term with
              | Func_cfg.Term_return ->
                add_edge Ereturn (node_in child.cid b.Func_cfg.entry) (node_in ctx.cid return_to)
              | _ -> ())
            (cfg_of callee)
        end
    in
    List.iter
      (fun (b : Func_cfg.block) ->
        let n = node_in ctx.cid b.Func_cfg.entry in
        match b.Func_cfg.term with
        | Func_cfg.Term_fall a | Func_cfg.Term_jump a -> add_edge Efall n (node_in ctx.cid a)
        | Func_cfg.Term_branch { taken; fall; _ } ->
          add_edge Etaken n (node_in ctx.cid taken);
          add_edge Enottaken n (node_in ctx.cid fall)
        | Func_cfg.Term_halt -> ()
        | Func_cfg.Term_return -> () (* wired by the caller *)
        | Func_cfg.Term_call { target; return_to } -> do_call n ~target ~return_to
        | Func_cfg.Term_call_indirect { site; return_to; _ } -> (
          let unresolved_call () =
            if allow_unresolved then begin
              unresolved := (n.id, site) :: !unresolved;
              (* Degrade mode: link past the hole so the rest of the caller
                 is still analyzed; the callee's cost is explicitly excluded
                 from the (partial) bound. *)
              if degrade then add_edge Efall n (node_in ctx.cid return_to)
            end
            else
              build_error
                "indirect call at 0x%x cannot be resolved; add a call-targets annotation" site
          in
          match resolver.Resolver.call_targets ~site ~block:b with
          | None -> unresolved_call ()
          | Some [] ->
            if degrade then unresolved_call ()
            else build_error "indirect call at 0x%x has an empty target set" site
          | Some targets -> List.iter (fun target -> do_call n ~target ~return_to) targets)
        | Func_cfg.Term_jump_indirect { site; _ } ->
          let targets =
            match Hashtbl.find_opt jump_target_table site with
            | Some targets -> targets
            | None -> assert false
          in
          pending_indirect := (n, targets) :: !pending_indirect)
      blocks
  done;
  let nodes_arr = Array.of_list (List.rev !nodes) in
  Array.iteri (fun i n -> assert (n.id = i)) nodes_arr;
  (* Indirect jumps may land in any context of the target block. *)
  List.iter
    (fun (src, targets) ->
      List.iter
        (fun target ->
          let found = ref false in
          Array.iter
            (fun (dst : node) ->
              if dst.block.Func_cfg.entry = target then begin
                found := true;
                add_edge Eindirect src dst
              end)
            nodes_arr;
          if not !found then
            build_error "indirect jump target 0x%x is not a block entry" target)
        targets)
    !pending_indirect;
  let contexts_arr = Array.of_list (List.rev !contexts) in
  let entry = Hashtbl.find node_table (root.cid, (start_func program).Program.entry) in
  {
    nodes = nodes_arr;
    contexts = contexts_arr;
    entry;
    program;
    unresolved_calls = !unresolved;
    unresolved_jumps = List.rev !unresolved_jumps;
  }

let exits g =
  Array.to_list g.nodes |> List.filter (fun n -> n.succs = []) |> List.map (fun n -> n.id)

let call_string g (n : node) =
  let rec go cid acc =
    let c = g.contexts.(cid) in
    let acc = c.cfunc :: acc in
    match c.parent with
    | Some (p, _) -> go p acc
    | None -> acc
  in
  go n.ctx []

let pp_node g ppf (n : node) =
  Format.fprintf ppf "n%d[%s @ 0x%x ctx=%s]" n.id n.func n.block.Func_cfg.entry
    (String.concat ">" (call_string g n))

let pp_stats ppf g =
  Format.fprintf ppf "%d nodes, %d contexts, entry n%d" (Array.length g.nodes)
    (Array.length g.contexts) g.entry
