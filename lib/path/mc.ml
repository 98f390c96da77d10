module Supergraph = Wcet_cfg.Supergraph
module Analysis = Wcet_value.Analysis
module Aval = Wcet_value.Aval
module State = Wcet_value.State

let name = "mc"
let path_sensitive = true
let fact_blind = true
let exact_witness = true

(* Suffix explorations before the backend declares itself intractable;
   memoization makes ordinary mode-structured programs cost O(nodes *
   distinct states). *)
let budget = 200_000

exception Intractable

let solve (spec : Path_analysis.spec) (loops : Wcet_cfg.Loops.info) =
  try
    let t = Forest.build spec loops in
    let value = spec.Path_analysis.value in
    let graph = value.Analysis.graph in
    let n = Array.length graph.Supergraph.nodes in
    let ctx = Analysis.path_ctx value in
    let visits = ref 0 in
    let memo : (int * string, (int * Forest.counts) option) Hashtbl.t = Hashtbl.create 256 in
    let skey (st : State.t) =
      Digest.string
        (Marshal.to_string
           (st.State.regs, State.Addr_map.bindings st.State.mem, st.State.origins)
           [])
    in
    (* Crossing a collapsed loop: land on the successor's invariant (the
       merge at the loop head), re-applying only the carried memory facts
       at words the body provably never stores to. A bottom meet means the
       invariant already contradicts a carried fact: the path cannot take
       this exit. *)
    let exit_state (st : State.t) (p : Forest.proxy) y =
      match value.Analysis.node_in.(y) with
      | None -> None
      | Some inv -> (
        match p.Forest.p_writes with
        | Forest.All -> Some inv
        | Forest.Ranges rs ->
          let clobbered a = List.exists (fun (lo, hi) -> a >= lo && a <= hi) rs in
          let exception Contradiction in
          (try
             let mem =
               State.Addr_map.fold
                 (fun a v acc ->
                   if clobbered a then acc
                   else begin
                     let cur =
                       match State.Addr_map.find_opt a acc with
                       | Some x -> x
                       | None -> Aval.top
                     in
                     let m = Aval.meet cur v in
                     if Aval.is_bot m then raise Contradiction
                     else State.Addr_map.add a m acc
                   end)
                 st.State.mem inv.State.mem
             in
             Some { inv with State.mem }
           with Contradiction -> None))
    in
    (* dfs v st = best suffix from v entered with state st, including v's
       own weight; None when the carried state proves every continuation
       infeasible (the prefix cannot actually reach v like this). *)
    let rec dfs v (st : State.t) : (int * Forest.counts) option =
      incr visits;
      if !visits > budget then raise Intractable;
      let key = (v, skey st) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let self_counts =
          match t.Forest.proxy.(v) with
          | Some p -> (p.Forest.p_cycle, p.Forest.p_bound)
          | None -> ([ (v, 1) ], 1)
        in
        let best = ref None in
        let consider c mk =
          match !best with Some (c0, _) when c0 >= c -> () | _ -> best := Some (c, mk)
        in
        (match t.Forest.proxy.(v) with
        | Some p ->
          List.iter (fun (tc, tcs) -> consider tc (fun () -> tcs)) p.Forest.p_terminals;
          if t.Forest.out_edges.(v) = [] && p.Forest.p_terminals = [] then
            consider 0 (fun () -> []);
          List.iter
            (fun (e : Forest.edge) ->
              match exit_state st p e.Forest.e_dst with
              | None -> ()
              | Some st' -> (
                match dfs e.Forest.e_dst st' with
                | None -> ()
                | Some (c, cs) ->
                  consider (e.Forest.e_w + c) (fun () ->
                      Forest.merge_counts [ (e.Forest.e_tail, 1); (cs, 1) ])))
            t.Forest.out_edges.(v)
        | None ->
          if t.Forest.out_edges.(v) = [] then consider 0 (fun () -> [])
          else begin
            let node = graph.Supergraph.nodes.(v) in
            let st_out = Analysis.path_step ctx st node in
            List.iter
              (fun (e : Forest.edge) ->
                match Analysis.path_follow ctx node e.Forest.e_kind st_out with
                | None -> ()
                | Some st' -> (
                  match dfs e.Forest.e_dst st' with
                  | None -> ()
                  | Some (c, cs) -> consider (e.Forest.e_w + c) (fun () -> cs)))
              t.Forest.out_edges.(v)
          end);
        let r =
          match !best with
          | None -> None
          | Some (c, mk) ->
            Some
              ( t.Forest.weight.(v) + c,
                Forest.merge_counts [ (fst self_counts, snd self_counts); (mk (), 1) ] )
        in
        Hashtbl.replace memo key r;
        r
    in
    match value.Analysis.node_in.(t.Forest.entry) with
    | None -> Error (Path_analysis.internal "entry node unreachable")
    | Some st0 -> (
      match dfs t.Forest.entry st0 with
      | None ->
        Error (Path_analysis.internal "model checking pruned every path from the entry")
      | Some (wcet, counts) ->
        let sol = { Path_analysis.wcet; node_counts = Forest.counts_to_array ~n counts } in
        Path_analysis.checked ~who:name sol spec.Path_analysis.times)
  with
  | Forest.Failed e -> Error e
  | Intractable ->
    Error
      (Path_analysis.intractable
         (Printf.sprintf "path exploration exceeded the %d-suffix budget" budget))
