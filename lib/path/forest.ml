module Supergraph = Wcet_cfg.Supergraph
module Loops = Wcet_cfg.Loops
module Analysis = Wcet_value.Analysis
module Aval = Wcet_value.Aval

type counts = (int * int) list

type edge = {
  e_src : int;
  e_dst : int;
  e_orig_src : int;
  e_kind : Supergraph.edge_kind;
  e_w : int;
  e_tail : counts;
  e_via : int option;
}

type writes = All | Ranges of (int * int) list

type proxy = {
  p_loop : int;
  p_bound : int;
  p_cycle : counts;
  p_cycle_cost : int;
  p_terminals : (int * counts) list;
  p_writes : writes;
}

type t = {
  value : Analysis.result;
  times : int array;
  weight : int array;
  out_edges : edge list array;
  alive : bool array;
  proxy : proxy option array;
  entry : int;
}

exception Failed of Path_analysis.error

let merge_counts (lists : (counts * int) list) : counts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (cs, mult) ->
      if mult <> 0 then
        List.iter
          (fun (v, k) ->
            let prev = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
            Hashtbl.replace tbl v (prev + (k * mult)))
          cs)
    lists;
  Hashtbl.fold (fun v k acc -> if k = 0 then acc else (v, k) :: acc) tbl []
  |> List.sort compare

let counts_to_array ~n cs =
  let a = Array.make n 0 in
  List.iter (fun (v, k) -> if v >= 0 && v < n then a.(v) <- a.(v) + k) cs;
  a

(* Longest path over alive nodes within [allowed], skipping [skip] edges,
   starting at [start]. A grey hit during the DFS means a cycle survived
   collapsing — some loop has no bound to anchor on. *)
let longest t ~allowed ~skip start =
  let n = Array.length t.alive in
  let dist = Array.make n min_int in
  let best_in = Array.make n None in
  let state = Array.make n 0 in
  let order = ref [] in
  let rec visit v =
    state.(v) <- 1;
    List.iter
      (fun e ->
        if (not (skip e)) && t.alive.(e.e_dst) && allowed e.e_dst then
          match state.(e.e_dst) with
          | 0 -> visit e.e_dst
          | 1 ->
            raise
              (Failed
                 (Path_analysis.unbounded
                    (Printf.sprintf
                       "cycle through node %d has neither a derived loop bound nor an annotation"
                       e.e_dst)))
          | _ -> ())
      t.out_edges.(v);
    state.(v) <- 2;
    order := v :: !order
  in
  visit start;
  dist.(start) <- t.weight.(start);
  List.iter
    (fun v ->
      if dist.(v) > min_int then
        List.iter
          (fun e ->
            if (not (skip e)) && t.alive.(e.e_dst) && allowed e.e_dst then begin
              let cand = dist.(v) + e.e_w + t.weight.(e.e_dst) in
              if cand > dist.(e.e_dst) then begin
                dist.(e.e_dst) <- cand;
                best_in.(e.e_dst) <- Some e
              end
            end)
          t.out_edges.(v))
    !order;
  (dist, best_in)

(* Expand the DP witness path ending at [last] into execution counts:
   plain nodes count once, proxies contribute bound * cycle, collapsed
   tails ride on the edges. *)
let path_counts t ~best_in last =
  let parts = ref [] in
  let add_node v =
    match t.proxy.(v) with
    | Some p -> parts := (p.p_cycle, p.p_bound) :: !parts
    | None -> parts := ([ (v, 1) ], 1) :: !parts
  in
  let rec go v =
    add_node v;
    match best_in.(v) with
    | None -> ()
    | Some e ->
      parts := (e.e_tail, 1) :: !parts;
      go e.e_src
  in
  go last;
  merge_counts !parts

(* Word addresses a loop body may store to. A store whose address interval
   is unresolved havocs everything. Ranges are widened by the access width
   so any tracked word overlapping a store is considered written. *)
let body_writes (value : Analysis.result) body =
  let exception Unknown in
  try
    let rs =
      List.concat_map
        (fun v ->
          List.filter_map
            (fun (a : Analysis.access) ->
              if not a.Analysis.is_store then None
              else
                match a.Analysis.addr with
                | Aval.Bot -> None
                | Aval.Top -> raise Unknown
                | Aval.I (lo, hi) -> Some (lo - 3, hi + 3))
            value.Analysis.accesses.(v))
        body
    in
    Ranges rs
  with Unknown -> All

let collapse t (loops : Loops.info) (spec : Path_analysis.spec) li =
  let loop = loops.Loops.loops.(li) in
  let h = loop.Loops.header in
  if t.alive.(h) then begin
    let is_back e = e.e_dst = h && List.mem (e.e_orig_src, h) loop.Loops.back_edges in
    let alive_body = List.filter (fun v -> t.alive.(v)) loop.Loops.body in
    let has_back = List.exists (fun v -> List.exists is_back t.out_edges.(v)) alive_body in
    if has_back then begin
      let bound =
        match List.assoc_opt li spec.Path_analysis.loop_bounds with
        | Some b -> max 0 b
        | None ->
          raise
            (Failed
               (Path_analysis.unbounded
                  (Printf.sprintf
                     "loop headed at node %d has neither a derived bound nor an annotation" h)))
      in
      let in_body = Array.make (Array.length t.alive) false in
      List.iter (fun v -> in_body.(v) <- true) loop.Loops.body;
      let dist, best_in = longest t ~allowed:(fun v -> in_body.(v)) ~skip:is_back h in
      let best = ref None in
      List.iter
        (fun v ->
          if dist.(v) > min_int then
            List.iter
              (fun e ->
                if is_back e then begin
                  let c = dist.(v) + e.e_w in
                  match !best with
                  | Some (c0, _, _) when c0 >= c -> ()
                  | _ -> best := Some (c, v, e)
                end)
              t.out_edges.(v))
        alive_body;
      let p_cycle_cost, p_cycle =
        match !best with
        | None -> (0, [])
        | Some (c, v, e) ->
          (c, merge_counts [ (path_counts t ~best_in v, 1); (e.e_tail, 1) ])
      in
      let exits = ref [] and terminals = ref [] in
      List.iter
        (fun v ->
          if dist.(v) > min_int then begin
            let pc = lazy (path_counts t ~best_in v) in
            (match t.proxy.(v) with
            | Some p when v <> h ->
              List.iter
                (fun (tc, tcs) ->
                  terminals :=
                    (dist.(v) + tc, merge_counts [ (Lazy.force pc, 1); (tcs, 1) ])
                    :: !terminals)
                p.p_terminals
            | _ -> ());
            if t.out_edges.(v) = [] then terminals := (dist.(v), Lazy.force pc) :: !terminals;
            List.iter
              (fun e ->
                if (not (is_back e)) && not in_body.(e.e_dst) then
                  exits :=
                    {
                      e with
                      e_src = h;
                      e_w = dist.(v) + e.e_w;
                      e_tail = merge_counts [ (Lazy.force pc, 1); (e.e_tail, 1) ];
                      e_via = Some li;
                    }
                    :: !exits)
              t.out_edges.(v)
          end)
        alive_body;
      t.proxy.(h) <-
        Some
          {
            p_loop = li;
            p_bound = bound;
            p_cycle;
            p_cycle_cost;
            p_terminals = !terminals;
            p_writes = body_writes t.value loop.Loops.body;
          };
      t.weight.(h) <- bound * p_cycle_cost;
      t.out_edges.(h) <- !exits;
      List.iter (fun v -> if v <> h then t.alive.(v) <- false) loop.Loops.body
    end
  end

let build (spec : Path_analysis.spec) (loops : Loops.info) =
  let value = spec.Path_analysis.value in
  let graph = value.Analysis.graph in
  let n = Array.length graph.Supergraph.nodes in
  if loops.Loops.irreducible <> [] then
    raise
      (Failed
         (Path_analysis.intractable
            "irreducible control flow: structural backends have no loop header to anchor on \
             (IPET can still bound it via flow facts)"));
  let t =
    {
      value;
      times = spec.Path_analysis.times;
      weight =
        Array.init n (fun i ->
            if i < Array.length spec.Path_analysis.times then spec.Path_analysis.times.(i)
            else 0);
      out_edges =
        Array.init n (fun u ->
            if Analysis.reachable value u then
              List.map
                (fun (k, v) ->
                  { e_src = u; e_dst = v; e_orig_src = u; e_kind = k; e_w = 0; e_tail = []; e_via = None })
                (Analysis.feasible_successors value u)
            else []);
      alive = Array.init n (Analysis.reachable value);
      proxy = Array.make n None;
      entry = graph.Supergraph.entry;
    }
  in
  let nloops = Array.length loops.Loops.loops in
  let order = List.init nloops Fun.id in
  let order =
    List.sort
      (fun a b ->
        compare loops.Loops.loops.(b).Loops.depth loops.Loops.loops.(a).Loops.depth)
      order
  in
  List.iter (collapse t loops spec) order;
  t

let solve_dag t =
  if not t.alive.(t.entry) then
    raise (Failed (Path_analysis.internal "entry node unreachable in the collapsed forest"));
  let dist, best_in = longest t ~allowed:(fun _ -> true) ~skip:(fun _ -> false) t.entry in
  let best = ref None in
  let consider c mk =
    match !best with Some (c0, _) when c0 >= c -> () | _ -> best := Some (c, mk)
  in
  Array.iteri
    (fun v d ->
      if t.alive.(v) && d > min_int then begin
        (match t.proxy.(v) with
        | Some p ->
          List.iter
            (fun (tc, tcs) ->
              consider (d + tc) (fun () ->
                  merge_counts [ (path_counts t ~best_in v, 1); (tcs, 1) ]))
            p.p_terminals
        | None -> ());
        if t.out_edges.(v) = [] then consider d (fun () -> path_counts t ~best_in v)
      end)
    dist;
  match !best with
  | None ->
    raise (Failed (Path_analysis.unbounded "no halting path is reachable from the entry"))
  | Some (c, mk) -> (c, mk ())

let solve (spec : Path_analysis.spec) loops =
  let wcet, counts = solve_dag (build spec loops) in
  let n = Array.length spec.Path_analysis.value.Analysis.graph.Supergraph.nodes in
  { Path_analysis.wcet; node_counts = counts_to_array ~n counts }
