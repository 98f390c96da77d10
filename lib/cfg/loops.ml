type loop = {
  header : int;
  body : int list;
  back_edges : (int * int) list;
  entry_edges : (int * int) list;
  exit_edges : (int * int) list;
  parent : int option;
  depth : int;
}

type info = {
  loops : loop array;
  idom : int array;
  irreducible : int list list;
  rpo : int array;
}

let succs (g : Supergraph.t) n = List.map snd g.Supergraph.nodes.(n).Supergraph.succs
let preds (g : Supergraph.t) n = List.map snd g.Supergraph.nodes.(n).Supergraph.preds

let reverse_postorder g =
  let n = Array.length g.Supergraph.nodes in
  let visited = Array.make n false in
  let order = ref [] in
  (* Iterative DFS with an explicit stack to survive deep graphs. *)
  let rec visit v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter visit (succs g v);
      order := v :: !order
    end
  in
  visit g.Supergraph.entry;
  Array.of_list !order

(* Cooper-Harvey-Kennedy iterative dominators. *)
let dominators g rpo =
  let n = Array.length g.Supergraph.nodes in
  let idom = Array.make n (-1) in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i v -> rpo_index.(v) <- i) rpo;
  let entry = g.Supergraph.entry in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if v <> entry then begin
          let processed = List.filter (fun p -> idom.(p) >= 0 && rpo_index.(p) >= 0) (preds g v) in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
            if idom.(v) <> new_idom then begin
              idom.(v) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  idom

let dominates_raw idom entry a b =
  let rec go v = if v = a then true else if v = entry || idom.(v) < 0 then false else go idom.(v)
  in
  if idom.(b) < 0 then false else go b

(* Tarjan SCC. *)
let sccs g =
  let n = Array.length g.Supergraph.nodes in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs g v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      result := pop [] :: !result
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !result

let analyze g =
  let rpo = reverse_postorder g in
  let idom = dominators g rpo in
  let entry = g.Supergraph.entry in
  let n = Array.length g.Supergraph.nodes in
  let reachable = Array.make n false in
  Array.iter (fun v -> reachable.(v) <- true) rpo;
  (* Back edges u -> h with h dominating u; natural loop bodies by reverse
     reachability from the back-edge sources. *)
  let back_edges_of = Hashtbl.create 16 in
  for u = 0 to n - 1 do
    if reachable.(u) then
      List.iter
        (fun h ->
          if dominates_raw idom entry h u then
            Hashtbl.replace back_edges_of h ((u, h) :: Option.value ~default:[] (Hashtbl.find_opt back_edges_of h)))
        (succs g u)
  done;
  let loops = ref [] in
  Hashtbl.iter
    (fun header back_edges ->
      let in_body = Array.make n false in
      in_body.(header) <- true;
      let rec mark v =
        if not in_body.(v) then begin
          in_body.(v) <- true;
          List.iter mark (preds g v)
        end
      in
      List.iter (fun (u, _) -> mark u) back_edges;
      let body = ref [] in
      for v = n - 1 downto 0 do
        if in_body.(v) then body := v :: !body
      done;
      let entry_edges =
        List.filter_map
          (fun p -> if in_body.(p) && List.exists (fun (u, _) -> u = p) back_edges then None
            else if in_body.(p) then None
            else Some (p, header))
          (preds g header)
      in
      let exit_edges =
        List.concat_map
          (fun v ->
            if in_body.(v) then
              List.filter_map (fun s -> if in_body.(s) then None else Some (v, s)) (succs g v)
            else [])
          !body
      in
      loops :=
        { header; body = !body; back_edges; entry_edges; exit_edges; parent = None; depth = 0 }
        :: !loops)
    back_edges_of;
  (* Nesting: parent = smallest strictly containing loop. *)
  let arr = Array.of_list !loops in
  let size i = List.length arr.(i).body in
  let contains i j =
    (* does loop i contain loop j? *)
    i <> j && List.for_all (fun v -> List.mem v arr.(i).body) arr.(j).body
  in
  let arr =
    Array.mapi
      (fun j l ->
        let candidates =
          List.filter (fun i -> contains i j) (List.init (Array.length arr) (fun i -> i))
        in
        let parent =
          List.fold_left
            (fun best i ->
              match best with
              | None -> Some i
              | Some b -> if size i < size b then Some i else Some b)
            None candidates
        in
        { l with parent })
      arr
  in
  let rec depth_of j = match arr.(j).parent with None -> 1 | Some p -> 1 + depth_of p in
  let arr = Array.mapi (fun j l -> { l with depth = depth_of j }) arr in
  (* Irreducible regions: non-trivial SCCs with more than one entry node. *)
  let irreducible =
    List.filter_map
      (fun scc ->
        match scc with
        | [] | [ _ ] ->
          (* keep self-loop singletons out: they are natural loops *)
          None
        | _ ->
          let entries =
            List.filter
              (fun v -> List.exists (fun p -> not (List.mem p scc)) (preds g v))
              scc
          in
          if List.length entries > 1 then Some scc else None)
      (sccs g)
  in
  { loops = arr; idom; irreducible; rpo }

let dominates info a b =
  let rec go v = if v = a then true else if info.idom.(v) < 0 || info.idom.(v) = v then false else go info.idom.(v)
  in
  if b < 0 || b >= Array.length info.idom then false else if a = b then true else go b

let innermost_loop info node =
  let best = ref None in
  Array.iteri
    (fun i l ->
      if List.mem node l.body then
        match !best with
        | None -> best := Some i
        | Some j -> if List.length l.body < List.length info.loops.(j).body then best := Some i)
    info.loops;
  !best
