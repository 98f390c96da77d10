(* Generic dataflow fixpoint engine shared by the value and cache analyses.

   There is one worklist loop, [solve]: a priority queue keyed by the
   reverse-postorder (RPO) index of each node, computed once from the
   problem's entry nodes and successor function, over the whole graph.
   Picking the RPO-least pending node means a node is re-transferred only
   after its (forward-graph) predecessors have stabilised in this sweep. *)

(* The worklist order. [Rpo] is the only one; the type stays because
   report-cache keys name it. *)
type strategy = Rpo

let strategy_name Rpo = "rpo"

(* Cooperative cancellation: [solve] polls its token before every transfer
   and bails out with this. Declared outside the functor so one handler
   catches it whichever domain instantiation raised. *)
exception Cancelled

(* Reverse-postorder index for every node reachable from [entries] via
   [succs]; unreachable nodes get [max_int] (they sort last if the solver
   ever sees them). Iterative DFS: graphs can have ~10^5 nodes. *)
let rpo_index ~num_nodes ~entries ~succs =
  let index = Array.make num_nodes max_int in
  let visited = Array.make num_nodes false in
  let postorder = ref [] in
  let visit root =
    if not visited.(root) then begin
      visited.(root) <- true;
      (* Stack holds (node, remaining successors). *)
      let stack = ref [ (root, ref (succs root)) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (n, rest) :: tl -> (
          match !rest with
          | [] ->
            postorder := n :: !postorder;
            stack := tl
          | m :: ms ->
            rest := ms;
            if m >= 0 && m < num_nodes && not visited.(m) then begin
              visited.(m) <- true;
              stack := (m, ref (succs m)) :: !stack
            end)
      done
    end
  in
  List.iter visit entries;
  (* !postorder is already reversed postorder (last finished first). *)
  List.iteri (fun i n -> index.(n) <- i) !postorder;
  index

(* Minimal binary min-heap over (priority, node) pairs. *)
module Heap = struct
  type t = { mutable data : (int * int) array; mutable size : int }

  let create capacity = { data = Array.make (max 1 capacity) (0, 0); size = 0 }
  let is_empty h = h.size = 0

  let push h prio node =
    if h.size = Array.length h.data then begin
      let grown = Array.make (2 * h.size) (0, 0) in
      Array.blit h.data 0 grown 0 h.size;
      h.data <- grown
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.data.(!i) <- (prio, node);
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      if fst h.data.(!i) < fst h.data.(parent) then begin
        let tmp = h.data.(parent) in
        h.data.(parent) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := parent
      end
      else continue_ := false
    done

  let pop h =
    let (_, node) = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !smallest
      end
      else continue_ := false
    done;
    node
end

module type Domain = sig
  type t

  val leq : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
end

module Make (D : Domain) = struct
  type problem = {
    num_nodes : int;
    entries : (int * D.t) list;
    succs : int -> int list;
    transfer : int -> D.t -> D.t;
    widening_points : int -> bool;
    widening_delay : int;
  }

  type result = {
    in_state : int -> D.t option;
    out_state : int -> D.t option;
    transfers : int;  (** number of [transfer] applications until the fixpoint *)
    widenings : int;
    joins : int;
    max_pending : int;  (** peak worklist occupancy *)
  }

  (* The one worklist loop. [propagate] maps a node and its out-state to
     per-edge contributions (target, state); the default forwards the
     out-state to every successor. Consumers use it for branch refinement,
     where an edge may transform the state or kill it entirely (infeasible
     edge). [budget] bounds the number of transfers; exceeding it raises
     [Failure msg]. [force_widen_after] widens at *every* node visited more
     than that many times, as a convergence backstop for domains with
     infinite ascending chains outside the declared widening points. *)
  let solve ?propagate ?(force_widen_after = max_int) ?budget ?(cancel = fun () -> false) p =
    let propagate =
      match propagate with
      | Some f -> f
      | None -> fun n out -> List.map (fun m -> (m, out)) (p.succs n)
    in
    let n = p.num_nodes in
    let priority = rpo_index ~num_nodes:n ~entries:(List.map fst p.entries) ~succs:p.succs in
    let input : D.t option array = Array.make n None in
    let output : D.t option array = Array.make n None in
    let visits = Array.make n 0 in
    let in_queue = Array.make n false in
    let transfers = ref 0 in
    let widenings = ref 0 in
    let joins = ref 0 in
    let max_pending = ref 0 in
    let heap = Heap.create (min n 1024) in
    let pending_now = ref 0 in
    let enqueue m =
      if not in_queue.(m) then begin
        in_queue.(m) <- true;
        incr pending_now;
        if !pending_now > !max_pending then max_pending := !pending_now;
        Heap.push heap priority.(m) m
      end
    in
    (* Entry states are joined, never widened: no entry has been visited
       yet. *)
    List.iter
      (fun (m, st) ->
        match input.(m) with
        | None ->
          input.(m) <- Some st;
          enqueue m
        | Some old ->
          if not (D.leq st old) then begin
            incr joins;
            input.(m) <- Some (D.join old st)
          end)
      p.entries;
    let update m st =
      match input.(m) with
      | None ->
        input.(m) <- Some st;
        enqueue m
      | Some old ->
        if not (D.leq st old) then begin
          let merged =
            if
              (p.widening_points m && visits.(m) >= p.widening_delay)
              || visits.(m) >= force_widen_after
            then begin
              incr widenings;
              D.widen old st
            end
            else begin
              incr joins;
              D.join old st
            end
          in
          input.(m) <- Some merged;
          enqueue m
        end
    in
    while not (Heap.is_empty heap) do
      if cancel () then raise Cancelled;
      let m = Heap.pop heap in
      in_queue.(m) <- false;
      decr pending_now;
      incr transfers;
      (match budget with
      | Some b when !transfers > b -> failwith "fixpoint did not converge within budget"
      | Some _ | None -> ());
      visits.(m) <- visits.(m) + 1;
      match input.(m) with
      | None -> ()
      | Some s ->
        let out = p.transfer m s in
        let changed =
          match output.(m) with
          | None -> true
          | Some old -> not (D.leq out old)
        in
        if changed then begin
          output.(m) <- Some out;
          List.iter (fun (t, st) -> update t st) (propagate m out)
        end
    done;
    {
      in_state = (fun m -> input.(m));
      out_state = (fun m -> output.(m));
      transfers = !transfers;
      widenings = !widenings;
      joins = !joins;
      max_pending = !max_pending;
    }
end
