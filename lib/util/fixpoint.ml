(* Generic dataflow fixpoint engine shared by the value and cache analyses.

   There is one worklist loop, [solve_plan]: a priority queue keyed by the
   reverse-postorder (RPO) index of each node, computed once from the
   problem's entry nodes and successor function, run one strongly connected
   component at a time. Picking the RPO-least pending node means a node is
   re-transferred only after its (forward-graph) predecessors have
   stabilised in this sweep. The whole-program [solve] is the same loop over
   a plan with a single component. *)

(* The worklist order. [Rpo] is the only one; the type stays because
   report-cache keys name it. *)
type strategy = Rpo

let strategy_name Rpo = "rpo"

(* Cooperative cancellation: [solve]/[solve_plan] poll their token before
   every transfer and bail out with this. Declared outside the functor so
   one handler catches it whichever domain instantiation raised. *)
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

(* Schedule for component-at-a-time solving: the node graph condensed into
   strongly connected components (see Wcet_cfg.Callgraph.condense), with
   components numbered in topological order, and the global RPO index kept
   as the worklist priority so a per-component solve reproduces the
   whole-program pop order inside each component. *)
type plan = {
  plan_comp_of : int array;  (** node -> component id (topological) *)
  plan_comps : int array array;  (** component id -> members, by priority *)
  plan_priority : int array;  (** global RPO index of every node *)
}

(* A recorded summary row: the inbox the node's component received when
   the row was recorded, and the converged (in, out) states. *)
type 'a row = { input : 'a option; states : ('a * 'a) option }

type 'a plan_info = {
  applied : bool array;
  per_comp_transfers : int array;
  ext_input : 'a option array;
}

module type Domain = sig
  type t

  val leq : t -> t -> bool
  val equal : t -> t -> bool
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

  (* Component-scheduled solve, the engine's one worklist loop. Components
     are solved one after another in id order, which is topological. Each
     is solved against the cross-component contributions accumulated in
     [ext_input] ("inbox"): because every cross-component edge u->v has
     RPO(u) < RPO(v), a single heap over the whole graph would also deliver
     all external inputs of a component before transferring any of its
     members, so the per-component solve — run with the *global* RPO
     priority — pops the same sequence and converges to the same states as
     the one-component plan [solve] builds (see DESIGN.md 5g for the fine
     print on widening at interleaved priorities).

     [propagate] maps a node and its out-state to per-edge contributions
     (target, state); the default forwards the out-state to every successor.
     Consumers use it for branch refinement, where an edge may transform the
     state or kill it entirely (infeasible edge). [budget] bounds the number
     of transfers; exceeding it raises [Failure msg]. [force_widen_after]
     widens at *every* node visited more than that many times, as a
     convergence backstop for domains with infinite ascending chains outside
     the declared widening points.

     A component whose members all have [rows] recorded under the inbox
     delivered this run is installed from them instead of solved: the
     engine owns that check, so no caller can apply rows under a different
     input. [on_apply] replays per-member side effects of an installed row
     (the value analysis's frame linkage) before any out-state of the
     component propagates. *)
  let solve_plan ?propagate ?rows ?(on_apply = ignore) ?(force_widen_after = max_int) ?budget
      ?(cancel = fun () -> false) ~plan p =
    let propagate =
      match propagate with
      | Some f -> f
      | None -> fun n out -> List.map (fun m -> (m, out)) (p.succs n)
    in
    let n = p.num_nodes in
    let input : D.t option array = Array.make n None in
    let output : D.t option array = Array.make n None in
    let visits = Array.make n 0 in
    let in_queue = Array.make n false in
    let ext_input : D.t option array = Array.make n None in
    let comp_count = Array.length plan.plan_comps in
    let applied = Array.make comp_count false in
    let per_comp_transfers = Array.make comp_count 0 in
    let transfers = ref 0 in
    let widenings = ref 0 in
    let joins = ref 0 in
    let max_pending = ref 0 in
    (* Merge a cross-component contribution into the inbox. Inbox states
       are never widened: every delivery lands before the target is first
       visited, where [update] would also take the join path (visits = 0). *)
    let deliver (m, st) =
      match ext_input.(m) with
      | None -> ext_input.(m) <- Some st
      | Some old ->
        if not (D.leq st old) then begin
          incr joins;
          ext_input.(m) <- Some (D.join old st)
        end
    in
    List.iter deliver p.entries;
    (* One heap serves every component: it is empty between components. *)
    let heap = Heap.create (min n 1024) in
    let pending_now = ref 0 in
    let enqueue m =
      if not in_queue.(m) then begin
        in_queue.(m) <- true;
        incr pending_now;
        if !pending_now > !max_pending then max_pending := !pending_now;
        Heap.push heap plan.plan_priority.(m) m
      end
    in
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
    let solve_comp cid members =
      Array.iter
        (fun m -> match ext_input.(m) with Some st -> update m st | None -> ())
        members;
      while not (Heap.is_empty heap) do
        if cancel () then raise Cancelled;
        let m = Heap.pop heap in
        in_queue.(m) <- false;
        decr pending_now;
        incr transfers;
        per_comp_transfers.(cid) <- per_comp_transfers.(cid) + 1;
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
            List.iter
              (fun (t, st) ->
                if plan.plan_comp_of.(t) = cid then update t st else deliver (t, st))
              (propagate m out)
          end
      done
    in
    (* The summary rule: the rows of every member, when each was recorded
       under the inbox that member received this run. *)
    let recorded members =
      match rows with
      | None -> None
      | Some lookup ->
        let recorded = Array.map lookup members in
        let same_input m = function
          | None -> false
          | Some row -> (
            match (ext_input.(m), row.input) with
            | None, None -> true
            | Some a, Some b -> D.equal a b
            | None, Some _ | Some _, None -> false)
        in
        if Array.for_all2 same_input members recorded then Some recorded else None
    in
    (* Install recorded rows and deliver their out-states downstream. *)
    let apply_comp cid members recorded =
      applied.(cid) <- true;
      Array.iteri
        (fun i m ->
          (match Option.bind recorded.(i) (fun row -> row.states) with
          | Some (s_in, s_out) ->
            input.(m) <- Some s_in;
            output.(m) <- Some s_out
          | None -> ());
          on_apply m)
        members;
      Array.iter
        (fun m ->
          match output.(m) with
          | None -> ()
          | Some out ->
            List.iter
              (fun (t, st) -> if plan.plan_comp_of.(t) <> cid then deliver (t, st))
              (propagate m out))
        members
    in
    Array.iteri
      (fun cid members ->
        if cancel () then raise Cancelled;
        (* A component no delivery reached is unreachable: skip it. *)
        if Array.exists (fun m -> ext_input.(m) <> None) members then
          match recorded members with
          | Some rows -> apply_comp cid members rows
          | None -> solve_comp cid members)
      plan.plan_comps;
    ( {
        in_state = (fun m -> input.(m));
        out_state = (fun m -> output.(m));
        transfers = !transfers;
        widenings = !widenings;
        joins = !joins;
        max_pending = !max_pending;
      },
      { applied; per_comp_transfers; ext_input } )

  (* The whole-program solve: every node in component 0, popped by its RPO
     index. No edge leaves the component, so nothing is ever delivered
     across components after the entries. *)
  let solve ?propagate ?force_widen_after ?budget ?cancel p =
    let priority =
      rpo_index ~num_nodes:p.num_nodes ~entries:(List.map fst p.entries) ~succs:p.succs
    in
    let members = Array.init p.num_nodes Fun.id in
    Array.sort
      (fun a b ->
        match Int.compare priority.(a) priority.(b) with 0 -> Int.compare a b | c -> c)
      members;
    let plan =
      {
        plan_comp_of = Array.make p.num_nodes 0;
        plan_comps = [| members |];
        plan_priority = priority;
      }
    in
    fst (solve_plan ?propagate ?force_widen_after ?budget ?cancel ~plan p)
end
