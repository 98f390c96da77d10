(** Collapsed loop forest shared by the constraint-solving and
    model-checking path backends.

    Each natural loop is collapsed, innermost first, into its header node
    acting as a proxy: the proxy's weight is [bound * worst-cycle-cost]
    (interval arithmetic over the loop forest — the constraint-propagation
    core of the csolve backend), and every edge leaving the body is re-hung
    on the proxy with the worst partial-pass (tail) cost folded into the
    edge weight. What remains is a DAG whose longest path is the structural
    WCET; counts are carried alongside so sum(count*time) = bound holds by
    construction. *)

type counts = (int * int) list  (** (node id, execution count), sparse *)

type edge = {
  e_src : int;  (** alive source (original node or loop proxy) *)
  e_dst : int;
  e_orig_src : int;  (** original source node, for back-edge matching *)
  e_kind : Wcet_cfg.Supergraph.edge_kind;
  e_w : int;  (** cost of the collapsed tail this edge carries (0 if plain) *)
  e_tail : counts;  (** fully-expanded counts of that tail *)
  e_via : int option;  (** loop index this edge exits, if any *)
}

(** Addresses a loop body may store to — persistent memory facts outside
    these ranges survive a trip through the loop. *)
type writes = All | Ranges of (int * int) list

type proxy = {
  p_loop : int;  (** loop index *)
  p_bound : int;
  p_cycle : counts;  (** one worst cycle, fully expanded *)
  p_cycle_cost : int;
  p_terminals : (int * counts) list;  (** halting continuations inside the body *)
  p_writes : writes;
}

type t = {
  value : Wcet_value.Analysis.result;
  times : int array;
  weight : int array;  (** alive-node weight; proxies carry bound * cycle cost *)
  out_edges : edge list array;
  alive : bool array;
  proxy : proxy option array;
  entry : int;
}

exception Failed of Path_analysis.error

(** [build spec loops] collapses every bounded reachable loop. Raises
    {!Failed} on irreducible regions (E0305) or a reachable cycle without
    a bound (E0301). *)
val build : Path_analysis.spec -> Wcet_cfg.Loops.info -> t

(** Longest path through the collapsed DAG from the entry, including
    halting continuations stored in proxies. Returns the bound and the
    fully-expanded execution counts of the witness path. *)
val solve_dag : t -> int * counts

(** [solve spec loops] is {!build} then {!solve_dag}, with the witness
    counts spread over every supergraph node: the structural WCET of a
    fact-free spec. Raises {!Failed} as they do. *)
val solve : Path_analysis.spec -> Wcet_cfg.Loops.info -> Path_analysis.solution

val counts_to_array : n:int -> counts -> int array

(** [merge_counts [(cs, mult); ...]] sums scaled sparse count lists. *)
val merge_counts : (counts * int) list -> counts
