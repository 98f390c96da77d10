(** Call-graph condensation: Tarjan SCCs over the supergraph, at two
    granularities.

    {!condense} is the generic layer: it condenses any integer node graph
    into a {!Wcet_util.Fixpoint.plan} — components in topological order,
    with the global RPO index as worklist priority — which
    [Fixpoint.Make.solve_plan] solves bottom-up, one component at a time.

    {!of_supergraph} is the function-level view used for reporting, metrics
    and slice bookkeeping: which functions form recursive groups (one SCC),
    in callee-first order, and which program functions the supergraph never
    expanded. *)

(** [condense ~num_nodes ~entries ~succs] condenses the graph into SCCs.
    Every node belongs to exactly one component (nodes unreachable from
    [entries] included — they are never activated by the scheduler).
    Component ids are topological: [plan_comp_of.(u) < plan_comp_of.(v)]
    for every edge [u -> v] crossing components. Members of a component are
    sorted by priority. *)
val condense :
  num_nodes:int -> entries:int list -> succs:(int -> int list) -> Wcet_util.Fixpoint.plan

(** Function-level call graph of a supergraph. *)
type t = {
  sccs : string list array;
      (** one entry per SCC, callees before callers (bottom-up); members
          sorted by name *)
  recursive : bool array;  (** SCC has >1 member or a self call *)
  unreachable : string list;
      (** program functions the supergraph never expanded *)
}

(** Built from the resolved call edges ([Ecall]) of the supergraph, so
    indirect calls count once resolved. *)
val of_supergraph : Supergraph.t -> t

val scc_count : t -> int

(** SCC index of a function, [None] if it was never expanded. *)
val scc_of : t -> string -> int option
