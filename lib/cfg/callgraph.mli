(** Call-graph condensation: Tarjan SCCs over the supergraph, at two
    granularities.

    {!condense} is the generic layer: it condenses any integer node graph
    into a {!Wcet_util.Fixpoint.plan} — components in topological order,
    with the global RPO index as worklist priority — which
    [Fixpoint.Make.solve_plan] solves bottom-up, one component at a time.

    {!function_scc_count} is the function-level view, read only by the
    [scc_count] metric. *)

(** [condense ~num_nodes ~entries ~succs] condenses the graph into SCCs.
    Every node belongs to exactly one component (nodes unreachable from
    [entries] included — they are never activated by the scheduler).
    Component ids are topological: [plan_comp_of.(u) < plan_comp_of.(v)]
    for every edge [u -> v] crossing components. Members of a component are
    sorted by priority. *)
val condense :
  num_nodes:int -> entries:int list -> succs:(int -> int list) -> Wcet_util.Fixpoint.plan

(** Number of strongly connected components of the function-level call
    graph: the program functions the supergraph expanded, linked by its
    resolved call edges ([Ecall]), so indirect calls count once resolved.
    A recursive group is one component; functions never expanded are not
    counted. *)
val function_scc_count : Supergraph.t -> int
