(** Call-graph condensation: Tarjan SCCs over the function-level call
    graph, read only by the [scc_count] metric. *)

(** Number of strongly connected components of the function-level call
    graph: the program functions the supergraph expanded, linked by its
    resolved call edges ([Ecall]), so indirect calls count once resolved.
    A recursive group is one component; functions never expanded are not
    counted. *)
val function_scc_count : Supergraph.t -> int
