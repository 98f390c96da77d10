(** Fixed-size domain pool for coarse-grained deterministic fan-out of
    independent work: harness corpus entries, [audit --corpus], the
    lDivMod histogram shards and the [bench/main.exe] tables. A single
    analysis never fans out; it runs on the domain that calls it.

    Results are collected into slots indexed by task id, so the output —
    and every artifact derived from it — is identical for any domain count,
    including 1. The environment variable [PAR_DOMAINS] overrides the
    default worker count ([Domain.recommended_domain_count ()], capped);
    [PAR_DOMAINS=1] forces fully serial execution. Nested calls from inside
    a pool worker run serially on that worker (no oversubscription). *)

(** Hard cap on the worker count. *)
val max_domains : int

(** Domain count used when [?domains] is omitted. *)
val default_domains : unit -> int

(** [map ?domains n f] computes [|f 0; ...; f (n-1)|] across the pool.
    If any task raises, the exception of the lowest-indexed failing task is
    re-raised on the caller after all workers have drained. *)
val map : ?domains:int -> int -> (int -> 'a) -> 'a array

(** [map_list ?domains f xs] is [List.map f xs] across the pool. *)
val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
