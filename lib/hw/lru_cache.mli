(** Concrete LRU cache state, used by the simulator.

    The abstract must/may analyses in [Wcet_cache] model exactly this
    replacement behaviour; property tests check the abstraction against this
    implementation on random traces. *)

type t

val create : Cache_config.t -> t
val config : t -> Cache_config.t

(** [access t line] records an access to [line]; returns [true] on hit.
    On a miss the line is filled and the LRU way of its set evicted. *)
val access : t -> int -> bool

(** [probe t line] tests for presence without touching recency. *)
val probe : t -> int -> bool

val copy : t -> t

(** [contents t set] is the set's lines from most- to least-recently used. *)
val contents : t -> int -> int list
