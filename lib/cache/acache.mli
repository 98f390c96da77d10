(** Abstract LRU cache states (Ferdinand-style must/may analysis).

    The must cache maps lines to an upper bound on their LRU age: a line
    present in the must cache is guaranteed in the concrete cache, so an
    access to it is an always-hit. The may cache maps lines to a lower
    bound on age: a line absent from the may cache is guaranteed absent
    (always-miss). Property tests check both guarantees against the
    concrete {!Pred32_hw.Lru_cache} on random traces. *)

module Line_map : Map.S with type key = int

(** [must]: line -> maximal possible age (present in every concrete state
    with at most this age). [may]: line -> minimal possible age; absent
    lines are provably uncached, unless [may_universal] is set (after an
    unknown access nothing can be proven absent). Read-only, so tests can
    check the maps against a reference transfer. *)
type t = private {
  cfg : Pred32_hw.Cache_config.t;
  must : int Line_map.t;
  may : int Line_map.t;
  may_universal : bool;
}

val empty : Pred32_hw.Cache_config.t -> t

(** [access t line] returns the state after an access to [line]. When the
    access cannot change the state (the line has age 0 in [must], hence
    also in [may], and no other line of its set has may-age 0) it returns
    [t] itself. *)
val access : t -> int -> t

(** [access_unknown_in_set t] models an access to an unknown line: every set
    may age, and may-contents become unknown (classifications after it can
    no longer prove always-miss, and all must-ages grow). *)
val access_unknown : t -> t

val must_contains : t -> int -> bool

(** [may_excludes t line] — the line is provably not cached. *)
val may_excludes : t -> int -> bool

val join : t -> t -> t
val leq : t -> t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
