(** Abstract LRU cache states (Ferdinand-style must/may analysis).

    The must cache maps lines to an upper bound on their LRU age: a line
    present in the must cache is guaranteed in the concrete cache, so an
    access to it is an always-hit. The may cache maps lines to a lower
    bound on age: a line absent from the may cache is guaranteed absent
    (always-miss). Property tests check both guarantees against the
    concrete {!Pred32_hw.Lru_cache} on random traces. *)

(** One abstract set per cache set, indexed by
    {!Pred32_hw.Cache_config.set_of_line}. Each holds its must lines and
    its may lines as short sequences of (line, age) pairs sorted by line.
    The must part has at most [assoc] lines. The may part holds the union
    of both sides after a join, so it can hold more. LRU aging is confined
    to one set, so an access rewrites only the accessed set and shares
    every other one physically with its argument. *)
type t

(** The abstract state of one cache set. *)
type set

val empty : Pred32_hw.Cache_config.t -> t

(** [access t line] returns the state after an access to [line]. When the
    access cannot change the state (the line has age 0 in [must], hence
    also in [may], and no other line of its set has may-age 0) it returns
    [t] itself. *)
val access : t -> int -> t

(** [access_unknown t] models an access to an unknown line: every set
    may age, and may-contents become unknown (classifications after it can
    no longer prove always-miss, and all must-ages grow). The may parts are
    dropped then, so that states {!leq} orders both ways are also
    structurally equal. *)
val access_unknown : t -> t

val must_contains : t -> int -> bool

(** [may_excludes t line] — the line is provably not cached. *)
val may_excludes : t -> int -> bool

(** [join a b] is [a] itself when [leq b a]; otherwise every set whose
    join equals [a]'s set is that set, physically. *)
val join : t -> t -> t

val leq : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {2 Read-only views for tests} *)

(** [set t i] is the state of cache set [i], to check physical sharing. *)
val set : t -> int -> set

(** After an unknown access nothing can be proven absent. *)
val may_universal : t -> bool

(** [(line, maximal age)] of every must line, sorted by line. *)
val must_bindings : t -> (int * int) list

(** [(line, minimal age)] of every may line, sorted by line; empty once
    {!may_universal} holds. *)
val may_bindings : t -> (int * int) list
