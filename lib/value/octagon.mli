(** Octagon abstract domain: difference-bound matrices over [±x ±y <= c]
    constraints on a fixed set of integer variables (Mine's encoding), used
    by the escalation pass of {!Analysis} to recover relations the interval
    domain loses at joins and widenings.

    Soundness under 32-bit wraparound is the caller's contract: a variable
    may only participate in constraints while its companion interval proves
    the concrete value lies in [0, 2^31) — the range where unsigned machine
    order and mathematical order coincide — and must be {!forget}-ed the
    moment that proof lapses. Strong closure is a precision device only:
    every stored constraint is individually true, so reading a partially
    closed matrix merely loses precision, never soundness. *)

type t

(** [top ?thresholds dim] is the unconstrained octagon over [dim]
    variables. [thresholds] (sorted ascending) are the widening landing
    points shared by every derived state. *)
val top : ?thresholds:int array -> int -> t

val bottom : ?thresholds:int array -> int -> t
val is_bot : t -> bool
val dim : t -> int

(** {2 Constraints} — all sound tightenings; bottom passes through. *)

(** [add_diff t ~u ~v c] adds [x_u - x_v <= c] with incremental closure. *)
val add_diff : t -> u:int -> v:int -> int -> t

(** [add_sum_ub t ~u ~v c] adds [x_u + x_v <= c]. *)
val add_sum_ub : t -> u:int -> v:int -> int -> t

(** [add_sum_lb t ~u ~v c] adds [-x_u - x_v <= c]. *)
val add_sum_lb : t -> u:int -> v:int -> int -> t

val add_ub : t -> int -> int -> t  (** [add_ub t v c]: [x_v <= c] *)

val add_lb : t -> int -> int -> t  (** [add_lb t v c]: [x_v >= c] *)

(** {2 Assignments} *)

(** [forget t v] drops every constraint mentioning [v]. *)
val forget : t -> int -> t

(** [assign_var_plus t ~dst ~src c] is [x_dst := x_src + c] ([dst = src]
    allowed: an exact shift). The caller guarantees no wraparound. *)
val assign_var_plus : t -> dst:int -> src:int -> int -> t

(** [assign_const_minus t ~dst ~src c] is [x_dst := c - x_src]. *)
val assign_const_minus : t -> dst:int -> src:int -> int -> t

(** [assign_interval t v (lo, hi)] is [x_v := \[lo, hi\]] (forget + unary
    bounds). *)
val assign_interval : t -> int -> int * int -> t

(** {2 Queries} *)

(** [var_bounds t v] is [(lo, hi)] with [None] = unconstrained on that
    side; on bottom, the empty pair [(Some 0, Some (-1))]. *)
val var_bounds : t -> int -> int option * int option

(** [diff_bounds t ~u ~v] bounds [x_u - x_v] the same way. *)
val diff_bounds : t -> u:int -> v:int -> int option * int option

(** {2 Lattice} *)

val leq : t -> t -> bool
val equal : t -> t -> bool

(** Cell-wise max; on strongly closed arguments this is the best octagon
    abstraction of the union, and the result is again strongly closed. *)
val join : t -> t -> t

val meet : t -> t -> t

(** Threshold widening: a growing cell jumps to the smallest threshold
    covering it, else to infinity; stable cells keep their old bound. The
    result is deliberately not re-closed (termination). *)
val widen : t -> t -> t

(** {2 In-place editing}

    A transfer function applies many updates to one state. [edit t] takes
    a private copy of [t]'s matrix, the {!Edit} operations update it in
    place with exactly the semantics of the pure operations above (which
    are each one [edit], one {!Edit} operation and one {!freeze}), and
    [freeze] hands the matrix over as the result. An edit must not be
    used after it is frozen. *)

type edit

val edit : t -> edit
val freeze : edit -> t

module Edit : sig
  (** Once an operation finds the matrix inconsistent the edit is bottom,
      and every later operation on it is a no-op. *)
  val is_bot : edit -> bool

  val add_diff : edit -> u:int -> v:int -> int -> unit
  val add_ub : edit -> int -> int -> unit
  val add_lb : edit -> int -> int -> unit
  val forget : edit -> int -> unit
  val assign_var_plus : edit -> dst:int -> src:int -> int -> unit
  val var_bounds : edit -> int -> int option * int option
  val diff_bounds : edit -> u:int -> v:int -> int option * int option
end

(** Full strong closure (Floyd–Warshall + integer strengthening). Exposed
    for the idempotence property tests; normal operation relies on the
    incremental closure inside the constraint operations. *)
val close : t -> t

val pp : Format.formatter -> t -> unit

(** A fresh row-per-vertex copy of the matrix ([None] on bottom), cell
    [(i).(j)] bounding [V_j - V_i] with [max_int] for unconstrained. It
    exists for the differential test against the reference kernel; the
    analysis never reads cells directly. *)
val cells : t -> int array array option
