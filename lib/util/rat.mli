(** Exact rational arithmetic on native integers.

    Used by the simplex solver in [Wcet_lp]. Numerators and denominators are
    kept in lowest terms with a positive denominator, both within the
    symmetric range [-max_int, max_int], so [neg] and [abs] are exact. A
    value outside that range, [min_int] included, raises [Overflow] where it
    would arise ([of_int], [make] or an operation); IPET problems are small
    enough that this never fires in practice, and raising keeps results
    exact. *)

type t = private { num : int; den : int }

exception Overflow

val zero : t
val one : t
val minus_one : t

(** [make num den] normalizes [num/den]. [den] must be non-zero. *)
val make : int -> int -> t

val of_int : int -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [div a b] raises [Division_by_zero] if [b] is zero. *)
val div : t -> t -> t

val neg : t -> t
val abs : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t
val is_integer : t -> bool

(** [floor t] and [ceil t] as integers. *)
val floor : t -> int

val ceil : t -> int

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
