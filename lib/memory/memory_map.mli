(** The target's memory map: a set of non-overlapping regions. *)

type t

(** [make regions] checks that regions are non-overlapping and word-aligned.
    Raises [Invalid_argument] otherwise. *)
val make : Region.t list -> t

val regions : t -> Region.t list

(** [find t addr] is the region containing byte address [addr]. *)
val find : t -> int -> Region.t option

val find_by_name : t -> string -> Region.t option

(** Worst read latency over the data regions an unresolved access may
    target (everything except ROM): what an analysis must assume for an
    unknown address with no annotation. *)
val worst_read_latency : t -> int

(** The default PRED32 board used throughout examples, tests and benches:

    - [rom]: 256 KiB at 0x00000000, latency 2, I-cacheable
    - [ram]: 1 MiB at 0x10000000, latency 6, D-cacheable (stack at top, heap
      growing from 0x10080000)
    - [scratch]: 64 KiB at 0x20000000, latency 1, uncached fast scratchpad
    - [io]: 64 KiB at 0xF0000000, latency 40, uncached device registers *)
val default : t

(** Conventional addresses on the default board. *)
val default_stack_top : int

val default_heap_base : int
val pp : Format.formatter -> t -> unit
