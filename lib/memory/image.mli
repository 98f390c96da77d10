(** A concrete memory image over a {!Memory_map}: the loaded program plus
    data, as seen by the simulator.

    The image holds only the non-zero words a program wrote (code, data
    initializers, simulator stores); every other mapped word reads as zero.
    Its size follows the program, not the address space.

    Word accesses must be 4-byte aligned; unaligned or unmapped accesses
    raise [Bus_error], and writes to read-only regions raise
    [Write_to_rom] — both correspond to hardware faults the simulator
    reports. *)

type t

exception Bus_error of int
exception Write_to_rom of int

val create : Memory_map.t -> t

(** [read_word t addr] ignores write-only concerns; unmapped/unaligned
    raises [Bus_error addr]. Fresh memory reads as zero. *)
val read_word : t -> int -> Pred32_isa.Word.t

val write_word : t -> int -> Pred32_isa.Word.t -> unit

(** [load_words t ~base words] writes a contiguous block, bypassing the
    read-only check (used by the loader to install code into ROM). *)
val load_words : t -> base:int -> Pred32_isa.Word.t array -> unit

(** [contents t] is every non-zero word as [(address, word)], sorted by
    address: a canonical dump for content-addressed cache keys. Two images
    that read the same everywhere have equal contents, whatever order they
    were written in. *)
val contents : t -> (int * Pred32_isa.Word.t) list

(** [copy t] is a deep copy; the simulator snapshots the loaded image so each
    run starts from identical memory. *)
val copy : t -> t
