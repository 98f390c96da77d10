(** Geometry of a set-associative LRU cache. *)

type t = {
  sets : int;  (** power of two *)
  assoc : int;  (** ways per set *)
  line_bytes : int;  (** power of two, >= 4 *)
}

val make : sets:int -> assoc:int -> line_bytes:int -> t

(** [line_of_addr t addr] is the global line id [addr / line_bytes]. *)
val line_of_addr : t -> int -> int

(** [set_of_line t line] is the set index the line maps to. *)
val set_of_line : t -> int -> int

(** [lines_of_range t ~addr ~size] enumerates the line ids an access
    [\[addr, addr+size)] touches. *)
val lines_of_range : t -> addr:int -> size:int -> int list

val words_per_line : t -> int
val capacity_bytes : t -> int

(** Default instruction cache of the PRED32 board: 2-way, 16 sets, 16-byte
    lines (512 bytes) — small on purpose, like the LEON2 studied by the
    COLA project, so cache effects show up in small benchmarks. *)
val default_icache : t

(** Default data cache: 2-way, 16 sets, 16-byte lines. *)
val default_dcache : t

val pp : Format.formatter -> t -> unit
