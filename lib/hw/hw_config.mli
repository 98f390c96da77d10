(** Full hardware configuration: memory map, caches, pipeline constants.

    One [Hw_config.t] value drives both the cycle-level simulator and the
    static analyses, which is what makes the soundness check
    [observed <= bound] meaningful. *)

type t = {
  map : Pred32_memory.Memory_map.t;
  icache : Cache_config.t option;  (** [None] = uncached fetches *)
  dcache : Cache_config.t option;
  branch_taken_penalty : int;  (** extra cycles for any taken control transfer *)
  mul_latency : int;
  div_latency : int;  (** fixed worst-case latency of the hardware divider *)
  has_hw_div : bool;
      (** when false the target (like the HCS12X / MPC5554 scenarios of the
          paper) has no hardware divide and the compiler must call software
          arithmetic routines *)
}

(** Default PRED32 board: both caches on, penalty 2, mul 3, div 12. *)
val default : t

(** The same board without a hardware divider: MiniC division compiles to
    the [lDivMod] software routine (Section 4.4 of the paper). *)
val no_hw_div : t

(** Board with caches disabled (every access pays its region latency);
    useful as an ablation to separate cache effects from path effects. *)
val uncached : t

(** The named profiles the CLI's [--hw] and the daemon's [hw] parameter
    accept: [default], [uncached] and [no-hw-div]. *)
val profiles : (string * t) list

val pp : Format.formatter -> t -> unit
