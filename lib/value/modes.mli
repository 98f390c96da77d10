(** Operating-mode guards (the paper's Section 4.3), read off a value
    analysis result.

    A mode variable is a global the program only ever reads, tested by
    conditional branches outside any loop: either at two or more sites, or
    at one site whose two sides dispatch to different callees (the
    flight-control/ground-control shape). The value analysis records, per
    register, the memory word it was loaded from ([State.origins]); a
    branch whose operand originates at a never-written data symbol is a
    mode guard.

    The analyzability auditor reports each guard as an A0508 finding, and
    the path phase races the model checker only when a guard exists: mode
    guards are the path correlation that lets it undercut IPET. *)

type guard = {
  symbol : string;  (** the never-written global *)
  sites : (int * string) list;
      (** (branch terminator address, function), ascending, one per
          physical site *)
}

(** [guards program loops value] lists the mode guards, sorted by symbol.
    One pass over the graph's branches; the stored address ranges are
    collected in one pass over the accesses, and only when some branch
    reads a data symbol. *)
val guards : Pred32_asm.Program.t -> Wcet_cfg.Loops.info -> Analysis.result -> guard list
