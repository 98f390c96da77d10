(** Worst-case path explanation: the IPET solution decoded into a ranked
    per-basic-block / per-loop cycle-contribution table.

    The IPET objective is exactly the sum of [count(v) * time(v)] over all
    supergraph nodes, so the block rows decompose the bound with no
    residue: {!t.covered} always equals {!t.wcet} (checked by a test). *)

type block_row = {
  node : int;  (** supergraph node id *)
  func : string;
  addr : int;  (** block entry address *)
  count : int;  (** executions on the worst-case path *)
  cycles : int;  (** per-execution worst-case cycles *)
  total : int;  (** [count * cycles] *)
  share : float;  (** [total / wcet] *)
}

type loop_row = {
  loop : int;  (** loop index in the report's loop info *)
  header_addr : int;
  loop_func : string;
  depth : int;
  bound : int option;  (** effective iteration bound *)
  loop_total : int;  (** worst-case-path cycles spent in the body *)
  loop_share : float;
}

type t = {
  wcet : int;
  blocks : block_row list;  (** descending by [total]; only executed blocks *)
  loops : loop_row list;  (** descending by [loop_total]; nested bodies included *)
  dominating : loop_row option;  (** the loop contributing the most cycles *)
  covered : int;  (** sum of block totals; equals [wcet] *)
  backends : Analyzer.backend_run list;
      (** per-backend portfolio outcomes from the report; printed after the
          decomposition when more than one backend raced *)
  mc_gate : Analyzer.mc_gate;
      (** whether the model checker raced and why; printed after the
          backends *)
}

val of_report : Analyzer.report -> t

(** Ranked table, at most [top] block rows (default 10), then loop rows.
    The dominating loop prints on a line starting ["dominating loop:"]. *)
val pp : ?top:int -> Format.formatter -> t -> unit

val to_json : t -> Wcet_diag.Json.t

(** Graphviz view of the supergraph with worst-case-path nodes filled
    (darker = larger share) and path edges bold. *)
val emit_dot : Format.formatter -> Analyzer.report -> t -> unit
