(** Loop detection on the supergraph: dominator-based natural loops plus
    detection of irreducible regions.

    Irreducible regions (cycles with several entry points, produced by
    [goto] into loops, [setjmp]/[longjmp], or hand-written assembly) have no
    loop header for bound analysis to anchor on; the paper notes there is no
    feasible automatic bound for them (rule 14.4), so we report them and
    require user flow facts. *)

type loop = {
  header : int;  (** node id *)
  body : int list;  (** node ids, header included *)
  back_edges : (int * int) list;  (** (source, header) *)
  entry_edges : (int * int) list;  (** edges into the header from outside *)
  exit_edges : (int * int) list;  (** edges leaving the body *)
  parent : int option;  (** index of the innermost enclosing loop *)
  depth : int;  (** 1 = outermost *)
}

type info = {
  loops : loop array;
  idom : int array;  (** immediate dominator per node id; -1 if unreachable *)
  irreducible : int list list;  (** multi-entry SCCs (node id lists) *)
  rpo : int array;  (** reverse postorder of reachable nodes *)
}

val analyze : Supergraph.t -> info

(** [dominates info a b] — does node [a] dominate node [b]? *)
val dominates : info -> int -> int -> bool

(** [loop_of info node] is the innermost loop containing [node]. *)
val innermost_loop : info -> int -> int option
