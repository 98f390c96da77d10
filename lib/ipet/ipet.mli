(** Path analysis (Figure 1's final phase) by implicit path enumeration.

    The maximal-time flow from the entry to the halting nodes, with loop
    bounds relating back-edge and entry-edge flow, is the WCET bound. A
    fact-free spec is solved structurally, as the longest path over the
    collapsed loop forest ({!Wcet_path.Forest}, after Prantl et al.): the
    graph is reducible and every loop bounded, so that path is the flow
    optimum. Annotation flow facts (execution-count limits, mutual
    exclusions) and the synthetic facts for irreducible regions break that
    tree structure; such specs, and any the forest cannot collapse, go to
    the simplex ({!solve_lp}), which encodes the feasible supergraph as a
    flow network — one variable per edge, conservation at every node — with
    loop bounds and facts as linear constraints. Linear chains are
    collapsed before the ILP is built, which keeps the exact solver fast. *)

(** The spec/solution types are the shared {!Wcet_path.Path_analysis} ones
    (re-exported with equations so existing field accesses keep working):
    IPET is one backend behind the common interface. *)

type fact = Wcet_path.Path_analysis.fact = {
  fact_coeffs : (int * int) list;  (** (node id, coefficient) *)
  fact_bound : int;  (** sum of coef * count(node) <= bound per run *)
  fact_label : string;  (** for error messages *)
}

type spec = Wcet_path.Path_analysis.spec = {
  value : Wcet_value.Analysis.result;
  times : int array;  (** per node id, upper bound cycles *)
  loop_bounds : (int * int) list;  (** (loop index, back-edge bound) *)
  facts : fact list;
}

type solution = Wcet_path.Path_analysis.solution = {
  wcet : int;
  node_counts : int array;  (** worst-case path execution counts per node *)
}

(** Backend metadata for the portfolio driver ({!Wcet_path.Portfolio}). *)

val name : string

val path_sensitive : bool
val fact_blind : bool
val exact_witness : bool

(** [solve spec loops] returns a typed [Error] when the flow is unbounded
    (E0301 — some cycle has no bound, the analysis-failure outcome the
    paper associates with rules 14.4/16.2/20.7) or infeasible (E0302 —
    contradictory flow facts). The solution always satisfies
    sum(count*time) = wcet, with fractional LP vertices (possible once
    weighted flow facts break total unimodularity) repaired by rounding
    every edge count up; a violation is reported as E0304 rather than
    silently corrupting downstream attribution. A fact-free spec is answered
    by the loop forest; every other spec, and every spec the forest rejects,
    by {!solve_lp}. The enclosing trace span gets a [solver=forest|simplex]
    attribute naming which one answered. *)
val solve :
  spec -> Wcet_cfg.Loops.info -> (solution, Wcet_path.Path_analysis.error) result

(** The simplex encoding alone, facts or not. It solves the specs that
    carry flow facts, and it is the reference that {!solve}'s forest
    answers are checked against. Every call counts one [ipet_solves]. *)
val solve_lp :
  spec -> Wcet_cfg.Loops.info -> (solution, Wcet_path.Path_analysis.error) result

(** {!solve_lp} as a path backend named ["simplex"]: the analyzer's
    [verify] runs it as the oracle for fact-free specs, which the ["ipet"]
    backend answers from the loop forest; the portfolio flags any bound
    difference as E0303. *)
module Simplex : Wcet_path.Path_analysis.BACKEND
