(** Constraint-solving path backend (Prantl et al.'s high-level constraint
    analysis, specialised to the collapsed loop forest): propagates
    execution-count constraints innermost-out with interval arithmetic.
    Fact-blind but exact on the structural problem. The ["ipet"] backend
    answers every fact-free spec from the same forest ({!Forest.solve}), so
    on those specs csolve repeats IPET's bound, and the simplex
    ({!Wcet_ipet.Ipet.Simplex}) is the independent oracle. csolve can never
    supply a portfolio's bound (undercutting IPET is the E0303 fatal, and
    ties go to IPET), so it does not race: the analyzer's [verify] runs it
    as the structural-witness oracle. *)
include Path_analysis.BACKEND
