(** Corpus-wide analyzability audit: the paper's Section 3/4 challenge
    taxonomy reproduced as {!Misra.Audit} output over every corpus scenario.

    For each entry (the nine MISRA-rule pairs plus the tier-two scenarios)
    and each variant, the scenario is analyzed twice — automatic (empty
    annotation set) and assisted (the scenario's annotations) — and audited
    against a nominal simulation run (the scenario's first declared input
    set), yielding the predictability grades and the finding codes that
    fired. The grade columns are the machine-checked form of the paper's
    qualitative per-challenge claims, and CI diffs them against a golden
    file so no program silently regresses. *)

type row = {
  entry_id : string;
  variant : string;  (** "conforming" or "violating" *)
  automatic : Misra.Audit.grade;
  assisted : Misra.Audit.grade;
  tier1 : int;  (** tier-1 findings of the automatic audit *)
  tier2 : int;
  codes : string list;  (** distinct finding codes of the automatic audit, sorted *)
}

(** [run ?domains ~config ?seed ()] audits the whole corpus across the
    {!Wcet_util.Parallel} domain pool; rows come back in corpus order, so
    the output is identical for every domain count. Both audits of a
    scenario run under [config] (see {!Wcet_serve.Handlers.config}): an
    [Auto] domain lets the octagon escalation discharge findings, which
    shows up as [discharged-by: octagon] codes and better grades. [seed]
    (default the paper date, [20110318]) deterministically selects which
    declared input set drives each scenario's nominal coverage run. *)
val run : ?domains:int -> config:Wcet_serve.Handlers.config -> ?seed:int64 -> unit -> row list

(** One stable line per row, [id variant automatic=g assisted=g] — the
    golden-file format CI diffs ([test/audit_grades.golden]). *)
val grades_lines : row list -> string list

val pp : Format.formatter -> row list -> unit

val to_json : row list -> Wcet_diag.Json.t
