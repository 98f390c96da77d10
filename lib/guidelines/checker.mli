(** MISRA-C:2004 rule checker for MiniC, covering the rules Section 4.2 of
    the paper analyzes for their WCET-predictability impact.

    Checked rules: 13.4 (no float loop-control), 13.6 (loop counters not
    modified in the body), 14.1 (no syntactically unreachable code — the
    semantic variant, blocks the value analysis proves unreachable, is
    {!Audit} finding A0512), 14.4 (no goto), 14.5 (no continue), 16.1 (no
    variadic functions), 16.2 (no recursion), 20.4 (no dynamic heap
    allocation), 20.7 (no setjmp/longjmp). *)

type rule =
  | R13_4 | R13_6 | R14_1 | R14_4 | R14_5 | R16_1 | R16_2 | R20_4 | R20_7

type violation = { rule : rule; func : string; message : string }

val rule_name : rule -> string

(** [wcet_impact rule] is the paper's verdict on how the rule affects
    binary-level static WCET analysis. *)
val wcet_impact : rule -> string

(** [check program] runs every rule over a typed program
    (use {!Minic.Compile.frontend}). *)
val check : Minic.Tast.tprogram -> violation list

(** [is_runtime_func name]: the linked runtime's functions are
    ["__"]-prefixed. *)
val is_runtime_func : string -> bool

(** [check_user program] is {!check} restricted to the user's functions:
    the linked runtime deliberately violates some rules (software
    arithmetic loops, etc.). *)
val check_user : Minic.Tast.tprogram -> violation list

val pp_violation : Format.formatter -> violation -> unit
val all_rules : rule list
