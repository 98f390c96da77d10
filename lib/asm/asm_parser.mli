(** Textual PRED32 assembly parser.

    Accepts the surface syntax below, so hand-written assembly can be fed
    to the assembler (and to the WCET tool on [.s] files):

    {v
    .func main
      li r2, 21
      muli r1, r2, 2          ; comment
      ret
    loop:                      ; labels end with ':'
      beq r2, r0, loop
    .data table ram
      .word 42
      .zeros 3
      .addr main
    v}

    Registers are [r0]..[r15] plus the aliases [fp], [sp], [lr].
    Immediate-form ALU instructions take the [i] suffix ([addi], [slti],
    ...). Memory operands use [off(base)]. *)

exception Error of string * int  (** message, line number *)

val parse : string -> Ast.unit_
