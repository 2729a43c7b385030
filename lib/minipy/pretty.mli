(** Pretty-printer emitting valid minipy source.

    Round-trip: [Parser.parse (program_to_string p)] is {!Ast.program_equal}
    to [p] for every [p] the parser returns and every attribute or statement
    restriction of one, except that [[]] reparses as [[Pass]]. Hand-built
    ASTs the parser never produces need not round-trip: [Cint (-5)] prints
    as ["(-5)"] and reparses as [Unop (Neg, 5)]. {!Parse_cache.write_program}
    relies on this to seed the parse cache; the tests check it on generated
    programs and on restricted corpus modules. *)

val binop_str : Ast.binop -> string
val const_str : Ast.const -> string
val expr_str : ?ctx:int -> Ast.expr -> string
val target_str : Ast.target -> string

(** Canonical source text; an empty program prints as ["pass\n"]. *)
val program_to_string : Ast.program -> string

val expr_to_string : Ast.expr -> string
