(** Pretty-printer emitting valid minipy source.

    Round-trip: [Parser.parse (program_to_string p)] equals [p] up to
    source locations for every [p] the parser returns and every attribute
    or statement restriction of one, except that [[]] reparses as
    [[Pass]]. Hand-built ASTs the parser never produces need not
    round-trip: [Cint (-5)] prints as ["(-5)"] and reparses as
    [Unop (Neg, 5)]. {!Parse_cache.write_program} relies on this to seed
    the parse cache; the tests check it on generated programs and on
    restricted corpus modules. *)

val binop_str : Ast.binop -> string

(** Canonical source text; an empty program prints as ["pass\n"]. *)
val program_to_string : Ast.program -> string
