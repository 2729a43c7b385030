(** Recursive-descent parser for minipy.

    Precedence (low to high): lambda < ternary < or < and < not < comparison
    < +,- < *,/,//,% < unary -,+ < ** < trailers (call, attribute, subscript,
    slice) < atom. *)

exception Error of string * Loc.t

(** Parse a whole module. [file] is used in locations and error messages.

    Tokens are pulled from {!Lexer.next} as the parser needs them, but a
    {!Lexer.Error} anywhere in the source takes precedence over any
    [Error] the parser raises: on a parse error the rest of the source is
    lexed first. *)
val parse : file:string -> string -> Ast.program
