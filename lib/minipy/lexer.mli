(** Indentation-aware lexer following the CPython tokenizer structure: a
    stack of indentation levels producing [Indent]/[Dedent] tokens, implicit
    line joining inside brackets, ['#'] comments, ['\']-continued lines, and
    single/double/triple-quoted strings with escapes. *)

exception Error of string * Loc.t

(** A scan in progress over one source string. *)
type state

val make : file:string -> string -> state

(** The next token and its location. The stream always ends with [Eof],
    which [next] then keeps returning; a [Newline] precedes it when the
    file does not end in one; all open indentation levels are closed with
    [Dedent]s. Once [next] has raised [Error], the state must not be used
    again. *)
val next : state -> Token.t * Loc.t

(** The whole stream of {!next}, up to and including the first [Eof]. *)
val tokenize : file:string -> string -> (Token.t * Loc.t) list
