(** Tokens produced by the indentation-aware lexer. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Name of string
  | Keyword of string  (** a name [is_keyword] accepts *)
  | Op of string       (** operators and punctuation *)
  | Newline
  | Indent
  | Dedent
  | Eof

val is_keyword : string -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
