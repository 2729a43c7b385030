(** Source positions for error reporting across lexer/parser/interpreter. *)

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;   (** 0-based *)
}

val make : file:string -> line:int -> col:int -> t
val dummy : t
val to_string : t -> string
