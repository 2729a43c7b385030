(** The engine tag, as a one-case choice. The tree-walker is minipy's only
    engine; new code reads {!Interp.engine_tag} directly. *)

type choice = Treewalk

(** [to_string Treewalk] is {!Interp.engine_tag}. *)
val to_string : choice -> string

(** Always {!Treewalk}. *)
val current : unit -> choice
