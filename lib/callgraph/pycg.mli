(** PyCG-style static analysis (Salis et al., ICSE'21), reduced to what
    λ-trim needs: which attributes of each imported module are definitely
    accessed (exempt from DD), and which names a program references (the
    FaaSLight and Vulture baselines' dead-code question).

    Flow-insensitive and over-approximating — sound for λ-trim, since
    attributes marked accessed are merely kept, never removed. *)

module String_set : Set.S with type elt = string
module String_map : Map.S with type key = string

type result = {
  accessed : String_set.t String_map.t;
      (** dotted module name → attribute names accessed on it *)
  module_aliases : string String_map.t;
      (** local binding → dotted module name *)
  ctx_module : string option;
      (** module being analyzed, for relative-import resolution *)
  ctx_is_package : bool;
}

(** [analyze ?current_module ?is_package prog] — with a module context,
    relative [from … import]s resolve to absolute paths; without one they
    are skipped (conservatively unprotected). *)
val analyze :
  ?current_module:string -> ?is_package:bool -> Minipy.Ast.program -> result

(** Attribute names accessed on [root] or any of its submodules. *)
val accessed_under : result -> string -> String_set.t

(** Every identifier referenced in expression position anywhere in the
    program (def/class bodies included) — the conservative "is this name
    used?" question a static dead-code eliminator must answer. *)
val referenced_names : Minipy.Ast.program -> String_set.t
