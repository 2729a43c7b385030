(** Attribute-granularity view of a module (§6.1).

    A module's attributes are the names its top-level statements bind:
    imports, [from … import] names (one attribute {e per name} — finer than
    statement granularity), defs, classes, and assignments. Magic names
    ([__name__], …) are excluded from debloating; non-binding statements are
    left untouched. *)

module String_set : Set.S with type elt = string

(** [is_magic "__name__"] — dunder names excluded from DD (§6.3). *)
val is_magic : string -> bool

(** Names bound by one top-level statement, in source order. Empty for
    non-binding statements. *)
val bound_names : Minipy.Ast.stmt -> string list

(** The module's debloatable attributes: every non-magic bound name, first
    occurrence order, deduplicated. *)
val attrs_of_program : Minipy.Ast.program -> string list

(** Rewrite the module so only attributes in [keep] (plus magic names and
    non-binding statements) survive. From-import lists are filtered name by
    name; statements binding no kept name are dropped (Figure 7). Tuple
    assignments are kept whole if any bound name is kept. The debloater
    writes the result with {!Minipy.Parse_cache.write_program}, so the
    oracle imports it without re-parsing. *)
val restrict : Minipy.Ast.program -> keep:String_set.t -> Minipy.Ast.program

(** {1 Statement granularity (the §6.1 ablation)} *)

(** Indices of the removable (binding, non-magic) top-level statements. *)
val statement_components : Minipy.Ast.program -> int list

(** Keep only statements whose index is in [keep], plus every non-binding or
    magic-only statement. *)
val restrict_statements :
  Minipy.Ast.program -> keep:int list -> Minipy.Ast.program
