(** Single AST pass collecting every module a program imports (§5.1). The
    scan descends into all blocks because imports may appear anywhere and
    λ-trim must not miss a lazily-imported dependency. *)

module String_set : Set.S with type elt = string

type import = {
  path : Minipy.Ast.dotted;  (** full dotted path as written *)
  bound_as : string;         (** name bound in the importing namespace *)
  is_from : bool;            (** [from x import …] *)
}

(** Distinct top-level module roots — the profiler's candidates. The
    interpreter-provided [simrt] costing module is excluded. *)
val root_modules : Minipy.Ast.program -> string list

(** Every distinct dotted module path mentioned. *)
val dotted_modules : Minipy.Ast.program -> string list
