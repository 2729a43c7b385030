(** The static analysis stage (§5.1): import collection plus PyCG-style
    definitely-accessed-attribute analysis. Protected attributes are excluded
    from DD, which both speeds up debloating and guarantees they survive. *)

module String_set = Callgraph.Pycg.String_set

type t = {
  imported_roots : string list;   (** top-level external modules *)
  imported_dotted : string list;  (** every dotted path imported *)
  pycg : Callgraph.Pycg.result;   (** analysis of the handler file *)
  image_pycg : (string * Callgraph.Pycg.result) list;
      (** per-file analyses of library code, keyed by vfs path *)
}

val analyze : Platform.Deployment.t -> t

(** Attributes of [module_name] (dotted) that the application or {e another}
    package definitely accesses — DD must keep them. Accesses from files
    inside the module's own package do not count: a package's internal
    re-export wiring is exactly what DD dismantles, with the oracle
    protecting any internal dependency that matters. *)
val protected_attrs : t -> module_name:string -> String_set.t

(** Conservative variant for oracle-less tools (the FaaSLight baseline):
    attributes accessed by any file other than [file] itself are protected,
    including same-package accesses. *)
val protected_attrs_excluding_file :
  t -> module_name:string -> file:string -> String_set.t
