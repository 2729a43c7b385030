(** Module path resolution against the virtual filesystem.

    Search order mirrors a Lambda image: the application root first, then
    site-packages. A dotted path resolves each component in turn; packages
    are directories containing [__init__.py], plain modules are [.py] files. *)

type resolution =
  | Package of string  (** vfs path of the package's [__init__.py] *)
  | Module of string   (** vfs path of the module's [.py] file *)
  | Not_found

val resolve : Vfs.t -> string list -> resolution

(** All dotted prefixes: [a.b.c] gives [[a]; [a;b]; [a;b;c]] — the import
    order CPython (and this interpreter) uses. *)
val prefixes : string list -> string list list

(** The file defining [module_name]'s namespace — the file the debloater
    rewrites — if the module is file-backed. *)
val init_file_of : Vfs.t -> string -> string option
