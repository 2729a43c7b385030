(** Runtime values for the minipy interpreter.

    Everything is an object wrapping a namespace — exactly the model §6.1 of
    the paper relies on: a module is a dict from names to objects, and
    attributes are the building blocks the debloater removes. *)

type value =
  | Vnone
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstr of string
  | Vlist of vlist
  | Vtuple of value array
  | Vdict of vdict
  | Vfunc of func
  | Vbuiltin of builtin
  | Vclass of cls
  | Vinstance of instance
  | Vmodule of module_obj
  | Vexc of exc

and vlist = { mutable items : value array }

and vdict = { mutable pairs : (value * value) list }
(** Association list with structural key equality and insertion order —
    serverless payloads are small, so O(n) lookups keep key handling trivial. *)

and func = {
  fname : string;
  fparams : (string * value option) list;
      (** defaults are evaluated at def time *)
  fbody : Ast.stmt list;
  fglobals : namespace;  (** the defining module's namespace *)
  fmodule : string;
}

and builtin = {
  bname : string;
  bcall : value list -> (string * value) list -> value;
}

and cls = {
  cname : string;
  cattrs : namespace;
  cbases : cls list;
  cmodule : string;
}

and instance = {
  icls : cls;
  iattrs : namespace;
}

and module_obj = {
  mname : string;  (** dotted name, e.g. ["torch.nn"] *)
  mfile : string;  (** vfs path, or ["<builtin>"] *)
  mattrs : namespace;
}

and exc = {
  exc_class : string;  (** e.g. ["AttributeError"] *)
  exc_msg : string;
}

and namespace = (string, value) Hashtbl.t

(** Raised for every Python-level error; caught by try/except and, at the
    boundary, surfaced as an invocation error. *)
exception Py_error of exc

(** [py_error "TypeError" fmt …] raises {!Py_error} with a formatted message. *)
val py_error : string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val type_name : value -> string
val truthy : value -> bool

(** Structural equality as used by [==] and dict keys; functions, classes,
    instances, and modules compare physically. *)
val equal : value -> value -> bool

(** Ordering for [<] and [sorted].
    @raise Py_error ([TypeError]) on incomparable types. *)
val compare_values : value -> value -> int

(** [str()] — used by print. *)
val to_display : value -> string

(** [repr()] — used inside containers. *)
val to_repr : value -> string

(** Virtual-memory cost of allocating this value (bytes); approximates
    CPython object overheads. The absolute constants matter less than the
    fact that removing a def/class/import genuinely removes its footprint. *)
val bytes_of_alloc : value -> int

val dict_lookup : vdict -> value -> value option
val dict_set : vdict -> value -> value -> unit

(** @raise Py_error ([KeyError]) when absent. *)
val dict_del : vdict -> value -> unit

(** Attribute lookup through bases, left-to-right depth-first. *)
val class_lookup : cls -> string -> value option

val is_subclass : cls -> string -> bool
