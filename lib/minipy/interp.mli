(** Tree-walking evaluator with the pieces λ-trim instruments:

    - a module cache and full import machinery with before/after import
      hooks — the profiler measures marginal import time and memory through
      these hooks exactly as §5.2 patches CPython's loader;
    - a virtual clock and byte ledger: every statement costs interpreter
      time, every allocation is charged, and library init code expresses
      native work through the builtin [simrt] module;
    - stdout capture and external-call recording, which the debloating
      oracle compares (§5.3).

    Builtin modules provided without filesystem backing: [simrt] (cost
    model), [json] (encode/decode), [cloud] (intercepted remote services). *)

(** Raised when the step budget is exhausted (runaway loop). *)
exception Timeout of string

(** Stray control flow at module level escapes {!exec_main} unchanged: a
    top-level [return], [break] or [continue] raises the matching
    exception. *)
exception Return_exc of Value.value
exception Break_exc
exception Continue_exc

type import_hook = {
  on_before : string -> unit;  (** dotted module name, before body exec *)
  on_after : string -> unit;   (** after body exec (also on failure) *)
}

type t = {
  vfs : Vfs.t;
  modules : (string, Value.module_obj) Hashtbl.t;
      (** the module cache ("sys.modules"), keyed by dotted name *)
  stdout_buf : Buffer.t;
  mutable vtime_ms : float;   (** virtual elapsed CPU time *)
  mutable heap_bytes : int;   (** monotone footprint ledger *)
  mutable steps : int;
  max_steps : int;
  mutable import_hooks : import_hook list;
  mutable import_stack : string list;
  builtins : Value.namespace;
  mutable external_calls : string list;  (** newest first; see {!external_calls} *)
  remote_store : (string, Value.value) Hashtbl.t;
  parse_cache : Parse_cache.t;
      (** content-addressed AST store consulted on import *)
  mutable obs_sink : Obs.Span.sink;
      (** sink for import spans; embedders (Lambda_sim) may retarget it *)
  mutable obs_track : int;  (** trace lane for this interpreter's spans *)
  mutable obs_offset_ms : float;
      (** maps vtime (starts at 0) onto the embedding timeline *)
  lazy_roots : (string, unit) Hashtbl.t;
      (** import roots the image's {!lazy_manifest_file} marks for lazy
          (stub-on-import, force-on-touch) loading — ARCHITECTURE §14 *)
  lazy_pending : (string, unit) Hashtbl.t;
      (** stub modules whose body has not run yet *)
  mutable lazy_forcing : int;
      (** force nesting depth; imports run eagerly while a body is being
          forced, so a force replays the eager import subtree in order *)
  on_read : (string -> string -> unit) option;
      (** read recorder; see {!create} *)
}

and env = {
  locals : Value.namespace;
  globals : Value.namespace;
  global_decls : (string, unit) Hashtbl.t;
}

(** The engine name recorded in on-disk keys: the oracle memo key, the DD
    journal run digest and the run-manifest header. It is ["treewalk"], the
    name the tree-walker has always written, so existing files stay valid. *)
val engine_tag : string

(** Fresh interpreter over an image. Starts at a ~3 MB runtime footprint.
    [parse_cache] defaults to {!Parse_cache.global}: imports of unchanged
    sources reuse previously parsed ASTs (virtual measurements unaffected).
    [obs] (default [false]) records one span per executed module import on
    the installed tracer; oracle interpreters leave it off so DD's
    thousands of probe runs do not flood the trace.

    [on_read] (default off) is called with [(module, attribute)] at every
    read of a module-level name: an attribute access on a module
    ([getattr], submodules included), a [from … import] name, and a name
    lookup that hits a module's globals — from the module's functions, or
    from its top level, where locals are the globals. Locals, builtins and
    class attributes are not reads. Recording charges no tick, and off it
    costs one branch per read point. *)
val create :
  ?max_steps:int -> ?parse_cache:Parse_cache.t -> ?obs:bool ->
  ?on_read:(string -> string -> unit) -> Vfs.t -> t

val heap_mb : t -> float
val stdout_contents : t -> string

(** Intercepted remote-service operations, in issue order. *)
val external_calls : t -> string list

(** Register a measurement hook on the import machinery (§5.2). *)
val add_import_hook : t -> import_hook -> unit

(** {1 Lazy loading (ARCHITECTURE §14)} *)

(** VFS path of the lazy-loading manifest ([".lazy-manifest"]). Its leading
    dot keeps it out of import resolution, so shipping it can never shadow
    application code. When present, {!create} arms stub-on-import loading
    for the listed roots. *)
val lazy_manifest_file : string

(** Parse manifest source into [(lazified roots, preload order)]; directives
    are [lazy <root>] and [preload <dotted>], in file order. *)
val parse_lazy_manifest : string -> string list * string list

(** Stub-configuration tag for cache/journal keys: ["eager"] without a
    manifest, ["lazy:<digest>"] with one. Lazy and eager twins of an image
    must never share oracle verdicts. *)
val lazy_config_of_vfs : Vfs.t -> string

(** The module-level environment (locals = globals = the namespace). *)
val module_env : Value.module_obj -> env

(** Evaluate one expression. May raise [Value.Py_error] or {!Timeout}. *)
val eval : t -> env -> Ast.expr -> Value.value

(** Execute a top-level program as [__main__]; returns its namespace. *)
val exec_main : t -> Ast.program -> Value.namespace

(** Call a function bound in a namespace (the Lambda handler entry point). *)
val call_in_namespace :
  t -> Value.namespace -> string -> Value.value list -> Value.value
