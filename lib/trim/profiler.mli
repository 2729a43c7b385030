(** The serverless cost profiler (§5.2).

    Runs Function Initialization once in a fresh interpreter with import
    hooks installed — the reproduction of λ-trim's patched CPython loader —
    and reports per-module marginal import time and memory. *)

type module_profile = {
  mp_name : string;    (** dotted module name *)
  mp_incl_ms : float;  (** t in Eq. 2: the module's full execution window,
                           covering its own submodule imports *)
  mp_incl_mb : float;  (** m in Eq. 2 *)
  mp_self_ms : float;  (** window minus child windows (diagnostic) *)
  mp_self_mb : float;
  mp_order : int;      (** import order, for deterministic tie-breaks *)
}

type result = {
  modules : module_profile list;  (** in import order *)
  total_ms : float;               (** T: the whole init phase *)
  total_mb : float;               (** M *)
  init_error : string option;     (** init crash class, if any *)
}

(** Profile a deployment's Function Initialization in isolation. *)
val profile : Platform.Deployment.t -> result

(** Measured modules that are debloating candidates (everything except the
    interpreter-provided simrt). *)
val candidates : result -> module_profile list
