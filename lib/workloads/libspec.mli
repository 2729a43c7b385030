(** Synthetic library generator.

    Synthesizes minipy package trees with the structural properties λ-trim is
    sensitive to: a root [__init__] binding many attributes (re-exports from
    a needed core, re-exports from removable heavies, filler API surface,
    constants, and a dead GPU branch referencing heavies — the static-
    analysis trap of §4), import-time cost split between needed and removable
    code, and phantom binary payloads for on-disk size. Deterministic. *)

type t = {
  l_name : string;
  l_import_ms : float;            (** inclusive import-time budget *)
  l_alloc_mb : float;             (** inclusive import-memory budget *)
  l_attrs : int;                  (** approx. root-module attribute count *)
  l_needed_funcs : int;           (** core functions the app will call *)
  l_removable_time_frac : float;  (** share of time in removable submodules *)
  l_removable_mem_frac : float;
  l_heavy_subs : int;             (** number of removable heavy submodules *)
  l_image_mb : float;             (** on-disk size (phantom blobs) *)
  l_exec_ms : float;              (** cost inside the core run_task *)
  l_uses_cloud : bool;            (** SDK-style wrapper over the intercepted
                                      cloud module *)
}

val spec :
  ?attrs:int ->
  ?needed_funcs:int ->
  ?removable_time_frac:float ->
  ?removable_mem_frac:float ->
  ?heavy_subs:int ->
  ?exec_ms:float ->
  ?uses_cloud:bool ->
  name:string ->
  import_ms:float ->
  alloc_mb:float ->
  image_mb:float ->
  unit ->
  t

(** Number of filler API functions ([api_0] … [api_{n-1}]) the package's
    [_api] submodule defines. *)
val filler_count : t -> int

(** Install the package under [site-packages/] in the given filesystem. *)
val install : t -> Minipy.Vfs.t -> unit
