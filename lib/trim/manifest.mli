(** Run manifest: the durable record of one debloat pipeline run that makes
    the next run incremental.

    A manifest binds the run configuration (app, engine, optimizer
    variant, scoring, k) to the ranked module list and, per module, the
    reachable-image search digest ({!Debloater.module_search_digest}), the
    removed attributes, and the search's counters. A later run given the
    manifest as [--baseline] replays recorded results for modules whose
    digest is unchanged and warm-starts DD for the rest.

    The file is line-oriented with an [ltrim-manifest/1] header and one
    md5-checksummed record per line. Parsing is strict — any malformed or
    corrupt line rejects the whole manifest (callers then fall back to a
    cold run); manifests are written atomically after a completed run, so
    unlike a {!Journal} there is no torn-tail recovery to perform. *)

type module_entry = {
  me_module : string;
  me_file : string;          (** ["<none>"] for built-in modules *)
  me_digest : string;        (** search digest at run time *)
  me_removed : string list;  (** removed attributes, source order *)
  me_queries : int;
  me_cache_hits : int;
  me_iterations : int;
}

type t = {
  mf_app : string;
  mf_backend : string;       (** engine tag, {!Minipy.Interp.engine_tag} *)
  mf_variant : string;       (** lazy-stub tag, ["eager"] when none *)
  mf_scoring : string;
  mf_k : int;
  mf_input_digest : string;  (** image digest before debloating *)
  mf_output_digest : string; (** image digest of the debloated result *)
  mf_ranked : string list;   (** modules in debloat order *)
  mf_modules : module_entry list;  (** same order as [mf_ranked] *)
}

val magic : string

(** Render to the on-disk text format.
    @raise Invalid_argument if any field contains ['|'] or newlines. *)
val render : t -> string

(** Strict inverse of {!render}: [None] on a foreign header, checksum
    mismatch, malformed record, or ranked/module-list disagreement. *)
val parse : string -> t option

(** Atomic write-temp-then-rename of {!render}, creating parent
    directories as needed. *)
val save : path:string -> t -> unit

(** [None] if the file is absent or fails {!parse}. *)
val load : path:string -> t option

val find_module : t -> string -> module_entry option
