(** The DD-based debloater (§5.3, §6.3): for each top-K module, enumerate its
    attributes, exclude PyCG-protected and magic ones, and run Algorithm 1 —
    every query rewrites the module on a copy-on-write overlay of the
    deployment and runs the oracle test cases, each in a fresh interpreter,
    until the first one that does not reproduce the reference.

    Each [?oracle_cache] below names the observation memo the [oracle]
    closure consults (default {!Oracle.Cache.global}); it is sampled around
    the DD search to fill the memo hit/miss counters of {!module_result}.
    Only a handle no other search counts through (a pipeline's
    {!Oracle.Cache.view}) makes those counts the search's own. *)

module String_set = Callgraph.Pycg.String_set

type module_result = {
  dm_module : string;        (** dotted module name *)
  dm_file : string;          (** rewritten vfs path, or ["<none>"] *)
  attrs_before : int;
  attrs_after : int;
  removed_attrs : string list;
  protected : string list;   (** PyCG exclusions present in the module *)
  oracle_queries : int;
  cache_hits : int;
  dd_iterations : int;
  oracle_cache_hits : int;
      (** oracle queries answered by the observation memo *)
  oracle_cache_misses : int;
  seed_hit : bool;
      (** a manifest entry's keep-set, the seed of a warm start
          ({!debloat_module_incremental}), passed its confirming query
          ({!Dd.stats.ws_hits}); [false] for every other search, profile
          seeds included *)
  seed_missed : bool;
      (** a seed — the manifest's or the profile — failed its confirming
          query, which was then one query spent for nothing *)
}

val pp_module_result : Format.formatter -> module_result -> unit

(** Rewrite [file] inside a copy-on-write overlay of the deployment keeping
    exactly [keep] (plus magic names) — O(1), not O(image files). The file
    is written with {!Minipy.Parse_cache.write_program}, so the global parse
    cache already holds the candidate's AST when the oracle imports it.
    Exposed for the ablation harness and tests. *)
val with_restricted :
  Platform.Deployment.t ->
  file:string ->
  keep:string list ->
  Platform.Deployment.t

(** Debloat one module. The result is an overlay sharing no mutable state
    with the input deployment. Builtin (non-file-backed) modules are a
    no-op. [on_step] fires for every issued query, in order.

    The search is seeded with a profile: the candidates [d]'s test cases
    read ({!Oracle.module_reads}). When [d] is the image of the last
    passing query of the [oracle] (built by {!Oracle.for_reference} on
    [oracle_cache]) — the previous module's result, or the
    reference itself — the profile is read off those runs and costs no
    execution; otherwise a warm memo answers it, or the test cases run once
    more with the read recorder on.
    A passing profile seed costs one query and the search stays inside it;
    a failing one costs one query and the full search runs. Either way the
    result is 1-minimal. Profile seeds never set [seed_hit]. A module with
    no candidates is not profiled.

    With [?journal], the search records every verdict in
    [<journal_dir>/<module>.journal] and — when the spec says resume — a
    compatible existing journal is replayed first, so a killed search
    continues where it crashed with bit-identical results. The journal's
    run digest covers the base deployment image this module is searched
    against and the profile seed; a journal written against any other
    image or seed is safely discarded. *)
val debloat_module :
  ?on_step:(string Dd.step -> unit) ->
  ?oracle_cache:Oracle.Cache.t ->
  ?journal:Journal.spec ->
  oracle:(Platform.Deployment.t -> bool) ->
  protected:String_set.t ->
  Platform.Deployment.t ->
  module_name:string ->
  Platform.Deployment.t * module_result

(** The journal header digest for one module search: covers the DD revision,
    engine tag, optimizer variant / stub configuration (lazy images
    get a distinct digest, so a [--resume] of a lazy run never replays
    eager-run verdicts — eager images keep the historical digest), image
    digest, module, file, protections, candidate order, and the seed when
    there is one. Exposed so tests can assert the separation. *)
val journal_run_digest :
  ?seed:string list ->
  Platform.Deployment.t ->
  module_name:string ->
  file:string ->
  protected_list:string list ->
  candidates:string list ->
  string

(** {1 Variants} *)

(** Statement-granularity DD — the coarser alternative §6.1 argues against;
    used by the granularity ablation. *)
val debloat_module_statements :
  ?oracle_cache:Oracle.Cache.t ->
  oracle:(Platform.Deployment.t -> bool) ->
  protected:String_set.t ->
  Platform.Deployment.t ->
  module_name:string ->
  Platform.Deployment.t * module_result

(** {1 Incremental re-debloating} *)

(** The reachable-image digest of one module's DD search: md5 over the
    module's top-level library subtree (path + content digest of every
    file a query can read or rewrite), the handler file/name/content and
    test cases driving the oracle, the candidate/protected split, the
    engine tag, and the optimizer variant. Equal digests across two
    revisions mean the search would replay move for move, so its recorded
    keep-set can be applied without any oracle query.

    Files outside the module's [site-packages/<root>] subtree are
    deliberately excluded: no generated workload library imports another,
    so edits to other libraries, and their trims earlier in the same run,
    cannot change this search. A module whose file lives outside its
    subtree falls back to the whole image digest (conservative, never
    wrong). *)
val module_search_digest :
  Platform.Deployment.t ->
  module_name:string ->
  file:string ->
  protected_list:string list ->
  candidates:string list ->
  string

(** Digest recorded for built-in (non-file-backed) modules: ["none"]. *)
val builtin_digest : string

type search_kind =
  | Fresh          (** full DD: no baseline entry, or a builtin module *)
  | Replayed       (** digest unchanged: keep-set applied, zero queries *)
  | Seeded of bool (** digest changed: warm-started ([true] = seed passed) *)

(** [debloat_module_incremental ~baseline d ~module_name] is
    {!debloat_module} consulting a previous run's manifest entry: an entry
    with an unchanged {!module_search_digest} replays its recorded
    keep-set with zero oracle traffic; a stale entry warm-starts DD with
    the recorded keep-set as seed (one confirming query, full ddmin on
    failure); no entry runs a fresh, profile-seeded search. Returns the
    current search digest for the caller's new manifest. [journal]
    applies to the fresh path only. *)
val debloat_module_incremental :
  ?oracle_cache:Oracle.Cache.t ->
  ?journal:Journal.spec ->
  oracle:(Platform.Deployment.t -> bool) ->
  protected:String_set.t ->
  baseline:Manifest.module_entry option ->
  Platform.Deployment.t ->
  module_name:string ->
  Platform.Deployment.t * module_result * search_kind * string
