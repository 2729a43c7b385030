(** The end-to-end λ-trim pipeline (Figure 3):

    {v input app -> static analyzer -> profiler -> debloater -> output app v}

    The optimized deployment runs on the platform simulator directly and
    carries no dependency on the pipeline. *)

type options = {
  k : int;                   (** modules to debloat; §8.4's default is 20 *)
  scoring : Scoring.method_;
  journal_dir : string option;
      (** record every DD verdict in per-module journals under this
          directory (see {!Journal}); [None] falls back to the
          process-wide {!Journal.configure}d directory, if any *)
  resume : bool;
      (** replay compatible existing journals before querying the oracle —
          a killed run resumed with the same options reproduces the
          uninterrupted run bit for bit *)
  oracle_cache : Oracle.Cache.t option;
      (** private observation memo; [None] = the global memo *)
  baseline : Manifest.t option;
      (** a previous run's manifest: modules whose
          {!Debloater.module_search_digest} is unchanged replay their
          recorded keep-set with zero oracle queries, changed modules
          warm-start DD from the recorded keep-set, unknown modules run
          fresh. A manifest for a different app is ignored. Warm keep-sets
          are bit-identical to a cold run's *)
  manifest_path : string option;
      (** write this run's manifest here (atomically, after the run) *)
}

val default_options : options

(** Traffic through the caching substrate during one run. The oracle
    counts are the run's own lookups in its observation memo (the
    [oracle_cache] option, else the global memo), read off the run's
    {!Oracle.Cache.view}, so they are exact whatever runs share the memo.
    The parse counts are deltas of the global parse cache, which
    concurrent runs move too: it is shared and content-addressed, and
    every app parses the same event context text, so no per-run split of
    it is schedule-free. Read-through caches — wall-clock only, no virtual
    measurement depends on them. *)
type cache_stats = {
  parse_hits : int;
  parse_misses : int;
  oracle_hits : int;
  oracle_misses : int;
}

type report = {
  app_name : string;
  original : Platform.Deployment.t;
  optimized : Platform.Deployment.t;
  analysis : Static_analyzer.t;
  profile : Profiler.result;
  ranked : string list;   (** top-K module names, best first *)
  module_results : Debloater.module_result list;  (** in debloating order *)
  debloat_wall_s : float; (** host wall-clock spent in the pipeline *)
  total_oracle_queries : int;
  caches : cache_stats;
  quarantined_tests : int;
      (** always 0; kept only because e2ebench constructs this record *)
  manifest : Manifest.t option;
      (** this run's manifest — present iff a [baseline] or
          [manifest_path] was given *)
  replayed_modules : string list;
      (** baseline modules whose digest was unchanged: recorded keep-set
          applied, zero oracle queries *)
  warm_seeded : int;   (** modules warm-started from a stale baseline entry *)
  warm_seed_hits : int;  (** warm starts whose seed passed confirmation *)
}

(** The wall-clock layers every traced run reports, in pipeline order:
    [static_analysis], [profile], [oracle.reference], [profile.reads] (the
    profile-seed read runs), [oracle.exec] / [oracle.hit] (DD queries that
    ran fresh interpreters / were answered by the memo), [dd] (DD
    bookkeeping) and [pipeline] (the rest of [pipeline:run]). [journal],
    [manifest] and [memo_store] spans appear when those are in use. *)
val layers : string list

val pp_cache_stats : Format.formatter -> cache_stats -> unit

(** Run the pipeline. Stage 3 debloats the top-K modules one after another
    in rank order (Algorithm 1 per module, §5.3), each against the
    deployment the earlier modules left. Parallelism lives a level up: the
    experiment runner and [ltrim redebloat] fan whole apps out over the
    configured pool.

    [jobs] does nothing but reject values below 1. It stays only because
    [e2ebench/trim_wl.ml] still passes [~jobs:1]; it goes once that
    caller drops it.
    @raise Invalid_argument if [jobs < 1]. *)
val run : ?options:options -> ?jobs:int -> Platform.Deployment.t -> report

(** Total attributes removed across all debloated modules. *)
val attrs_removed : report -> int

(** The module with the most attributes — Table 3's representative. *)
val representative_module : report -> Debloater.module_result option
