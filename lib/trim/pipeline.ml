(* The end-to-end λ-trim pipeline (Figure 3):

     input app ──> static analyzer ──> profiler ──> debloater ──> output app

   The optimized deployment is directly runnable on the platform simulator
   and carries no dependency on the pipeline.

   Every run records the caching substrate's traffic: parse-cache hits
   (sources answered without re-parsing) and oracle-memo hits (DD queries
   answered without re-interpreting). Both caches are read-through — they
   change host wall-clock only, never a virtual measurement. *)

type options = {
  k : int;                        (* modules to debloat (§8.4: default 20) *)
  scoring : Scoring.method_;
  (* durability (off by default — the defaults keep every committed CSV
     byte-identical to the unjournaled pipeline) *)
  journal_dir : string option;    (* record DD verdicts under this dir *)
  resume : bool;                  (* replay compatible journals first *)
  oracle_cache : Oracle.Cache.t option;   (* private memo; default global *)
  (* incremental re-debloating (both off by default — with no baseline and
     no manifest to write, stage 3 computes no search digests) *)
  baseline : Manifest.t option;           (* previous run's manifest *)
  manifest_path : string option;          (* write this run's manifest here *)
}

let default_options =
  { k = 20;
    scoring = Scoring.Combined;
    journal_dir = None;
    resume = false;
    oracle_cache = None;
    baseline = None;
    manifest_path = None }

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
  ranked : string list;               (* top-K module names, best first *)
  module_results : Debloater.module_result list;
  debloat_wall_s : float;             (* host wall-clock spent debloating *)
  total_oracle_queries : int;
  caches : cache_stats;               (* cache traffic during this run *)
  quarantined_tests : int;            (* always 0: see pipeline.mli *)
  (* incremental accounting (empty/zero on non-incremental runs) *)
  manifest : Manifest.t option;       (* this run's manifest, when requested *)
  replayed_modules : string list;     (* digest-unchanged, zero queries *)
  warm_seeded : int;                  (* modules warm-started from baseline *)
  warm_seed_hits : int;               (* warm starts whose seed passed *)
}

let src = Logs.Src.create "lambda-trim" ~doc:"lambda-trim pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

let pp_cache_stats ppf c =
  Fmt.pf ppf "parse cache %d hits / %d misses, oracle memo %d hits / %d misses"
    c.parse_hits c.parse_misses c.oracle_hits c.oracle_misses

(* Snapshot the parse cache and the run's observation memo [oc] around [f]
   so the report shows this run's own traffic even when the caches are
   shared across runs. *)
let with_cache_stats oc f =
  let pc = Minipy.Parse_cache.global in
  let ph0 = Minipy.Parse_cache.hits pc
  and pm0 = Minipy.Parse_cache.misses pc
  and oh0 = Oracle.Cache.hits oc
  and om0 = Oracle.Cache.misses oc in
  let result = f () in
  ( result,
    { parse_hits = Minipy.Parse_cache.hits pc - ph0;
      parse_misses = Minipy.Parse_cache.misses pc - pm0;
      oracle_hits = Oracle.Cache.hits oc - oh0;
      oracle_misses = Oracle.Cache.misses oc - om0 } )

(* Pipeline stages have no virtual timeline, so their spans are
   wall-clock spans ([Obs.Span.wall]) on the lane of the domain running the
   pipeline. Each category names the layer the span's self time counts
   toward in the `--trace` layer table; these are the layers every run
   has, in pipeline order (the oracle's queries split by their "layer"
   attribute, see [Debloater]). *)
let layers =
  [ "static_analysis"; "profile"; "oracle.reference"; "profile.reads";
    "oracle.exec"; "oracle.hit"; "dd"; "pipeline" ]

(* Journal spec for this run: explicit options win, else the process-wide
   configuration the CLI installs (how `ltrim experiments --journal` reaches
   runs whose pipeline options the registry builds internally). One
   subdirectory per (app, scoring, k) keeps concurrent runs and re-runs
   with different settings from replaying each other's journals. *)
let journal_spec options (app : Platform.Deployment.t) =
  let dir, resume =
    match (options.journal_dir, Journal.configured ()) with
    | Some d, _ -> (Some d, options.resume)
    | None, Some c ->
      (Some c.Journal.journal_dir, c.Journal.journal_resume || options.resume)
    | None, None -> (None, false)
  in
  match dir with
  | None -> None
  | Some dir ->
    let sub =
      Printf.sprintf "%s-%s-k%d" app.Platform.Deployment.name
        (Scoring.method_name options.scoring)
        options.k
    in
    let jdir = Filename.concat dir sub in
    Durable_log.mkdir_p jdir;
    Some { Journal.journal_dir = jdir; journal_resume = resume }

(* Stage 3's one step: debloat [module_name] in [d], the input app with
   every earlier-ranked module already trimmed. With [incremental] the
   search also computes its digest and consults the [baseline] manifest
   (replay, warm start or fresh); otherwise it is a fresh search and skips
   the digest, which no one would read. *)
let debloat_step ~options ~analysis ~oracle ~journal ~incremental ~baseline d
    module_name =
  let oracle_cache = options.oracle_cache in
  let protected = Static_analyzer.protected_attrs analysis ~module_name in
  if incremental then
    let entry =
      Option.bind baseline (fun m -> Manifest.find_module m module_name)
    in
    let d', r, kind, digest =
      Debloater.debloat_module_incremental ?oracle_cache ?journal ~oracle
        ~protected ~baseline:entry d ~module_name
    in
    (d', (r, kind, digest))
  else
    let d', r =
      Debloater.debloat_module ?oracle_cache ?journal ~oracle ~protected d
        ~module_name
    in
    (d', (r, Debloater.Fresh, ""))

(* This run's manifest: every ranked module's search digest and outcome. *)
let manifest_of ~options ~app ~optimized ~ranked entries =
  { Manifest.mf_app = app.Platform.Deployment.name;
    mf_backend = Minipy.Interp.engine_tag;
    mf_variant = Minipy.Interp.lazy_config_of_vfs app.Platform.Deployment.vfs;
    mf_scoring = Scoring.method_name options.scoring;
    mf_k = options.k;
    mf_input_digest = Platform.Deployment.image_digest app;
    mf_output_digest = Platform.Deployment.image_digest optimized;
    mf_ranked = ranked;
    mf_modules =
      List.map2
        (fun m ((r : Debloater.module_result), _, digest) ->
           { Manifest.me_module = m;
             me_file = r.Debloater.dm_file;
             me_digest = digest;
             me_removed = r.Debloater.removed_attrs;
             me_queries = r.Debloater.oracle_queries;
             me_cache_hits = r.Debloater.cache_hits;
             me_iterations = r.Debloater.dd_iterations })
        ranked entries }

let run ?(options = default_options) ?(jobs = 1)
    (app : Platform.Deployment.t) : report =
  if jobs < 1 then invalid_arg "Pipeline.run: jobs < 1";
  (* A baseline for a different app is operator error; ignore it rather
     than let [find_module] silently miss every entry. *)
  let baseline =
    match options.baseline with
    | Some m when String.equal m.Manifest.mf_app app.Platform.Deployment.name
      ->
      Some m
    | _ -> None
  in
  (* search digests are computed only when a baseline or a manifest reads
     them *)
  let incremental = baseline <> None || options.manifest_path <> None in
  let memo = Option.value options.oracle_cache ~default:Oracle.Cache.global in
  let wall_start = Unix.gettimeofday () in
  let (analysis, profile, ranked, optimized, entries, manifest), caches =
    with_cache_stats memo (fun () ->
        Obs.Span.wall ~cat:"pipeline" ~name:"pipeline:run" (fun () ->
        (* Stage 1: static analysis *)
        let analysis =
          Obs.Span.wall ~cat:"static_analysis" ~name:"phase:static_analysis"
            (fun () -> Static_analyzer.analyze app)
        in
        Log.info (fun m ->
            m "static analysis: %d imported roots"
              (List.length analysis.Static_analyzer.imported_roots));
        (* Stage 2: profiling + top-K ranking by marginal monetary cost *)
        let profile, ranked =
          Obs.Span.wall ~cat:"profile" ~name:"phase:profile" (fun () ->
              let profile = Profiler.profile app in
              let top = Scoring.top_k options.scoring profile ~k:options.k in
              (profile, List.map (fun mp -> mp.Profiler.mp_name) top))
        in
        Log.info (fun m -> m "profiler ranked top-%d: %s" options.k
                     (String.concat ", " ranked));
        (* Stage 3: DD-based debloating, module by module in rank order
           (Algorithm 1 per module, §5.3). The oracle's reference
           observation comes from the *input* app and stays fixed; each
           module is debloated against the deployment produced so far, so
           later modules see earlier trims. *)
        let optimized, entries =
          Obs.Span.wall ~cat:"dd" ~name:"phase:debloat" (fun () ->
              let journal = journal_spec options app in
              let oracle, _expected =
                Obs.Span.wall ~cat:"oracle.reference" ~name:"oracle:reference"
                  (fun () ->
                     Oracle.for_reference ?cache:options.oracle_cache app)
              in
              let step =
                debloat_step ~options ~analysis ~oracle ~journal ~incremental
                  ~baseline
              in
              let optimized, entries =
                List.fold_left
                  (fun (d, entries) module_name ->
                     let d', ((r, _, _) as entry) = step d module_name in
                     Log.info (fun m -> m "%a" Debloater.pp_module_result r);
                     (d', entry :: entries))
                  (app, []) ranked
              in
              (optimized, List.rev entries))
        in
        let manifest =
          if not incremental then None
          else Some (manifest_of ~options ~app ~optimized ~ranked entries)
        in
        (match (options.manifest_path, manifest) with
         | Some path, Some m -> Manifest.save ~path m
         | _ -> ());
        (analysis, profile, ranked, optimized, entries, manifest)))
  in
  let module_results = List.map (fun (r, _, _) -> r) entries in
  let replayed_modules =
    List.filter_map
      (fun ((r : Debloater.module_result), kind, _) ->
         match kind with
         | Debloater.Replayed -> Some r.Debloater.dm_module
         | _ -> None)
      entries
  in
  let warm_seeded, warm_seed_hits =
    List.fold_left
      (fun (s, h) (_, kind, _) ->
         match kind with
         | Debloater.Seeded hit -> (s + 1, if hit then h + 1 else h)
         | _ -> (s, h))
      (0, 0) entries
  in
  { app_name = app.Platform.Deployment.name;
    original = app;
    optimized;
    analysis;
    profile;
    ranked;
    module_results;
    debloat_wall_s = Unix.gettimeofday () -. wall_start;
    total_oracle_queries =
      List.fold_left (fun acc r -> acc + r.Debloater.oracle_queries) 0
        module_results;
    caches;
    quarantined_tests = 0;
    manifest;
    replayed_modules;
    warm_seeded;
    warm_seed_hits }

(* Total attributes removed across all debloated modules. *)
let attrs_removed (r : report) =
  List.fold_left
    (fun acc m -> acc + List.length m.Debloater.removed_attrs)
    0 r.module_results

(* The module with the largest attribute count — Table 3's "example module"
   column picks a representative this way. *)
let representative_module (r : report) : Debloater.module_result option =
  List.fold_left
    (fun best m ->
       match best with
       | None -> Some m
       | Some b ->
         if m.Debloater.attrs_before > b.Debloater.attrs_before then Some m
         else best)
    None r.module_results
