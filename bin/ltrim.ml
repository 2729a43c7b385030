(* lambda-trim command-line interface.

   Drives the pipeline against the synthesized benchmark suite:

     ltrim list                          enumerate applications
     ltrim analyze <app>                 static analysis (imports, PyCG)
     ltrim profile <app>                 per-module marginal costs + ranking
     ltrim debloat <app> [-k N] [-s M]   run the full pipeline
     ltrim invoke <app> [--trimmed]      cold+warm invocation on the simulator
     ltrim fleet <app> [--rate R] ...    multi-instance fleet simulation
     ltrim experiments [-o ID]           regenerate paper tables/figures *)

open Cmdliner

(* Print a usage error on stderr and exit 2. *)
let usage_error fmt = Printf.kfprintf (fun _ -> exit 2) stderr fmt

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

(* Application names parse against the suite, so an unknown name is a
   usage error (exit 124) that lists the known apps. *)
let app_conv = Arg.enum (List.map (fun n -> (n, n)) Workloads.Suite.names)

let app_arg =
  let doc = "Application name (see `ltrim list`)." in
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc)

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose pipeline logging.")

let k_arg =
  Arg.(value & opt int 20 & info [ "k" ] ~docv:"K"
         ~doc:"Number of top-ranked modules to debloat (default 20).")

let check_k k = if k < 1 then usage_error "-k must be >= 1 (got %d)\n" k

(* Scoring methods parse like app names: an unknown one is a usage error
   that lists the methods. *)
let scoring_arg =
  let methods =
    List.map
      (fun m -> (Trim.Scoring.method_name m, m))
      Trim.Scoring.[ Combined; Time; Memory; Random 42 ]
  in
  let doc = "Scoring method: combined, time, memory, or random." in
  Arg.(value & opt (enum methods) Trim.Scoring.Combined
       & info [ "s"; "scoring" ] ~docv:"METHOD" ~doc)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace-event JSON of the run to FILE \
                 (load it in chrome://tracing or Perfetto).")

let jobs_arg =
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains the apps (and fleet shards) fan out over \
                 (default: this machine's recommended domain count); each \
                 app's pipeline runs sequentially. Committed results are \
                 bit-identical at any N; only wall-clock columns change.")

let optimizer_conv =
  let parse s =
    match Trim.Optimizer.of_string s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf
                     "unknown optimizer %S (expected dd, lazy, combined, or \
                      none)" s))
  in
  let print ppf v = Format.pp_print_string ppf (Trim.Optimizer.to_string v) in
  Arg.conv (parse, print)

let optimizer_arg =
  Arg.(value & opt optimizer_conv Trim.Optimizer.Dd
       & info [ "optimizer" ] ~docv:"FAMILY"
           ~doc:"Optimizer family: $(b,dd) (λ-trim attribute debloating, \
                 the default), $(b,lazy) (profile-guided lazy loading — \
                 removes nothing, defers import work off the cold path), \
                 $(b,combined) (lazy loading over the DD-trimmed image), or \
                 $(b,none) (deploy the original untouched).")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"DIR"
           ~doc:"Record every DD verdict in per-module journals under DIR so \
                 a killed run can be resumed bit-identically with \
                 $(b,--resume).")

let resume_flag =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Replay compatible journals found under --journal before \
               querying the oracle. A journal written for another app \
               revision or options is safely discarded.")

let memo_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "memo-dir" ] ~docv:"DIR"
           ~doc:"Persist oracle observations in DIR/observations.memo \
                 beneath the in-memory memo: observations survive process \
                 restarts and are shared across apps and revisions (keys \
                 are content-addressed, so entries never go stale). \
                 Corrupt or torn tails are discarded on load, never \
                 replayed. Observations are the same values a fresh \
                 execution would produce, so results are byte-identical \
                 with or without the store.")

let baseline_arg =
  Arg.(value & opt (some string) None
       & info [ "baseline" ] ~docv:"MANIFEST"
           ~doc:"Re-debloat incrementally against a previous run's manifest \
                 (see $(b,--manifest)): modules whose reachable-image \
                 digest is unchanged replay their recorded keep-set with \
                 zero oracle queries; changed modules warm-start DD from \
                 the recorded keep-set. Keep-sets are bit-identical to a \
                 cold run's. A missing or corrupt manifest falls back to a \
                 cold run.")

let manifest_arg =
  Arg.(value & opt (some string) None
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write this run's manifest (per-module search digests, \
                 keep-sets, ranking) to FILE for a later \
                 $(b,--baseline).")

(* Another ltrim process holds this memo store or journal: say so on one
   line instead of a backtrace. *)
let fail_locked path =
  Printf.eprintf "ltrim: %s is locked by another process\n%!" path;
  exit 1

(* Create a directory flag's DIR (and its parents) before any work, so a
   DIR that names a regular file is a usage error, not a backtrace. *)
let ensure_dir dir =
  try Trim.Durable_log.mkdir_p dir with
  | Invalid_argument _ -> usage_error "ltrim: %s is not a directory\n%!" dir
  | Unix.Unix_error (e, _, _) ->
    usage_error "ltrim: cannot create %s: %s\n%!" dir (Unix.error_message e)

(* Install the persistent memo under the global observation cache. Call
   before any work, like [setup_jobs]. *)
let setup_memo memo_dir =
  match memo_dir with
  | None -> ()
  | Some dir ->
    ensure_dir dir;
    let store =
      try Trim.Memo_store.open_ ~dir
      with Trim.Durable_log.Locked path -> fail_locked path
    in
    Trim.Oracle.Cache.attach_store Trim.Oracle.Cache.global (Some store);
    at_exit (fun () -> Trim.Memo_store.close store)

let load_baseline = function
  | None -> None
  | Some path ->
    (match Trim.Manifest.load ~path with
     | Some m -> Some m
     | None ->
       Printf.eprintf
         "baseline %s is missing or invalid; running cold\n%!" path;
       None)

(* Install the process-wide pool the experiment registry, redebloat and
   the sharded fleet fan out on. Call before any work; the pool is torn
   down at exit. *)
let setup_jobs jobs =
  if jobs < 1 then usage_error "--jobs must be >= 1 (got %d)\n" jobs;
  Parallel.Pool.configure ~jobs

(* Arm the chaos harness from LTRIM_CHAOS_KILL_AFTER and turn a chaos kill
   into a distinct exit status the CI smoke steps assert on, and a journal
   another process holds into [fail_locked]. Wraps outside [with_trace] so
   a killed run still exports its partial trace. *)
let with_chaos f =
  (try Trim.Chaos.arm_from_env () with
   | Invalid_argument msg -> usage_error "%s\n" msg);
  try f () with
  | Trim.Chaos.Killed { killed_after } ->
    Printf.eprintf
      "chaos: killed after journal record %d (resume with --resume)\n%!"
      killed_after;
    exit 70
  | Trim.Durable_log.Locked path -> fail_locked path

(* Install a recording tracer around [f] and export it on the way out —
   also on failure, so a crashed run still leaves its partial trace — then
   print the wall-clock self time by layer. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let sink = Obs.Span.recorder () in
    Obs.Span.install sink;
    Fun.protect
      ~finally:(fun () ->
          Obs.Span.install Obs.Span.null;
          Obs.Export.to_file ~path
            (Obs.Export.chrome_json ~metrics:Obs.Metrics.global sink);
          Printf.eprintf "trace: %d spans written to %s\n%s%!"
            (List.length (Obs.Span.spans sink))
            path
            (Obs.Export.layer_table ~known:Trim.Pipeline.layers sink))
      f

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Workloads.Apps.spec) ->
         Printf.printf "%-18s %-12s libs: %s\n" s.Workloads.Apps.name
           s.Workloads.Apps.origin
           (String.concat ", "
              (List.map
                 (fun l -> l.Workloads.Libspec.l_name)
                 s.Workloads.Apps.libs)))
      Workloads.Apps.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark applications.")
    Term.(const run $ const ())

(* --- analyze ------------------------------------------------------------- *)

let analyze_cmd =
  let run app =
    let d = Workloads.Suite.deployment_of app in
    let a = Trim.Static_analyzer.analyze d in
    Printf.printf "Application: %s\n" app;
    Printf.printf "Imported root modules: %s\n"
      (String.concat ", " a.Trim.Static_analyzer.imported_roots);
    Printf.printf "Imported dotted paths: %s\n"
      (String.concat ", " a.Trim.Static_analyzer.imported_dotted);
    List.iter
      (fun root ->
         let protected =
           Trim.Static_analyzer.protected_attrs a ~module_name:root
         in
         Printf.printf "PyCG-protected attrs of %s: %s\n" root
           (String.concat ", "
              (Trim.Static_analyzer.String_set.elements protected)))
      a.Trim.Static_analyzer.imported_roots
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Run the static analyzer on an application.")
    Term.(const run $ app_arg)

(* --- profile ------------------------------------------------------------- *)

let profile_cmd =
  let run app method_ =
    let d = Workloads.Suite.deployment_of app in
    let p = Trim.Profiler.profile d in
    Printf.printf "Function Initialization: T = %.2f ms, M = %.2f MB\n\n"
      p.Trim.Profiler.total_ms p.Trim.Profiler.total_mb;
    Printf.printf "%-28s %10s %10s %12s\n" "module" "t (ms)" "m (MB)"
      "marginal $¢";
    List.iter
      (fun (mp : Trim.Profiler.module_profile) ->
         Printf.printf "%-28s %10.2f %10.2f %12.1f\n" mp.Trim.Profiler.mp_name
           mp.Trim.Profiler.mp_incl_ms mp.Trim.Profiler.mp_incl_mb
           (Trim.Scoring.score Trim.Scoring.Combined ~result:p mp))
      (Trim.Scoring.rank method_ p)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile per-module marginal import time/memory and rank them.")
    Term.(const run $ app_arg $ scoring_arg)

(* --- debloat ------------------------------------------------------------- *)

let debloat_cmd =
  let run app k method_ verbose trace optimizer journal resume memo_dir
      baseline_path manifest_path =
    check_k k;
    Option.iter ensure_dir journal;
    setup_memo memo_dir;
    with_chaos @@ fun () ->
    with_trace trace @@ fun () ->
    setup_logs verbose;
    let baseline = load_baseline baseline_path in
    let d = Workloads.Suite.deployment_of app in
    let o =
      Trim.Optimizer.run
        ~options:{ Trim.Pipeline.default_options with
                   k; scoring = method_;
                   journal_dir = journal; resume;
                   baseline; manifest_path }
        optimizer d
    in
    (match o.Trim.Optimizer.o_dd with
     | None -> ()
     | Some r ->
       Printf.printf "Debloated %s in %.2f s (%d oracle queries)\n" app
         r.Trim.Pipeline.debloat_wall_s r.Trim.Pipeline.total_oracle_queries;
       Printf.printf "Caches: %s\n"
         (Fmt.str "%a" Trim.Pipeline.pp_cache_stats r.Trim.Pipeline.caches);
       if baseline <> None then
         Printf.printf
           "Incremental: %d/%d modules replayed from baseline, %d \
            warm-started (%d seed hits)\n"
           (List.length r.Trim.Pipeline.replayed_modules)
           (List.length r.Trim.Pipeline.module_results)
           r.Trim.Pipeline.warm_seeded r.Trim.Pipeline.warm_seed_hits;
       List.iter
         (fun m ->
            Printf.printf "  %s\n"
              (Fmt.str "%a" Trim.Debloater.pp_module_result m))
         r.Trim.Pipeline.module_results);
    (match o.Trim.Optimizer.o_lazy with
     | None -> ()
     | Some lz ->
       Printf.printf
         "Lazified %d import root%s (%s); deferred ~%.2f ms / %.2f MB of \
          init off the cold path%s\n"
         (List.length lz.Trim.Lazy_loader.lz_lazified)
         (if List.length lz.Trim.Lazy_loader.lz_lazified = 1 then "" else "s")
         (String.concat ", " lz.Trim.Lazy_loader.lz_lazified)
         lz.Trim.Lazy_loader.lz_deferred_ms lz.Trim.Lazy_loader.lz_deferred_mb
         (if lz.Trim.Lazy_loader.lz_validated then ""
          else " [validation failed; original kept]"));
    let before = Common_measure.cold d in
    let after = Common_measure.cold o.Trim.Optimizer.o_deployment in
    Common_measure.print_comparison ~before ~after
  in
  Cmd.v
    (Cmd.info "debloat"
       ~doc:"Optimize an application: run the selected $(b,--optimizer) \
             family (λ-trim DD debloating by default).")
    Term.(const run $ app_arg $ k_arg $ scoring_arg $ verbose_flag
          $ trace_arg $ optimizer_arg $ journal_arg $ resume_flag
          $ memo_dir_arg $ baseline_arg $ manifest_arg)

(* --- invoke -------------------------------------------------------------- *)

let invoke_cmd =
  let trimmed_flag =
    Arg.(value & flag & info [ "trimmed" ]
           ~doc:"Invoke the optimized application (per $(b,--optimizer)).")
  in
  let print_record (r : Platform.Lambda_sim.record) =
    Printf.printf
      "%s start: e2e %.1f ms (init %.1f, exec %.1f), billed %.0f ms, \
       %.1f MB, $%.3e\n"
      (Platform.Lambda_sim.start_kind_name r.Platform.Lambda_sim.kind)
      r.Platform.Lambda_sim.e2e_ms r.Platform.Lambda_sim.init_ms
      r.Platform.Lambda_sim.exec_ms r.Platform.Lambda_sim.billed_ms
      r.Platform.Lambda_sim.peak_memory_mb r.Platform.Lambda_sim.cost;
    print_string r.Platform.Lambda_sim.stdout
  in
  let run app trimmed trace optimizer =
    with_trace trace @@ fun () ->
    let spec = Workloads.Suite.spec_of app in
    let d = Workloads.Suite.deployment_of app in
    let d =
      if trimmed then
        (Trim.Optimizer.run optimizer d).Trim.Optimizer.o_deployment
      else d
    in
    let event = Experiments.Common.first_event spec in
    let sim = Platform.Lambda_sim.create d in
    let cold, warm = Platform.Lambda_sim.measure_cold_and_warm ~event sim in
    List.iter print_record [ cold; warm ]
  in
  Cmd.v
    (Cmd.info "invoke" ~doc:"Invoke an application on the platform simulator.")
    Term.(const run $ app_arg $ trimmed_flag $ trace_arg $ optimizer_arg)

(* --- fleet ---------------------------------------------------------------- *)

let fleet_cmd =
  let rate_arg =
    Arg.(value & opt float 1.0 & info [ "r"; "rate" ] ~docv:"REQ_PER_S"
           ~doc:"Poisson arrival rate in requests per second (default 1).")
  in
  let duration_arg =
    Arg.(value & opt float 1800.0 & info [ "d"; "duration" ] ~docv:"SECONDS"
           ~doc:"Trace duration in seconds (default 1800).")
  in
  (* an unknown policy is a usage error that lists the policies *)
  let policy_arg =
    let policies =
      [ ("fixed", `Fixed); ("lru", `Lru); ("adaptive", `Adaptive) ]
    in
    Arg.(value & opt (enum policies) `Fixed & info [ "p"; "policy" ]
           ~docv:"POLICY" ~doc:"Eviction policy: fixed, lru, or adaptive.")
  in
  let keep_alive_arg =
    Arg.(value & opt float 600.0 & info [ "keep-alive" ] ~docv:"SECONDS"
           ~doc:"Keep-alive TTL for fixed/lru policies (default 600).")
  in
  let max_idle_arg =
    Arg.(value & opt int 4 & info [ "max-idle" ] ~docv:"N"
           ~doc:"Idle-instance cap for the lru policy (default 4).")
  in
  let capacity_arg =
    Arg.(value & opt int 0 & info [ "capacity" ] ~docv:"N"
           ~doc:"Concurrency cap on live instances; 0 means unbounded \
                 (default 0).")
  in
  let max_pending_arg =
    Arg.(value & opt int 1024 & info [ "max-pending" ] ~docv:"N"
           ~doc:"Pending-queue bound (default 1024).")
  in
  let timeout_arg =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Pending-request timeout (default 60).")
  in
  let fb_rate_arg =
    Arg.(value & opt float 0.01 & info [ "fb-rate" ] ~docv:"FRACTION"
           ~doc:"Fraction of trimmed requests hitting removed code and \
                 falling back to the original image (default 0.01).")
  in
  let seed_arg =
    Arg.(value & opt int 2025 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Trace and fallback-draw seed (default 2025).")
  in
  let tenants_arg =
    Arg.(value & opt int 1 & info [ "tenants" ] ~docv:"N"
           ~doc:"Replicate the app as N independent tenants (per-tenant \
                 trace/fallback seeds) and route them through the sharded \
                 fleet engine, merging per-variant reports (default 1 = \
                 classic single-tenant run).")
  in
  let run app rate duration policy keep_alive max_idle capacity max_pending
      timeout fb_rate seed tenants jobs trace =
    setup_jobs jobs;
    with_trace trace @@ fun () ->
    if not (Float.is_finite rate && rate > 0.0) then
      usage_error "--rate must be finite and positive (got %g)\n" rate;
    List.iter
      (fun (name, x) ->
         if not (Float.is_finite x && x >= 0.0) then
           usage_error "--%s must be finite and non-negative (got %g)\n" name x)
      [ ("duration", duration); ("keep-alive", keep_alive) ];
    List.iter
      (fun (name, n) ->
         if n < 0 then
           usage_error "--%s must be non-negative (got %d)\n" name n)
      [ ("max-idle", max_idle); ("capacity", capacity);
        ("max-pending", max_pending) ];
    if not (timeout >= 0.0) then
      usage_error "--timeout must be non-negative (got %g)\n" timeout;
    if not (fb_rate >= 0.0 && fb_rate <= 1.0) then
      usage_error "--fb-rate must be in [0, 1] (got %g)\n" fb_rate;
    if tenants < 1 then usage_error "--tenants must be >= 1 (got %d)\n" tenants;
    let pol =
      match policy with
      | `Fixed -> Fleet.Pool.Fixed_ttl { keep_alive_s = keep_alive }
      | `Lru -> Fleet.Pool.Lru { keep_alive_s = keep_alive; max_idle }
      | `Adaptive ->
        Fleet.Pool.Adaptive
          { min_s = 60.0; max_s = keep_alive; percentile = 99.0 }
    in
    let d = Workloads.Suite.deployment_of app in
    let report = Trim.Pipeline.run d in
    let original = Fleet.Scenario.profile_of_deployment d in
    let trimmed =
      Fleet.Scenario.profile_of_deployment report.Trim.Pipeline.optimized
    in
    let original_cfg =
      { (Fleet.Router.default_config ~profile:original pol) with
        Fleet.Router.max_instances =
          (if capacity = 0 then max_int else capacity);
        max_pending;
        pending_timeout_s = timeout }
    in
    (* A tenant's (original, trimmed) configs; only the trimmed
       deployment's fallback draw depends on the tenant seed. *)
    let configs tseed =
      ( original_cfg,
        { original_cfg with
          Fleet.Router.profile = trimmed;
          fallback =
            (if fb_rate > 0.0 then
               Some
                 (Fleet.Scenario.fallback ~rate:fb_rate
                    ~seed:(tseed + 1) ~original ())
             else None) } )
    in
    let print_rows rows =
      print_endline Fleet.Report.table_header;
      List.iter (fun s -> print_endline (Fleet.Report.table_row s)) rows
    in
    if tenants > 1 then begin
      (* tenant i replays the app on its own seed stream; tenant 0 is the
         single-tenant run *)
      let apps =
        List.init tenants (fun i ->
            let tseed = seed + (7919 * i) in
            let original_cfg, trimmed_cfg = configs tseed in
            { Fleet.Sharded.app_id = i;
              app_trace =
                (fun () ->
                   Platform.Trace.poisson ~seed:tseed
                     ~rate_per_s:rate ~duration_s:duration
                     ~name:(Printf.sprintf "tenant-%d" i));
              app_variants =
                [ { Fleet.Sharded.v_group = "original"; v_cfg = original_cfg };
                  { Fleet.Sharded.v_group = "trimmed"; v_cfg = trimmed_cfg } ] })
      in
      let groups = Fleet.Sharded.run apps in
      Printf.printf
        "Fleet: %s x %d tenants, poisson %g req/s each for %g s (seed %d), \
         policy %s, %d shard(s)\n\n"
        app tenants rate duration seed (Fleet.Pool.policy_name pol)
        (Fleet.Sharded.shard_count ());
      print_rows
        (List.map (fun (g : Fleet.Sharded.group) -> g.Fleet.Sharded.g_summary)
           groups)
    end else begin
      let trace =
        Platform.Trace.poisson ~seed ~rate_per_s:rate ~duration_s:duration
          ~name:(Printf.sprintf "poisson-%g" rate)
      in
      let simulate label cfg =
        Fleet.Report.summarize ~label cfg (Fleet.Router.run cfg trace)
      in
      let original_cfg, trimmed_cfg = configs seed in
      Printf.printf
        "Fleet: %s, poisson %g req/s for %g s (seed %d), policy %s\n\n" app
        rate duration seed (Fleet.Pool.policy_name pol);
      (* bound first so the original runs (and traces) before the trimmed *)
      let original_row = simulate "original" original_cfg in
      print_rows [ original_row; simulate "trimmed" trimmed_cfg ]
    end
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate a fleet of instances serving an arrival trace, \
             original vs lambda-trim-optimized.")
    Term.(const run $ app_arg $ rate_arg $ duration_arg $ policy_arg
          $ keep_alive_arg $ max_idle_arg $ capacity_arg $ max_pending_arg
          $ timeout_arg $ fb_rate_arg $ seed_arg $ tenants_arg $ jobs_arg
          $ trace_arg)

(* --- calibrate ------------------------------------------------------------ *)

(* Check every synthesized application against its paper metrics: the
   workload generator is supposed to land within tolerance of Table 1. *)
let calibrate_cmd =
  let run () =
    Printf.printf "%-18s %22s %22s %22s %s\n" "" "size MB (ours/ppr)"
      "import s (ours/ppr)" "e2e s (ours/ppr)" "status";
    let failures = ref 0 in
    List.iter
      (fun (spec : Workloads.Apps.spec) ->
         let d = Workloads.Codegen.deployment spec in
         let sim =
           Platform.Lambda_sim.create ~params:Experiments.Common.table1_params d
         in
         let event = Experiments.Common.first_event spec in
         let cold, _ = Platform.Lambda_sim.measure_cold_and_warm ~event sim in
         let p = spec.Workloads.Apps.paper in
         let size = Platform.Deployment.image_mb d in
         let import_s = cold.Platform.Lambda_sim.init_ms /. 1000.0 in
         let e2e_s = cold.Platform.Lambda_sim.e2e_ms /. 1000.0 in
         let within tol a b = Float.abs (a -. b) <= tol *. b in
         (* size and import are generator-controlled and checked strictly;
            E2E is informational — the paper's per-app platform overheads
            (instance assignment, image caching) are not modelled per app *)
         let ok =
           within 0.05 size p.Workloads.Apps.p_size_mb
           && within 0.30 import_s p.Workloads.Apps.p_import_s
         in
         if not ok then incr failures;
         Printf.printf "%-18s %10.1f /%9.1f %10.2f /%9.2f %10.2f /%9.2f %s\n"
           spec.Workloads.Apps.name size p.Workloads.Apps.p_size_mb import_s
           p.Workloads.Apps.p_import_s e2e_s p.Workloads.Apps.p_e2e_s
           (if ok then "ok" else "OUT OF BAND"))
      Workloads.Apps.all;
    if !failures > 0 then begin
      Printf.printf "%d applications out of calibration band\n" !failures;
      exit 1
    end
    else print_endline "all applications within calibration bands"
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Check every synthesized app against its Table-1 paper metrics.")
    Term.(const run $ const ())

(* --- experiments ---------------------------------------------------------- *)

let experiments_cmd =
  let only_arg =
    let entries =
      List.map
        (fun (e : Experiments.Registry.entry) -> (e.Experiments.Registry.id, e))
        Experiments.Registry.all
    in
    Arg.(value & opt_all (enum entries) []
         & info [ "o"; "only" ] ~docv:"ID"
             ~doc:("Run only this experiment (repeatable). IDs: "
                   ^ String.concat " " Experiments.Registry.ids ^ "."))
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Also write each experiment's output to DIR/<id>.txt.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR"
             ~doc:"Write machine-readable rows to DIR/<id>.csv (experiments \
                   with structured data only).")
  in
  let run only out csv jobs trace journal resume memo_dir =
    (* committed experiments that exercise the oracle memo create private
       caches; attaching a store to the global memo only accelerates
       wall-clock, so committed CSVs stay byte-identical either way *)
    setup_memo memo_dir;
    setup_jobs jobs;
    Option.iter ensure_dir out;
    Option.iter ensure_dir csv;
    Option.iter ensure_dir journal;
    (* experiments build their pipelines internally; the process-wide spec
       is how --journal/--resume reach those runs *)
    Trim.Journal.configure ~dir:journal ~resume;
    with_chaos @@ fun () ->
    with_trace trace @@ fun () ->
    let entries = if only = [] then Experiments.Registry.all else only in
    let write dir name contents =
      (* atomic: a crash mid-export never leaves a torn result file *)
      Trim.Durable_log.write_file_atomic ~path:(Filename.concat dir name)
        contents
    in
    List.iter
      (fun (e : Experiments.Registry.entry) ->
         let text = e.Experiments.Registry.print () in
         print_string text;
         (match out with
          | Some dir -> write dir (e.Experiments.Registry.id ^ ".txt") text
          | None -> ());
         match csv, e.Experiments.Registry.csv with
         | Some dir, Some rows ->
           (* filenames use underscores (e.g. trace-replay ->
              trace_replay.csv) so ids stay CLI-friendly and files
              plot-tool-friendly *)
           let file =
             String.map
               (fun c -> if c = '-' then '_' else c)
               e.Experiments.Registry.id
           in
           write dir (file ^ ".csv") (rows ())
         | _ -> ())
      entries;
    (* machine-greppable caching-substrate summary (the CI smoke step checks
       oracle_hits > 0); virtual results never depend on cache traffic *)
    Printf.printf
      "cache-stats: parse_hits=%d parse_misses=%d oracle_hits=%d \
       oracle_misses=%d\n"
      (Minipy.Parse_cache.hits Minipy.Parse_cache.global)
      (Minipy.Parse_cache.misses Minipy.Parse_cache.global)
      (Trim.Oracle.Cache.hits Trim.Oracle.Cache.global)
      (Trim.Oracle.Cache.misses Trim.Oracle.Cache.global)
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures on the simulator.")
    Term.(const run $ only_arg $ out_arg $ csv_arg $ jobs_arg $ trace_arg
          $ journal_arg $ resume_flag $ memo_dir_arg)

(* --- redebloat ------------------------------------------------------------ *)

(* Incremental fleet re-debloating: every app keeps a manifest under
   --state; runs with a manifest replay unchanged modules and warm-start
   changed ones, runs without one are cold and just prime the state. *)
let redebloat_cmd =
  let apps_arg =
    Arg.(value & pos_all app_conv []
         & info [] ~docv:"APP"
             ~doc:"Applications to re-debloat (default: every synthesized \
                   app).")
  in
  let state_arg =
    Arg.(required & opt (some string) None
         & info [ "state" ] ~docv:"DIR"
             ~doc:"Manifest directory: <DIR>/<app>.manifest is read as the \
                   baseline (when present) and rewritten after each run.")
  in
  let run apps state k method_ verbose jobs trace memo_dir =
    check_k k;
    setup_jobs jobs;
    ensure_dir state;
    setup_memo memo_dir;
    with_trace trace @@ fun () ->
    setup_logs verbose;
    let apps = if apps = [] then Workloads.Suite.names else apps in
    let job app =
      let path = Filename.concat state (app ^ ".manifest") in
      let baseline = Trim.Manifest.load ~path in
      let d = Workloads.Suite.deployment_of app in
      let r =
        Trim.Pipeline.run
          ~options:{ Trim.Pipeline.default_options with
                     k; scoring = method_;
                     baseline; manifest_path = Some path }
          d
      in
      (app, baseline <> None, r)
    in
    (* the apps fan out over the configured pool; each pipeline is one
       sequential fold *)
    let rows = Parallel.Pool.map_default job apps in
    Printf.printf "%-18s %5s %10s %7s %10s %8s %9s\n" "app" "mode" "replayed"
      "seeded" "seed-hits" "queries" "wall-s";
    let t_queries = ref 0 and t_replayed = ref 0 and t_mods = ref 0 in
    List.iter
      (fun (app, warm, (r : Trim.Pipeline.report)) ->
         let modules = List.length r.Trim.Pipeline.module_results in
         let replayed = List.length r.Trim.Pipeline.replayed_modules in
         t_queries := !t_queries + r.Trim.Pipeline.total_oracle_queries;
         t_replayed := !t_replayed + replayed;
         t_mods := !t_mods + modules;
         Printf.printf "%-18s %5s %7d/%2d %7d %10d %8d %9.2f\n" app
           (if warm then "warm" else "cold") replayed modules
           r.Trim.Pipeline.warm_seeded r.Trim.Pipeline.warm_seed_hits
           r.Trim.Pipeline.total_oracle_queries
           r.Trim.Pipeline.debloat_wall_s)
      rows;
    Printf.printf
      "Total: %d/%d modules replayed, %d oracle queries across %d apps\n"
      !t_replayed !t_mods !t_queries (List.length rows)
  in
  Cmd.v
    (Cmd.info "redebloat"
       ~doc:"Re-debloat applications incrementally against per-app manifests \
             kept under $(b,--state), fanning the apps out over the worker \
             pool.")
    Term.(const run $ apps_arg $ state_arg $ k_arg $ scoring_arg
          $ verbose_flag $ jobs_arg $ trace_arg $ memo_dir_arg)

let main =
  Cmd.group
    (Cmd.info "ltrim" ~version:"1.0.0"
       ~doc:"Cost-driven debloating for serverless applications (lambda-trim).")
    [ list_cmd; analyze_cmd; profile_cmd; debloat_cmd; invoke_cmd; fleet_cmd;
      calibrate_cmd; experiments_cmd; redebloat_cmd ]

let () = exit (Cmd.eval main)
