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

let scoring_arg =
  let doc = "Scoring method: combined, time, memory, or random." in
  Arg.(value & opt string "combined" & info [ "s"; "scoring" ] ~docv:"METHOD" ~doc)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace-event JSON of the run to FILE \
                 (load it in chrome://tracing or Perfetto).")

let jobs_arg =
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the debloater and the experiment runner \
                 (default: this machine's recommended domain count). \
                 Committed results are bit-identical at any N; only \
                 wall-clock columns change.")

let shards_arg =
  Arg.(value & opt int 0
       & info [ "shards" ] ~docv:"N"
           ~doc:"Shards for the sharded fleet engine (multi-tenant fleet \
                 runs and the trace-replay experiment). Default 0 follows \
                 $(b,--jobs). Results are bit-identical at any N; only \
                 wall-clock changes.")

(* Install the process-wide shard default the sharded fleet engine reads.
   0 keeps the engine following the configured pool size. *)
let setup_shards shards =
  if shards < 0 then begin
    Printf.eprintf "--shards must be >= 0 (got %d)\n" shards;
    exit 2
  end;
  Fleet.Sharded.default_shards := shards

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
               querying the oracle. Resume requires the same --jobs as the \
               killed run (the journal digest covers the job layout); \
               anything else safely discards the journal.")

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

let memo_cap_arg =
  Arg.(value & opt (some int) None
       & info [ "memo-cap" ] ~docv:"N"
           ~doc:"Bound the in-memory oracle memo at N entries (FIFO \
                 eviction, counted in oracle.memo.evicted). Default \
                 unbounded. With $(b,--memo-dir), evicted entries re-load \
                 from the store instead of re-executing.")

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

(* Install the persistent memo under the global observation cache, plus the
   optional in-memory bound. Call before any work, like [setup_jobs]. *)
let setup_memo memo_dir memo_cap =
  (match memo_cap with
   | Some n when n < 1 ->
     Printf.eprintf "--memo-cap must be >= 1 (got %d)\n" n;
     exit 2
   | cap -> Trim.Oracle.Cache.set_capacity Trim.Oracle.Cache.global cap);
  match memo_dir with
  | None -> ()
  | Some dir ->
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

(* Install the process-wide optimizer family. Call before any work, like
   [setup_jobs]. *)
let setup_optimizer optimizer = Trim.Optimizer.configure optimizer

(* Install the process-wide pool the pipeline and the experiment registry
   fan out on. Call before any work; the pool is torn down at exit. *)
let setup_jobs jobs =
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end;
  Parallel.Pool.configure ~jobs

(* Arm the chaos harness from LTRIM_CHAOS_KILL_AFTER and turn a chaos kill
   into a distinct exit status the CI smoke steps assert on, and a journal
   another process holds into [fail_locked]. Wraps outside [with_trace] so
   a killed run still exports its partial trace. *)
let with_chaos f =
  (try Trim.Chaos.arm_from_env () with
   | Invalid_argument msg ->
     Printf.eprintf "%s\n" msg;
     exit 2);
  try f () with
  | Trim.Chaos.Killed { killed_after } ->
    Printf.eprintf
      "chaos: killed after journal record %d (resume with --resume)\n%!"
      killed_after;
    exit 70
  | Trim.Durable_log.Locked path -> fail_locked path

(* Install a recording tracer around [f] and export it on the way out —
   also on failure, so a crashed run still leaves its partial trace. *)
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
          Printf.eprintf "trace: %d spans written to %s\n%!"
            (List.length (Obs.Span.spans sink))
            path)
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
  let run app scoring =
    let method_ = Trim.Scoring.method_of_string scoring in
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
  let run app k scoring verbose jobs trace optimizer journal resume
      memo_dir memo_cap baseline_path manifest_path =
    setup_optimizer optimizer;
    setup_jobs jobs;
    setup_memo memo_dir memo_cap;
    with_chaos @@ fun () ->
    with_trace trace @@ fun () ->
    setup_logs verbose;
    let method_ = Trim.Scoring.method_of_string scoring in
    let baseline = load_baseline baseline_path in
    let d = Workloads.Suite.deployment_of app in
    let o =
      Trim.Optimizer.run
        ~options:{ Trim.Pipeline.default_options with
                   k; scoring = method_; log = verbose;
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
    Term.(const run $ app_arg $ k_arg $ scoring_arg $ verbose_flag $ jobs_arg
          $ trace_arg $ optimizer_arg $ journal_arg $ resume_flag
          $ memo_dir_arg $ memo_cap_arg $ baseline_arg $ manifest_arg)

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
  let run app trimmed jobs trace optimizer =
    setup_optimizer optimizer;
    setup_jobs jobs;
    with_trace trace @@ fun () ->
    let spec = Workloads.Suite.spec_of app in
    let d = Workloads.Suite.deployment_of app in
    let d =
      if trimmed then
        (Trim.Optimizer.run optimizer d).Trim.Optimizer.o_deployment
      else d
    in
    let event =
      match spec.Workloads.Apps.tests with (_, e) :: _ -> e | [] -> "{}"
    in
    let sim = Platform.Lambda_sim.create d in
    let cold, warm = Platform.Lambda_sim.measure_cold_and_warm ~event sim in
    List.iter print_record [ cold; warm ]
  in
  Cmd.v
    (Cmd.info "invoke" ~doc:"Invoke an application on the platform simulator.")
    Term.(const run $ app_arg $ trimmed_flag $ jobs_arg $ trace_arg
          $ optimizer_arg)

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
  let policy_arg =
    Arg.(value & opt string "fixed" & info [ "p"; "policy" ] ~docv:"POLICY"
           ~doc:"Eviction policy: fixed, lru, or adaptive.")
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
           ~doc:"Concurrency cap on live instances (default unbounded).")
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
           ~doc:"Trace, fallback-draw, and fault-plan seed (default 2025).")
  in
  (* fault-injection flag group *)
  let init_failure_arg =
    Arg.(value & opt float 0.0 & info [ "init-failure-rate" ] ~docv:"FRACTION"
           ~doc:"Probability a cold start's Function Initialization fails \
                 (default 0).")
  in
  let crash_arg =
    Arg.(value & opt float 0.0 & info [ "crash-rate" ] ~docv:"FRACTION"
           ~doc:"Probability an invocation crashes mid-execution (default 0).")
  in
  let error_arg =
    Arg.(value & opt float 0.0 & info [ "error-rate" ] ~docv:"FRACTION"
           ~doc:"Probability an invocation completes with a transient error \
                 (default 0).")
  in
  let churn_arg =
    Arg.(value & opt float 0.0 & info [ "churn-rate" ] ~docv:"FRACTION"
           ~doc:"Probability the platform reclaims an instance immediately \
                 on release instead of keeping it warm (default 0).")
  in
  (* resilience flag group *)
  let retries_arg =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry budget per request; 0 disables retries (default 0).")
  in
  let retry_base_arg =
    Arg.(value & opt float 0.2 & info [ "retry-base" ] ~docv:"SECONDS"
           ~doc:"Base exponential backoff before a retry (default 0.2); \
                 full jitter is always applied.")
  in
  let retry_cap_arg =
    Arg.(value & opt float 10.0 & info [ "retry-cap" ] ~docv:"SECONDS"
           ~doc:"Backoff ceiling (default 10).")
  in
  let request_timeout_arg =
    Arg.(value & opt float infinity
         & info [ "request-timeout" ] ~docv:"SECONDS"
             ~doc:"End-to-end budget: a retry past this deadline is \
                   abandoned (default unlimited).")
  in
  let breaker_threshold_arg =
    Arg.(value & opt float 0.0 & info [ "breaker-threshold" ] ~docv:"FRACTION"
           ~doc:"Arm the fallback circuit breaker at this windowed \
                 removal-error rate; 0 disables it (default 0). Requires \
                 a positive --fb-rate.")
  in
  let breaker_window_arg =
    Arg.(value & opt int 50 & info [ "breaker-window" ] ~docv:"N"
           ~doc:"Breaker sliding sample window (default 50).")
  in
  let breaker_cooldown_arg =
    Arg.(value & opt float 30.0 & info [ "breaker-cooldown" ] ~docv:"SECONDS"
           ~doc:"Open duration before the breaker half-opens (default 30).")
  in
  let hedge_delay_arg =
    Arg.(value & opt (some float) None & info [ "hedge-delay" ] ~docv:"SECONDS"
           ~doc:"Enable cold-start hedging: a failing cold start's recovery \
                 is dispatched this long after the cold start began \
                 (default off).")
  in
  let tenants_arg =
    Arg.(value & opt int 1 & info [ "tenants" ] ~docv:"N"
           ~doc:"Replicate the app as N independent tenants (per-tenant \
                 trace/fault/fallback seeds) and route them through the \
                 sharded fleet engine, merging per-variant reports \
                 (default 1 = classic single-tenant run).")
  in
  let run app rate duration policy keep_alive max_idle capacity max_pending
      timeout fb_rate seed init_failure_rate crash_rate error_rate churn_rate
      retries retry_base retry_cap request_timeout breaker_threshold
      breaker_window breaker_cooldown hedge_delay tenants shards jobs trace =
    setup_jobs jobs;
    setup_shards shards;
    with_trace trace @@ fun () ->
    if rate <= 0.0 then begin
      Printf.eprintf "--rate must be positive (got %g)\n" rate;
      exit 2
    end;
    if duration < 0.0 then begin
      Printf.eprintf "--duration must be non-negative (got %g)\n" duration;
      exit 2
    end;
    List.iter
      (fun (name, r) ->
         if not (r >= 0.0 && r <= 1.0) then begin
           Printf.eprintf "--%s must be in [0, 1] (got %g)\n" name r;
           exit 2
         end)
      [ ("init-failure-rate", init_failure_rate); ("crash-rate", crash_rate);
        ("error-rate", error_rate); ("churn-rate", churn_rate);
        ("fb-rate", fb_rate) ];
    if retries < 0 then begin
      Printf.eprintf "--retries must be non-negative (got %d)\n" retries;
      exit 2
    end;
    if retry_base < 0.0 || retry_cap < retry_base then begin
      Printf.eprintf
        "--retry-base must be non-negative and --retry-cap >= --retry-base \
         (got %g, %g)\n"
        retry_base retry_cap;
      exit 2
    end;
    if request_timeout <= 0.0 then begin
      Printf.eprintf "--request-timeout must be positive (got %g)\n"
        request_timeout;
      exit 2
    end;
    if not (breaker_threshold >= 0.0 && breaker_threshold <= 1.0) then begin
      Printf.eprintf "--breaker-threshold must be in [0, 1] (got %g)\n"
        breaker_threshold;
      exit 2
    end;
    if breaker_threshold > 0.0 && fb_rate <= 0.0 then begin
      Printf.eprintf
        "--breaker-threshold requires a fallback pool to shed to \
         (positive --fb-rate)\n";
      exit 2
    end;
    if breaker_window <= 0 then begin
      Printf.eprintf "--breaker-window must be positive (got %d)\n"
        breaker_window;
      exit 2
    end;
    if breaker_cooldown < 0.0 then begin
      Printf.eprintf "--breaker-cooldown must be non-negative (got %g)\n"
        breaker_cooldown;
      exit 2
    end;
    (match hedge_delay with
     | Some d when d < 0.0 ->
       Printf.eprintf "--hedge-delay must be non-negative (got %g)\n" d;
       exit 2
     | _ -> ());
    if tenants < 1 then begin
      Printf.eprintf "--tenants must be >= 1 (got %d)\n" tenants;
      exit 2
    end;
    let pol =
      match policy with
      | "fixed" -> Fleet.Pool.Fixed_ttl { keep_alive_s = keep_alive }
      | "lru" -> Fleet.Pool.Lru { keep_alive_s = keep_alive; max_idle }
      | "adaptive" ->
        Fleet.Pool.Adaptive
          { min_s = 60.0; max_s = keep_alive; percentile = 99.0 }
      | p ->
        Printf.eprintf "unknown policy %S (fixed, lru, adaptive)\n" p;
        exit 2
    in
    let d = Workloads.Suite.deployment_of app in
    let report = Trim.Pipeline.run d in
    let original = Fleet.Scenario.profile_of_deployment d in
    let trimmed =
      Fleet.Scenario.profile_of_deployment report.Trim.Pipeline.optimized
    in
    let faults =
      { Fleet.Faults.seed = seed + 2;
        init_failure_rate = init_failure_rate;
        crash_rate;
        transient_error_rate = error_rate;
        churn_rate }
    in
    let resilience =
      { Fleet.Resilience.retry =
          (if retries > 0 then
             Some
               { Fleet.Resilience.max_retries = retries;
                 base_backoff_s = retry_base;
                 max_backoff_s = retry_cap;
                 full_jitter = true }
           else None);
        request_timeout_s = request_timeout;
        breaker =
          (if breaker_threshold > 0.0 then
             Some
               { Fleet.Resilience.Breaker.error_threshold = breaker_threshold;
                 window = breaker_window;
                 min_samples = min breaker_window 10;
                 cooldown_s = breaker_cooldown }
           else None);
        hedge =
          Option.map
            (fun d -> { Fleet.Resilience.hedge_delay_s = d })
            hedge_delay }
    in
    let base = Fleet.Router.default_config ~profile:original pol in
    let base =
      { base with
        Fleet.Router.max_instances =
          (if capacity <= 0 then max_int else capacity);
        max_pending;
        pending_timeout_s = timeout;
        faults;
        (* the original image has no fallback pool, so the breaker only
           arms on the trimmed deployment below *)
        resilience = { resilience with Fleet.Resilience.breaker = None } }
    in
    let fb_cfg =
      { base with
        Fleet.Router.profile = trimmed;
        resilience;
        fallback =
          (if fb_rate > 0.0 then
             Some
               (Fleet.Scenario.fallback ~rate:fb_rate ~seed:(seed + 1)
                  ~original ())
           else None) }
    in
    if tenants > 1 then begin
      (* multi-tenant sharded path: tenant i replays the same app on its
         own trace/fault/fallback seed stream; tenant 0 reproduces the
         single-tenant seeds exactly *)
      let apps =
        List.init tenants (fun i ->
            let tseed = seed + (7919 * i) in
            let t_faults = { faults with Fleet.Faults.seed = tseed + 2 } in
            let t_base = { base with Fleet.Router.faults = t_faults } in
            let t_fb =
              { fb_cfg with
                Fleet.Router.faults = t_faults;
                fallback =
                  (if fb_rate > 0.0 then
                     Some
                       (Fleet.Scenario.fallback ~rate:fb_rate
                          ~seed:(tseed + 1) ~original ())
                   else None) }
            in
            { Fleet.Sharded.app_id = i;
              app_trace =
                (fun () ->
                   Platform.Trace.poisson ~seed:tseed ~rate_per_s:rate
                     ~duration_s:duration
                     ~name:(Printf.sprintf "tenant-%d" i));
              app_variants =
                [ { Fleet.Sharded.v_group = "original"; v_cfg = t_base };
                  { Fleet.Sharded.v_group = "trimmed"; v_cfg = t_fb } ] })
      in
      let groups = Fleet.Sharded.run apps in
      Printf.printf
        "Fleet: %s x %d tenants, poisson %g req/s each for %g s (seed %d), \
         policy %s, %d shard(s)\n\n"
        app tenants rate duration seed (Fleet.Pool.policy_name pol)
        (Fleet.Sharded.shard_count ());
      print_endline Fleet.Report.table_header;
      List.iter
        (fun (g : Fleet.Sharded.group) ->
           print_endline (Fleet.Report.table_row g.Fleet.Sharded.g_summary))
        groups
    end else begin
      let trace =
        Platform.Trace.poisson ~seed ~rate_per_s:rate ~duration_s:duration
          ~name:(Printf.sprintf "poisson-%g" rate)
      in
      let simulate label cfg =
        Fleet.Report.summarize ~label cfg (Fleet.Router.run cfg trace)
      in
      Printf.printf
        "Fleet: %s, poisson %g req/s for %g s (seed %d), policy %s\n\n" app
        rate duration seed (Fleet.Pool.policy_name pol);
      print_endline Fleet.Report.table_header;
      print_endline (Fleet.Report.table_row (simulate "original" base));
      print_endline (Fleet.Report.table_row (simulate "trimmed" fb_cfg))
    end
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate a fleet of instances serving an arrival trace, \
             original vs lambda-trim-optimized.")
    Term.(const run $ app_arg $ rate_arg $ duration_arg $ policy_arg
          $ keep_alive_arg $ max_idle_arg $ capacity_arg $ max_pending_arg
          $ timeout_arg $ fb_rate_arg $ seed_arg $ init_failure_arg
          $ crash_arg $ error_arg $ churn_arg $ retries_arg $ retry_base_arg
          $ retry_cap_arg $ request_timeout_arg $ breaker_threshold_arg
          $ breaker_window_arg $ breaker_cooldown_arg $ hedge_delay_arg
          $ tenants_arg $ shards_arg $ jobs_arg $ trace_arg)

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
         let event =
           match spec.Workloads.Apps.tests with (_, e) :: _ -> e | [] -> "{}"
         in
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
  let run only out csv shards jobs trace optimizer journal resume
      memo_dir memo_cap =
    (* committed experiments that exercise the oracle memo create private
       caches; attaching a store to the global memo only accelerates
       wall-clock, so committed CSVs stay byte-identical either way *)
    setup_memo memo_dir memo_cap;
    (* committed experiments pin their own optimizer families (the lazy
       experiment runs all of them side by side), so the process-wide knob
       is inert here by construction — the CI smoke step byte-diffs
       `--optimizer none` output against the committed CSVs to prove it *)
    setup_optimizer optimizer;
    setup_jobs jobs;
    setup_shards shards;
    (* experiments build their pipelines internally; the process-wide spec
       is how --journal/--resume reach those runs *)
    Trim.Journal.configure ~dir:journal ~resume;
    with_chaos @@ fun () ->
    with_trace trace @@ fun () ->
    let entries = if only = [] then Experiments.Registry.all else only in
    let ensure_dir = function
      | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
      | _ -> ()
    in
    ensure_dir out;
    ensure_dir csv;
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
    Term.(const run $ only_arg $ out_arg $ csv_arg $ shards_arg $ jobs_arg
          $ trace_arg $ optimizer_arg $ journal_arg
          $ resume_flag $ memo_dir_arg $ memo_cap_arg)

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
  let run apps state k scoring verbose jobs trace memo_dir memo_cap =
    setup_jobs jobs;
    setup_memo memo_dir memo_cap;
    with_trace trace @@ fun () ->
    setup_logs verbose;
    let apps = if apps = [] then Workloads.Suite.names else apps in
    Trim.Durable_log.mkdir_p state;
    let method_ = Trim.Scoring.method_of_string scoring in
    let job app =
      let path = Filename.concat state (app ^ ".manifest") in
      let baseline = Trim.Manifest.load ~path in
      let d = Workloads.Suite.deployment_of app in
      let r =
        Trim.Pipeline.run
          ~options:{ Trim.Pipeline.default_options with
                     k; scoring = method_; log = verbose;
                     baseline; manifest_path = Some path }
          d
      in
      (app, baseline <> None, r)
    in
    (* per-app jobs fan out over the configured pool; each pipeline runs
       its debloat stage sequentially inside its job (nested submission is
       pool-safe, but per-app parallelism is the win here) *)
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
          $ verbose_flag $ jobs_arg $ trace_arg $ memo_dir_arg
          $ memo_cap_arg)

let main =
  Cmd.group
    (Cmd.info "ltrim" ~version:"1.0.0"
       ~doc:"Cost-driven debloating for serverless applications (lambda-trim).")
    [ list_cmd; analyze_cmd; profile_cmd; debloat_cmd; invoke_cmd; fleet_cmd;
      calibrate_cmd; experiments_cmd; redebloat_cmd ]

let () = exit (Cmd.eval main)
