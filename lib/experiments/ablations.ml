(* Ablations of λ-trim's design choices, beyond the paper's own figures:

   - attribute vs statement granularity (the §6.1 design argument);
   - PyCG protection on/off (the §5.1 claim that excluding definitely-
     accessed attributes "speeds up the debloating phase"). *)

module SS = Callgraph.Pycg.String_set

let apps_small = [ "dna-visualization"; "lightgbm"; "markdown"; "shapely-numpy" ]

(* --- granularity ---------------------------------------------------------- *)

type granularity_row = {
  g_app : string;
  g_module : string;
  attr_kept : int;
  stmt_kept : int;
  attr_mem_pct : float;
  stmt_mem_pct : float;
}

let granularity_row app =
  let spec = Workloads.Apps.find app in
  let d = Workloads.Codegen.deployment spec in
  let oracle, _ = Trim.Oracle.for_reference d in
  let analysis = Trim.Static_analyzer.analyze d in
  let module_name =
    match spec.Workloads.Apps.libs with
    | l :: _ -> l.Workloads.Libspec.l_name
    | [] -> invalid_arg "app without libraries"
  in
  let protected = Trim.Static_analyzer.protected_attrs analysis ~module_name in
  let d_attr, r_attr =
    Trim.Debloater.debloat_module ~oracle ~protected d ~module_name
  in
  let d_stmt, r_stmt =
    Trim.Debloater.debloat_module_statements ~oracle ~protected d ~module_name
  in
  let mem dep = (Common.measure spec dep).Common.cold.Platform.Lambda_sim.peak_memory_mb in
  let base = mem d in
  { g_app = app;
    g_module = module_name;
    attr_kept = r_attr.Trim.Debloater.attrs_after;
    stmt_kept = r_stmt.Trim.Debloater.attrs_after;
    attr_mem_pct = Common.pct ~before:base ~after:(mem d_attr);
    stmt_mem_pct = Common.pct ~before:base ~after:(mem d_stmt) }

let print_granularity () =
  let rows = List.map granularity_row apps_small in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Common.header
       "Ablation: attribute vs statement granularity (§6.1) — primary module");
  Buffer.add_string b
    (Printf.sprintf "  %-18s %-12s %10s %10s %10s %10s\n" "" "module"
       "attr kept" "stmt kept" "attr mem%" "stmt mem%");
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf "  %-18s %-12s %10d %10d %9.1f%% %9.1f%%\n" r.g_app
            r.g_module r.attr_kept r.stmt_kept r.attr_mem_pct r.stmt_mem_pct))
    rows;
  Buffer.add_string b
    "  Attribute granularity keeps no more (usually fewer) attributes and\n\
    \  never loses memory to statement granularity (per-name from-import \
     filtering).\n";
  Buffer.contents b

(* --- PyCG protection ------------------------------------------------------ *)

let print_protection () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Common.header
       "Ablation: PyCG protection (§5.1) — oracle queries with and without");
  Buffer.add_string b
    (Printf.sprintf "  %-18s %-12s %12s %12s %10s\n" "" "module" "with PyCG"
       "without" "saved");
  List.iter
    (fun app ->
       let spec = Workloads.Apps.find app in
       let d = Workloads.Codegen.deployment spec in
       let oracle, _ = Trim.Oracle.for_reference d in
       let analysis = Trim.Static_analyzer.analyze d in
       let module_name =
         match spec.Workloads.Apps.libs with
         | l :: _ -> l.Workloads.Libspec.l_name
         | [] -> assert false
       in
       let protected =
         Trim.Static_analyzer.protected_attrs analysis ~module_name
       in
       let _, with_pycg =
         Trim.Debloater.debloat_module ~oracle ~protected d ~module_name
       in
       let _, without =
         Trim.Debloater.debloat_module ~oracle ~protected:SS.empty d
           ~module_name
       in
       Buffer.add_string b
         (Printf.sprintf "  %-18s %-12s %12d %12d %9.0f%%\n" app module_name
            with_pycg.Trim.Debloater.oracle_queries
            without.Trim.Debloater.oracle_queries
            (Common.pct
               ~before:(float_of_int without.Trim.Debloater.oracle_queries)
               ~after:(float_of_int with_pycg.Trim.Debloater.oracle_queries))))
    apps_small;
  Buffer.contents b

(* --- bursty scale-out ------------------------------------------------------

   §1 motivates λ-trim with bursty scale-out workloads: every overflow
   request in a burst pays a full cold start in parallel, so Function
   Initialization is multiplied by the burst width. This experiment routes
   a bursty day through the fleet router (an unbounded fixed-TTL pool) and
   prices both variants. *)

(* (app, original summary, trimmed summary) per app: one router run per
   variant over the same bursty day, on an unbounded pool with a 900 s
   fixed TTL. Instance init stays 0: the ablation's model charges only
   Function Initialization as cold latency. *)
let burst_rows () =
  let trace =
    Platform.Trace.bursty ~seed:17 ~burst_size:40 ~burst_rate_per_s:20.0
      ~idle_gap_s:3600.0 ~bursts:24 ~name:"burst-day"
  in
  let summary label (r : Platform.Lambda_sim.record) =
    let profile =
      { Fleet.Router.exec_s = r.Platform.Lambda_sim.exec_ms /. 1000.0;
        func_init_s = r.Platform.Lambda_sim.init_ms /. 1000.0;
        instance_init_s = 0.0;
        memory_mb = r.Platform.Lambda_sim.peak_memory_mb }
    in
    let cfg =
      Fleet.Router.default_config ~profile
        (Fleet.Pool.Fixed_ttl { keep_alive_s = 900.0 })
    in
    Fleet.Report.summarize ~label cfg (Fleet.Router.run cfg trace)
  in
  List.map
    (fun app ->
       let t = Common.trimmed app in
       ( app,
         summary "original" t.Common.original_m.Common.cold,
         summary "trimmed" t.Common.trimmed_m.Common.cold ))
    [ "resnet"; "skimage"; "lightgbm"; "spacy"; "huggingface"; "ffmpeg" ]

let print_bursts () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Common.header
       "Ablation: bursty scale-out (§1) — concurrent pool, 24h of 40-wide \
        bursts");
  Buffer.add_string b
    (Printf.sprintf "  %-18s %6s %6s %6s %14s %8s\n" "" "cold" "warm" "peak"
       "bill o->t ($)" "saving");
  List.iter
    (fun (app, (o : Fleet.Report.summary), (t : Fleet.Report.summary)) ->
       Buffer.add_string b
         (Printf.sprintf "  %-18s %6d %6d %6d %6.4f->%6.4f %7.1f%%\n" app
            o.Fleet.Report.cold o.Fleet.Report.warm
            o.Fleet.Report.peak_instances o.Fleet.Report.cost_usd
            t.Fleet.Report.cost_usd
            (Common.pct ~before:o.Fleet.Report.cost_usd
               ~after:t.Fleet.Report.cost_usd)))
    (burst_rows ());
  Buffer.add_string b
    "  Bursts multiply Function Initialization by the burst width; trimming\n\
    \  the init phase also shrinks the concurrent cold-start pool.\n";
  Buffer.contents b

(* --- provider pricing granularity -----------------------------------------

   §2.1's footnote: AWS bills per ms, GCP rounds to 100 ms, Azure to 1 s.
   Rounding punishes short functions — a 40 ms markdown invocation bills a
   whole second on Azure — which changes both the absolute bill and how much
   of it λ-trim can recover. *)

let print_providers () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Common.header
       "Ablation: provider billing granularity (§2.1) — cold-start cost and \
        lambda-trim saving");
  Buffer.add_string b
    (Printf.sprintf "  %-18s %24s %24s %24s\n" ""
       "AWS $ o->t (sav%)" "GCP $ o->t (sav%)" "Azure $ o->t (sav%)");
  List.iter
    (fun app ->
       let t = Common.trimmed app in
       let orig = t.Common.original_m.Common.cold in
       let trim = t.Common.trimmed_m.Common.cold in
       let open Platform.Lambda_sim in
       let cost pricing (r : record) =
         Platform.Pricing.invocation_cost pricing
           ~duration_ms:(r.init_ms +. r.exec_ms) ~memory_mb:r.peak_memory_mb
       in
       let cell pricing =
         let o = cost pricing orig and tr = cost pricing trim in
         Printf.sprintf "%9.2e->%9.2e (%4.0f%%)" o tr
           (Common.pct ~before:o ~after:tr)
       in
       Buffer.add_string b
         (Printf.sprintf "  %-18s %s %s %s\n" app
            (cell Platform.Pricing.aws) (cell Platform.Pricing.gcp)
            (cell Platform.Pricing.azure)))
    [ "markdown"; "igraph"; "lightgbm"; "skimage"; "resnet" ];
  Buffer.add_string b
    "  Coarser rounding (Azure 1 s) floors short invocations, shrinking the\n\
    \  duration component lambda-trim can recover; memory savings survive.\n";
  Buffer.contents b
