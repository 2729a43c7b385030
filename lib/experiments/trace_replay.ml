(* Large-scale Azure-trace fleet replay: thousands of functions from the
   Shahrad-shaped workload model ([Platform.Azure_trace.specs]), each
   replayed as original vs lambda-trim-optimized under two keep-alive
   policies, on the sharded streaming engine ([Fleet.Sharded]).

   This is the paper's §8 cost simulation pushed to production scale:
   instead of matching a handful of benchmark apps onto trace functions,
   every trace function becomes an app whose trimming effect is modeled by
   the measured resnet ratios (Function-Initialization and footprint
   shrink), with the §7 fallback (1% of requests re-invoke the original
   image) charged against the trimmed variant.

   Determinism: specs, traces, and per-app fault draws are pure functions
   of [seed]; the sharded reduction folds per-app accumulators in global
   app order. The CSV is therefore byte-identical at any shard count (one
   per --jobs worker) — CI diffs it. Aggregate throughput is printed
   (wall clock, not part of the CSV). *)

let seed = 2025
let default_n_functions = 1600
let default_horizon_s = 10_800.0 (* 3 h *)
let fallback_rate = 0.01

let policies =
  [ ("fixed-ttl", Fleet.Pool.Fixed_ttl { keep_alive_s = 600.0 });
    ("adaptive",
     Fleet.Pool.Adaptive { min_s = 60.0; max_s = 900.0; percentile = 99.0 }) ]

(* measured trimming ratios from the corpus app the paper headlines *)
let ratios () =
  let t = Common.trimmed "resnet" in
  let o = t.Common.original_m.Common.cold in
  let m = t.Common.trimmed_m.Common.cold in
  let init_ratio =
    m.Platform.Lambda_sim.init_ms /. o.Platform.Lambda_sim.init_ms
  in
  let mem_ratio =
    m.Platform.Lambda_sim.peak_memory_mb
    /. o.Platform.Lambda_sim.peak_memory_mb
  in
  (init_ratio, mem_ratio)

let apps ~n_functions ~horizon_s () : Fleet.Sharded.app list =
  let init_ratio, mem_ratio = ratios () in
  let specs = Platform.Azure_trace.specs ~n_functions ~horizon_s ~seed () in
  List.map
    (fun (s : Platform.Azure_trace.fn_spec) ->
       let original =
         { Fleet.Router.exec_s = s.Platform.Azure_trace.fs_exec_ms /. 1000.0;
           func_init_s = s.Platform.Azure_trace.fs_cold_init_ms /. 1000.0;
           instance_init_s =
             s.Platform.Azure_trace.fs_instance_init_ms /. 1000.0;
           memory_mb = s.Platform.Azure_trace.fs_memory_mb }
       in
       let trimmed =
         { original with
           Fleet.Router.func_init_s =
             original.Fleet.Router.func_init_s *. init_ratio;
           memory_mb = original.Fleet.Router.memory_mb *. mem_ratio }
       in
       let fn_id = s.Platform.Azure_trace.fs_id in
       let variants =
         List.concat_map
           (fun (pname, pol) ->
              [ { Fleet.Sharded.v_group = pname ^ "/original";
                  v_cfg = Fleet.Router.default_config ~profile:original pol };
                { Fleet.Sharded.v_group = pname ^ "/trimmed";
                  v_cfg =
                    { (Fleet.Router.default_config ~profile:trimmed pol) with
                      Fleet.Router.fallback =
                        Some
                          (Fleet.Scenario.fallback ~rate:fallback_rate
                             ~seed:(seed + 1 + fn_id) ~original ()) } } ])
           policies
       in
       { Fleet.Sharded.app_id = fn_id;
         app_trace =
           (fun () -> Platform.Azure_trace.trace_of_spec ~horizon_s s);
         app_variants = variants })
    specs

type run_result = {
  groups : Fleet.Sharded.group list;
  n_functions : int;
  horizon_s : float;
  wall_s : float;
  attempts : int;
}

let run ?(n_functions = default_n_functions)
    ?(horizon_s = default_horizon_s) ?shards () : run_result =
  let apps = apps ~n_functions ~horizon_s () in
  let t0 = Obs.Span.wall_ms () in
  let groups = Fleet.Sharded.run ?shards apps in
  let wall_s = (Obs.Span.wall_ms () -. t0) /. 1000.0 in
  let attempts =
    List.fold_left
      (fun acc (g : Fleet.Sharded.group) ->
         acc + g.Fleet.Sharded.g_summary.Fleet.Report.attempts)
      0 groups
  in
  { groups; n_functions; horizon_s; wall_s; attempts }

(* print and csv share one full-scale run *)
let memo : run_result option ref = ref None

let results () =
  match !memo with
  | Some r -> r
  | None ->
    let r = run () in
    memo := Some r;
    r

let split_label label =
  match String.index_opt label '/' with
  | Some i ->
    (String.sub label 0 i,
     String.sub label (i + 1) (String.length label - i - 1))
  | None -> (label, label)

let csv () =
  let r = results () in
  let b = Buffer.create 4096 in
  Buffer.add_string b ("policy,variant,apps," ^ Fleet.Report.csv_header ^ "\n");
  List.iter
    (fun (g : Fleet.Sharded.group) ->
       let policy, variant = split_label g.Fleet.Sharded.g_label in
       Buffer.add_string b
         (Printf.sprintf "%s,%s,%d,%s\n" policy variant
            g.Fleet.Sharded.g_apps
            (Fleet.Report.csv_row g.Fleet.Sharded.g_summary)))
    r.groups;
  Buffer.contents b

let print () =
  let r = results () in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Common.header
       (Printf.sprintf
          "Azure-trace fleet replay: %d functions, %.0f h horizon, original \
           vs trimmed x keep-alive policy (sharded streaming engine)"
          r.n_functions (r.horizon_s /. 3600.0)));
  Buffer.add_string b (Fleet.Report.table_header ^ "\n");
  List.iter
    (fun (g : Fleet.Sharded.group) ->
       Buffer.add_string b
         (Fleet.Report.table_row g.Fleet.Sharded.g_summary ^ "\n"))
    r.groups;
  let find label =
    List.find
      (fun (g : Fleet.Sharded.group) ->
         String.equal g.Fleet.Sharded.g_label label)
      r.groups
  in
  Buffer.add_string b "\n  trimming effect per policy:\n";
  List.iter
    (fun (pname, _) ->
       let o = (find (pname ^ "/original")).Fleet.Sharded.g_summary in
       let t = (find (pname ^ "/trimmed")).Fleet.Sharded.g_summary in
       Buffer.add_string b
         (Printf.sprintf
            "    %-10s cost %6.1f%%  p99 %6.1f%%  cold-starts %d -> %d\n"
            pname
            (Common.pct ~before:o.Fleet.Report.cost_usd
               ~after:t.Fleet.Report.cost_usd)
            (Common.pct ~before:o.Fleet.Report.p99_ms
               ~after:t.Fleet.Report.p99_ms)
            o.Fleet.Report.cold t.Fleet.Report.cold))
    policies;
  let requests (g : Fleet.Sharded.group) =
    g.Fleet.Sharded.g_summary.Fleet.Report.requests
  in
  let requests_per_variant =
    match r.groups with g :: _ -> requests g | [] -> 0
  in
  let routed = List.fold_left (fun acc g -> acc + requests g) 0 r.groups in
  Buffer.add_string b
    (Printf.sprintf
       "\n  %d requests per variant (%d routed total), %d primary attempts\n"
       requests_per_variant routed r.attempts);
  Buffer.add_string b
    (Printf.sprintf
       "  wall %.1f s, %.2f M requests/s aggregate (%d shard(s), %d job(s))\n"
       r.wall_s
       (float_of_int routed /. Float.max 1e-9 r.wall_s /. 1e6)
       (Fleet.Sharded.shard_count ())
       (Parallel.Pool.jobs ()));
  Buffer.contents b
