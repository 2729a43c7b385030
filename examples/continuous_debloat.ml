(* Continuous debloating (§9): a CI-style loop where the function is updated
   and re-debloated. The first run writes a manifest of its per-module
   search digests and keep-sets; later runs take it as their baseline. A
   module whose reachable image is unchanged replays its recorded keep-set
   with zero oracle queries; a changed one warm-starts DD from the recorded
   keep-set, which costs one confirmation query and, when it passes,
   confines the search to it.

     dune exec examples/continuous_debloat.exe *)

let () =
  let app = Workloads.Suite.deployment_of "lightgbm" in
  let manifest_path = Filename.temp_file "continuous-debloat" ".manifest" in
  at_exit (fun () -> Sys.remove manifest_path);
  let options = { Trim.Pipeline.default_options with k = 8 } in

  (* v1: initial deployment, fresh debloating; its manifest is the baseline
     of every later run *)
  let v1 =
    Trim.Pipeline.run
      ~options:{ options with manifest_path = Some manifest_path } app
  in
  Printf.printf "v1 (fresh)     : %4d oracle queries, %d modules debloated\n"
    v1.Trim.Pipeline.total_oracle_queries
    (List.length v1.Trim.Pipeline.module_results);
  let baseline = Trim.Manifest.load ~path:manifest_path in
  let rerun d = Trim.Pipeline.run ~options:{ options with baseline } d in
  let print label (r : Trim.Pipeline.report) =
    Printf.printf
      "%s: %4d oracle queries, %d/%d modules replayed, %d warm-started \
       (%d seed hits)\n"
      label r.Trim.Pipeline.total_oracle_queries
      (List.length r.Trim.Pipeline.replayed_modules)
      (List.length r.Trim.Pipeline.module_results)
      r.Trim.Pipeline.warm_seeded r.Trim.Pipeline.warm_seed_hits
  in

  (* v2: a no-op redeploy (e.g. dependency pin bump) *)
  let v2 = rerun app in
  print "v2 (no change) " v2;

  (* v3: the handler grows a new code path using one more library function *)
  let updated = Platform.Deployment.copy app in
  let src = Platform.Deployment.handler_source updated in
  let src' =
    Str.global_replace
      (Str.regexp_string "  result = lightgbm.run_task(acc)")
      "  acc = lightgbm.f2(acc)\n  result = lightgbm.run_task(acc)"
      src
  in
  Minipy.Vfs.add_file updated.Platform.Deployment.vfs "handler.py" src';
  let v3 = rerun updated in
  print "v3 (new path)  " v3;

  (* the incremental results are still correct and still trimmed *)
  let check label report reference =
    let oracle, _ = Trim.Oracle.for_reference reference in
    Printf.printf "%s passes its oracle: %b\n" label
      (oracle report.Trim.Pipeline.optimized)
  in
  check "v2" v2 app;
  check "v3" v3 updated;

  let cold d =
    let sim = Platform.Lambda_sim.create d in
    (Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ())
      .Platform.Lambda_sim.init_ms
  in
  Printf.printf "v3 init: original %.0f ms -> continuous-debloated %.0f ms\n"
    (cold updated)
    (cold v3.Trim.Pipeline.optimized)
