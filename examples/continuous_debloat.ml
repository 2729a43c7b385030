(* Continuous debloating (§9): a CI-style loop where the function is updated
   and re-debloated. The first run seeds each search with the attributes
   its test cases read; later runs seed DD with the previous keep-sets
   instead. Either seed costs one confirmation query and, when it passes,
   confines the search to the seed — so on an unchanged app both runs cost
   the same number of queries.

     dune exec examples/continuous_debloat.exe *)

let () =
  let app = Workloads.Suite.deployment_of "lightgbm" in
  let options = { Trim.Pipeline.default_options with k = 8 } in

  (* v1: initial deployment, fresh debloating *)
  let v1 = Trim.Pipeline.run ~options app in
  Printf.printf "v1 (fresh)     : %4d oracle queries, %d modules debloated\n"
    v1.Trim.Pipeline.total_oracle_queries
    (List.length v1.Trim.Pipeline.module_results);

  (* v2: a no-op redeploy (e.g. dependency pin bump) *)
  let v2 = Trim.Pipeline.run_continuous ~options ~previous:v1 app in
  Printf.printf "v2 (no change) : %4d oracle queries, %d/%d modules seeded\n"
    v2.Trim.Pipeline.base.Trim.Pipeline.total_oracle_queries
    v2.Trim.Pipeline.seed_hits v2.Trim.Pipeline.seeded_modules;

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
  let v3 = Trim.Pipeline.run_continuous ~options ~previous:v1 updated in
  Printf.printf "v3 (new path)  : %4d oracle queries, %d/%d modules seeded\n"
    v3.Trim.Pipeline.base.Trim.Pipeline.total_oracle_queries
    v3.Trim.Pipeline.seed_hits v3.Trim.Pipeline.seeded_modules;

  (* the seeded results are still correct and still trimmed *)
  let check label report reference =
    let oracle, _ = Trim.Oracle.for_reference reference in
    Printf.printf "%s passes its oracle: %b\n" label
      (oracle report.Trim.Pipeline.optimized)
  in
  check "v2" v2.Trim.Pipeline.base app;
  check "v3" v3.Trim.Pipeline.base updated;

  let cold d =
    let sim = Platform.Lambda_sim.create d in
    (Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ())
      .Platform.Lambda_sim.init_ms
  in
  Printf.printf "v3 init: original %.0f ms -> continuous-debloated %.0f ms\n"
    (cold updated)
    (cold v3.Trim.Pipeline.base.Trim.Pipeline.optimized)
