(* End-to-end pipeline (Figure 3): analyze -> profile -> debloat. *)

open Trim

let report =
  lazy
    (let tiny = Workloads.Suite.tiny_app () in
     Pipeline.run ~options:{ Pipeline.default_options with k = 3 } tiny)

let cases =
  [ Alcotest.test_case "pipeline produces a passing optimized app" `Quick
      (fun () ->
        let r = Lazy.force report in
        let oracle, _ = Oracle.for_reference r.Pipeline.original in
        Alcotest.(check bool) "oracle passes" true (oracle r.Pipeline.optimized));
    Alcotest.test_case "ranked list respects k" `Quick (fun () ->
        let r = Lazy.force report in
        Alcotest.(check bool) "<= 3 modules" true
          (List.length r.Pipeline.ranked <= 3));
    Alcotest.test_case "module results align with ranking" `Quick (fun () ->
        let r = Lazy.force report in
        Alcotest.(check (list string)) "same order" r.Pipeline.ranked
          (List.map (fun m -> m.Debloater.dm_module) r.Pipeline.module_results));
    Alcotest.test_case "improves cold-start latency, memory, cost" `Quick
      (fun () ->
        let r = Lazy.force report in
        let cold d =
          let sim = Platform.Lambda_sim.create d in
          Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ()
        in
        let b = cold r.Pipeline.original and a = cold r.Pipeline.optimized in
        Alcotest.(check bool) "e2e better" true
          (a.Platform.Lambda_sim.e2e_ms < b.Platform.Lambda_sim.e2e_ms);
        Alcotest.(check bool) "memory better" true
          (a.Platform.Lambda_sim.peak_memory_mb
           < b.Platform.Lambda_sim.peak_memory_mb);
        Alcotest.(check bool) "cost better" true
          (a.Platform.Lambda_sim.cost < b.Platform.Lambda_sim.cost));
    Alcotest.test_case "warm-start behaviour unchanged" `Quick (fun () ->
        let r = Lazy.force report in
        let warm d =
          let sim = Platform.Lambda_sim.create d in
          let _, w = Platform.Lambda_sim.measure_cold_and_warm
              ~event:"{\"x\": 1}" sim
          in
          w
        in
        let b = warm r.Pipeline.original and a = warm r.Pipeline.optimized in
        Alcotest.(check string) "same stdout"
          b.Platform.Lambda_sim.stdout a.Platform.Lambda_sim.stdout;
        (* within 10% as in Figure 11 *)
        Alcotest.(check bool) "exec within 10%" true
          (Float.abs
             (a.Platform.Lambda_sim.exec_ms -. b.Platform.Lambda_sim.exec_ms)
           <= 0.1 *. b.Platform.Lambda_sim.exec_ms +. 0.5));
    Alcotest.test_case "k=0 leaves the app untouched" `Quick (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let r = Pipeline.run ~options:{ Pipeline.default_options with k = 0 } tiny in
        Alcotest.(check int) "no modules debloated" 0
          (List.length r.Pipeline.module_results);
        let oracle, _ = Oracle.for_reference tiny in
        Alcotest.(check bool) "still passes" true (oracle r.Pipeline.optimized));
    Alcotest.test_case "larger k never hurts the oracle" `Quick (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let oracle, _ = Oracle.for_reference tiny in
        List.iter
          (fun k ->
             let r =
               Pipeline.run ~options:{ Pipeline.default_options with k } tiny
             in
             Alcotest.(check bool)
               (Printf.sprintf "k=%d passes" k)
               true
               (oracle r.Pipeline.optimized))
          [ 1; 2; 5 ]);
    Alcotest.test_case "representative module is the largest" `Quick (fun () ->
        let r = Lazy.force report in
        match Pipeline.representative_module r with
        | Some m ->
          Alcotest.(check bool) "max attrs" true
            (List.for_all
               (fun other ->
                  other.Debloater.attrs_before <= m.Debloater.attrs_before)
               r.Pipeline.module_results)
        | None -> Alcotest.fail "no modules");
    Alcotest.test_case "oracle query accounting" `Quick (fun () ->
        let r = Lazy.force report in
        Alcotest.(check int) "sum matches"
          (List.fold_left (fun a m -> a + m.Debloater.oracle_queries) 0
             r.Pipeline.module_results)
          r.Pipeline.total_oracle_queries) ]

let real_app =
  [ Alcotest.test_case "lightgbm app end-to-end (fig8 shape)" `Slow (fun () ->
        let d = Workloads.Suite.deployment_of "lightgbm" in
        let r = Pipeline.run ~options:{ Pipeline.default_options with k = 20 } d in
        let oracle, _ = Oracle.for_reference d in
        Alcotest.(check bool) "oracle passes" true (oracle r.Pipeline.optimized);
        let cold dep =
          let sim = Platform.Lambda_sim.create dep in
          Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ()
        in
        let b = cold d and a = cold r.Pipeline.optimized in
        let init_impr =
          Platform.Metrics.improvement_pct ~before:b.Platform.Lambda_sim.init_ms
            ~after:a.Platform.Lambda_sim.init_ms
        in
        (* paper: lightgbm import time improves ~55% *)
        Alcotest.(check bool)
          (Printf.sprintf "init improvement %.1f%% in [35, 75]" init_impr)
          true
          (init_impr >= 35.0 && init_impr <= 75.0)) ]

(* Profile seeds (Debloater.debloat_module without ?seed) over the whole
   corpus at K = 20. *)
let profile_seed =
  [ Alcotest.test_case "every profile seed passes on every corpus app" `Slow
      (fun () ->
        List.iter
          (fun name ->
             let app = Workloads.Suite.deployment_of name in
             let r = Pipeline.run app in
             List.iter
               (fun (m : Debloater.module_result) ->
                  Alcotest.(check bool)
                    (name ^ "/" ^ m.Debloater.dm_module ^ " seed passes")
                    false m.Debloater.seed_missed)
               r.Pipeline.module_results)
          Workloads.Suite.names);
    Alcotest.test_case "seed hits count only caller seeds" `Slow (fun () ->
        (* a baseline whose entries are all stale warm-starts every
           file-backed module from its recorded keep-set; the profile seeds
           of the cold run pass but must not count as seed hits *)
        let path = Filename.temp_file "ltrim-seed-hits" ".manifest" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            List.iter
              (fun name ->
                 let app = Workloads.Suite.deployment_of name in
                 let cold =
                   Pipeline.run
                     ~options:{ Pipeline.default_options with
                                manifest_path = Some path }
                     app
                 in
                 Alcotest.(check bool) (name ^ ": cold run has no seed hits")
                   false
                   (List.exists
                      (fun (m : Debloater.module_result) -> m.Debloater.seed_hit)
                      cold.Pipeline.module_results);
                 let stale =
                   Option.map
                     (fun m ->
                        { m with
                          Manifest.mf_modules =
                            List.map
                              (fun e -> { e with Manifest.me_digest = "stale" })
                              m.Manifest.mf_modules })
                     (Manifest.load ~path)
                 in
                 let warm =
                   Pipeline.run
                     ~options:{ Pipeline.default_options with baseline = stale }
                     app
                 in
                 let file_backed =
                   List.length
                     (List.filter
                        (fun (m : Debloater.module_result) ->
                           m.Debloater.dm_file <> "<none>")
                        warm.Pipeline.module_results)
                 in
                 Alcotest.(check int)
                   (name ^ ": every file-backed module seeded")
                   file_backed warm.Pipeline.warm_seeded;
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: %d hits <= %d seeded" name
                      warm.Pipeline.warm_seed_hits warm.Pipeline.warm_seeded)
                   true
                   (warm.Pipeline.warm_seed_hits <= warm.Pipeline.warm_seeded))
              Workloads.Suite.names)) ]

let suite =
  [ ("pipeline.tiny", cases);
    ("pipeline.real", real_app);
    ("pipeline.profile_seed", profile_seed) ]
