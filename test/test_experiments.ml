(* Smoke tests over the experiment registry: every table/figure regenerates
   and carries the markers EXPERIMENTS.md quotes. Heavier checks assert the
   paper's qualitative claims hold in the output data (not just the text). *)

let contains hay needle =
  let re = Str.regexp_string needle in
  try ignore (Str.search_forward re hay 0); true with Not_found -> false

let registry =
  [ Alcotest.test_case "all experiments print non-empty output" `Slow (fun () ->
        List.iter
          (fun (e : Experiments.Registry.entry) ->
             let out = e.Experiments.Registry.print () in
             Alcotest.(check bool)
               (e.Experiments.Registry.id ^ " non-empty")
               true
               (String.length out > 100))
          Experiments.Registry.all);
    Alcotest.test_case "registry ids are unique and findable" `Quick (fun () ->
        let ids = Experiments.Registry.ids in
        Alcotest.(check int) "unique" (List.length ids)
          (List.length (List.sort_uniq compare ids));
        List.iter
          (fun id ->
             Alcotest.(check bool) (id ^ " findable") true
               (Experiments.Registry.find id <> None))
          ids) ]

let claims =
  [ Alcotest.test_case "fig1: init is billed and a large bill share" `Slow
      (fun () ->
        let r = Experiments.Fig1.run () in
        Alcotest.(check bool) "init share of bill > 40%" true
          (r.Experiments.Fig1.init_share_of_bill > 0.40);
        let billed =
          List.filter (fun row -> row.Experiments.Fig1.billed)
            r.Experiments.Fig1.rows
        in
        Alcotest.(check int) "exactly two billed phases" 2 (List.length billed));
    Alcotest.test_case "fig2: exec-bound apps have low import share" `Slow
      (fun () ->
        let r = Experiments.Fig2.run () in
        let share app =
          (List.find (fun x -> x.Experiments.Fig2.app = app)
             r.Experiments.Fig2.rows)
            .Experiments.Fig2.import_share_pct
        in
        Alcotest.(check bool) "ffmpeg < 10%" true (share "ffmpeg" < 10.0);
        Alcotest.(check bool) "spacy > 90%" true (share "spacy" > 90.0);
        Alcotest.(check bool) "median in [50, 80]" true
          (r.Experiments.Fig2.median_share_pct >= 50.0
           && r.Experiments.Fig2.median_share_pct <= 80.0));
    Alcotest.test_case "fig8: headline improvements in band" `Slow (fun () ->
        let r = Experiments.Fig8.run () in
        Alcotest.(check bool) "avg speedup in [1.1, 1.5]" true
          (r.Experiments.Fig8.avg_speedup >= 1.1
           && r.Experiments.Fig8.avg_speedup <= 1.5);
        Alcotest.(check bool) "max speedup in [1.7, 2.2] (resnet ~2x)" true
          (r.Experiments.Fig8.max_speedup >= 1.7
           && r.Experiments.Fig8.max_speedup <= 2.2);
        Alcotest.(check bool) "avg cost cut in [15%, 40%]" true
          (r.Experiments.Fig8.avg_cost_pct >= 15.0
           && r.Experiments.Fig8.avg_cost_pct <= 40.0);
        (* the no-benefit apps stay near zero *)
        let row app =
          List.find (fun x -> x.Experiments.Fig8.app = app)
            r.Experiments.Fig8.rows
        in
        Alcotest.(check bool) "ffmpeg speedup ~1.0" true
          ((row "ffmpeg").Experiments.Fig8.speedup < 1.02);
        Alcotest.(check bool) "skimage cost cut > 50%" true
          ((row "skimage").Experiments.Fig8.cost_improvement_pct > 50.0));
    Alcotest.test_case "table2: lambda-trim >= faaslight >= vulture" `Slow
      (fun () ->
        let rows = Experiments.Table2.run () in
        List.iter
          (fun r ->
             Alcotest.(check bool)
               (r.Experiments.Table2.app ^ ": LT import >= FL")
               true
               (r.Experiments.Table2.import_trim_pct
                >= r.Experiments.Table2.import_faaslight_pct -. 0.01);
             Alcotest.(check bool)
               (r.Experiments.Table2.app ^ ": FL import >= Vulture")
               true
               (r.Experiments.Table2.import_faaslight_pct
                >= r.Experiments.Table2.import_vulture_pct -. 0.01))
          rows);
    Alcotest.test_case "fig9: combined never loses" `Slow (fun () ->
        let rows = Experiments.Fig9.run () in
        List.iter
          (fun r ->
             let cell m = List.assoc m r.Experiments.Fig9.per_method in
             let combined = cell "combined" in
             List.iter
               (fun m ->
                  let c = cell m in
                  Alcotest.(check bool)
                    (r.Experiments.Fig9.app ^ ": combined >= " ^ m)
                    true
                    (combined.Experiments.Fig9.cost_pct
                     >= c.Experiments.Fig9.cost_pct -. 0.5))
               [ "time"; "memory"; "random" ])
          rows);
    Alcotest.test_case "fig10: monotone then plateau" `Slow (fun () ->
        let rows = Experiments.Fig10.run () in
        List.iter
          (fun r ->
             let costs =
               List.map (fun p -> p.Experiments.Fig10.cost_pct)
                 r.Experiments.Fig10.points
             in
             (* non-decreasing within tolerance *)
             let rec mono = function
               | a :: (b :: _ as rest) -> a <= b +. 0.5 && mono rest
               | _ -> true
             in
             Alcotest.(check bool) (r.Experiments.Fig10.app ^ " monotone") true
               (mono costs);
             (* last two K values identical: the plateau *)
             match List.rev costs with
             | last :: prev :: _ ->
               Alcotest.(check bool) "plateau" true
                 (Float.abs (last -. prev) < 0.5)
             | _ -> Alcotest.fail "needs >= 2 points")
          rows);
    Alcotest.test_case "fig12: C/R crossover and combination wins" `Slow
      (fun () ->
        let rows = Experiments.Fig12.run () in
        let row app =
          List.find (fun r -> r.Experiments.Fig12.app = app) rows
        in
        (* small app: plain C/R worse than original-or-trim *)
        let ffmpeg = row "ffmpeg" in
        Alcotest.(check bool) "ffmpeg: C/R loses to original" true
          (ffmpeg.Experiments.Fig12.cr_ms > ffmpeg.Experiments.Fig12.original_ms);
        (* large app: C/R beats original *)
        let resnet = row "resnet" in
        Alcotest.(check bool) "resnet: C/R beats original" true
          (resnet.Experiments.Fig12.cr_ms < resnet.Experiments.Fig12.original_ms);
        (* combination never loses to pure C/R *)
        List.iter
          (fun r ->
             Alcotest.(check bool) (r.Experiments.Fig12.app ^ " combo <= C/R")
               true
               (r.Experiments.Fig12.cr_trim_ms
                <= r.Experiments.Fig12.cr_ms +. 0.01))
          rows);
    Alcotest.test_case "fig13: median snapstart share > 60%" `Slow (fun () ->
        let series = Experiments.Fig13.run ~n_functions:120 () in
        List.iter
          (fun s ->
             Alcotest.(check bool)
               (s.Experiments.Fig13.label ^ " median > 0.6")
               true
               (s.Experiments.Fig13.median_share > 0.6))
          series);
    Alcotest.test_case "fig14: trimming saves snapstart costs" `Slow (fun () ->
        let rows = Experiments.Fig14.run () in
        let savings = List.map (fun r -> r.Experiments.Fig14.saving_pct) rows in
        Alcotest.(check bool) "avg saving in [5%, 20%]" true
          (let avg = Platform.Metrics.mean savings in
           avg >= 5.0 && avg <= 20.0);
        List.iter
          (fun r ->
             Alcotest.(check bool) (r.Experiments.Fig14.app ^ " non-negative")
               true
               (r.Experiments.Fig14.saving_pct >= -0.5))
          rows);
    Alcotest.test_case "table4: cold fallback ~2x cold baseline" `Slow
      (fun () ->
        let rows = Experiments.Table4.run () in
        List.iter
          (fun r ->
             let c_cold = (List.nth r.Experiments.Table4.cells 0).Experiments.Table4.e2e_s in
             Alcotest.(check bool)
               (r.Experiments.Table4.app ^ " ratio in [1.6, 2.6]")
               true
               (let ratio = c_cold /. r.Experiments.Table4.baseline_cold_s in
                ratio >= 1.6 && ratio <= 2.6))
          rows);
    Alcotest.test_case "fig11 output reports tiny impact" `Slow (fun () ->
        let out = Experiments.Fig11.print () in
        Alcotest.(check bool) "mentions max impact" true
          (contains out "Max |impact|"));
    Alcotest.test_case "durability: every kill resumes identical" `Slow
      (fun () ->
        match String.split_on_char '\n' (Experiments.Durability.csv ()) with
        | header :: rows ->
          Alcotest.(check string) "header"
            "app,kill_after,killed,replayed_records,identical" header;
          let rows = List.filter (fun l -> l <> "") rows in
          Alcotest.(check int) "one row per kill point" 4 (List.length rows);
          List.iter
            (fun row ->
               match String.split_on_char ',' row with
               | [ _; kill_after; killed; _; identical ] ->
                 Alcotest.(check string) (row ^ ": identical") "1" identical;
                 (* 100 outlasts the run; the smaller budgets fire *)
                 Alcotest.(check string) (row ^ ": killed")
                   (if kill_after = "100" then "0" else "1") killed
               | _ -> Alcotest.failf "malformed row %S" row)
            rows
        | [] -> Alcotest.fail "empty csv") ]



let ablation_claims =
  [ Alcotest.test_case "granularity: attr keeps <= stmt keeps" `Slow (fun () ->
        List.iter
          (fun r ->
             Alcotest.(check bool)
               (r.Experiments.Ablations.g_app ^ " attr <= stmt")
               true
               (r.Experiments.Ablations.attr_kept
                <= r.Experiments.Ablations.stmt_kept))
          (List.map Experiments.Ablations.granularity_row
             Experiments.Ablations.apps_small));
    Alcotest.test_case "bursts: resnet saves big, ffmpeg saves nothing" `Slow
      (fun () ->
        let out = Experiments.Ablations.print_bursts () in
        (* the printed table carries the assertions; re-derive the key pair *)
        let burst_saving app =
          let t = Experiments.Common.trimmed app in
          let orig = t.Experiments.Common.original_m.Experiments.Common.cold in
          let trim = t.Experiments.Common.trimmed_m.Experiments.Common.cold in
          let open Platform.Lambda_sim in
          let trace =
            Platform.Trace.bursty ~seed:17 ~burst_size:40 ~burst_rate_per_s:20.0
              ~idle_gap_s:3600.0 ~bursts:24 ~name:"burst-day"
          in
          let bill (r : record) =
            let replay =
              Platform.Trace.replay_concurrent ~exec_s:(r.exec_ms /. 1000.0)
                ~cold_extra_s:(r.init_ms /. 1000.0) trace ~keep_alive_s:900.0
            in
            let c_cold =
              Platform.Pricing.invocation_cost Platform.Pricing.aws
                ~duration_ms:(r.init_ms +. r.exec_ms)
                ~memory_mb:r.peak_memory_mb
            in
            let c_warm =
              Platform.Pricing.invocation_cost Platform.Pricing.aws
                ~duration_ms:r.exec_ms ~memory_mb:r.peak_memory_mb
            in
            (float_of_int replay.Platform.Trace.c_cold_starts *. c_cold)
            +. (float_of_int replay.Platform.Trace.c_warm_starts *. c_warm)
          in
          Platform.Metrics.improvement_pct ~before:(bill orig)
            ~after:(bill trim)
        in
        Alcotest.(check bool) "non-empty output" true (String.length out > 100);
        Alcotest.(check bool) "resnet > 40%" true (burst_saving "resnet" > 40.0);
        Alcotest.(check bool) "ffmpeg < 5%" true (burst_saving "ffmpeg" < 5.0));
    Alcotest.test_case "providers: azure rounding floors short apps" `Slow
      (fun () ->
        let t = Experiments.Common.trimmed "markdown" in
        let orig = t.Experiments.Common.original_m.Experiments.Common.cold in
        let trim = t.Experiments.Common.trimmed_m.Experiments.Common.cold in
        let open Platform.Lambda_sim in
        let cost pricing (r : record) =
          Platform.Pricing.invocation_cost pricing
            ~duration_ms:(r.init_ms +. r.exec_ms) ~memory_mb:r.peak_memory_mb
        in
        let saving pricing =
          Platform.Metrics.improvement_pct ~before:(cost pricing orig)
            ~after:(cost pricing trim)
        in
        Alcotest.(check bool) "aws saving > azure saving" true
          (saving Platform.Pricing.aws > saving Platform.Pricing.azure);
        (* sub-second markdown invocations bill a full second on azure *)
        Alcotest.(check (float 1e-9)) "azure saving ~0" 0.0
          (saving Platform.Pricing.azure)) ]

let suite =
  [ ("experiments.registry", registry); ("experiments.claims", claims);
    ("experiments.ablation_claims", ablation_claims) ]
