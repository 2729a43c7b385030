(* C/R models: CRIU restore crossover (Fig 12) and SnapStart costs (Fig 13/14). *)

let criu =
  [ Alcotest.test_case "checkpoint size grows with footprint" `Quick (fun () ->
        let s m = Checkpoint.Criu.checkpoint_size_mb ~post_init_memory_mb:m () in
        Alcotest.(check bool) "monotone" true (s 50.0 < s 500.0));
    Alcotest.test_case "restore has a fixed base overhead" `Quick (fun () ->
        let r = Checkpoint.Criu.restore_ms ~checkpoint_mb:0.0 () in
        Alcotest.(check (float 1e-9)) "~100ms" 100.0 r);
    Alcotest.test_case "small apps: C/R slower than plain init" `Quick (fun () ->
        let cr =
          Checkpoint.Criu.init_time_ms ~variant:Checkpoint.Criu.Cr
            ~orig_init_ms:100.0 ~orig_post_init_mb:60.0 ~trim_init_ms:60.0
            ~trim_post_init_mb:45.0 ()
        in
        Alcotest.(check bool) (Printf.sprintf "cr %.0f > 100" cr) true (cr > 100.0));
    Alcotest.test_case "large apps: C/R beats plain init" `Quick (fun () ->
        let cr =
          Checkpoint.Criu.init_time_ms ~variant:Checkpoint.Criu.Cr
            ~orig_init_ms:5000.0 ~orig_post_init_mb:600.0 ~trim_init_ms:2000.0
            ~trim_post_init_mb:400.0 ()
        in
        Alcotest.(check bool) (Printf.sprintf "cr %.0f < 5000" cr) true (cr < 5000.0));
    Alcotest.test_case "combining trim reduces checkpoint and restore" `Quick
      (fun () ->
        let t v =
          Checkpoint.Criu.init_time_ms ~variant:v ~orig_init_ms:3000.0
            ~orig_post_init_mb:500.0 ~trim_init_ms:1200.0 ~trim_post_init_mb:300.0 ()
        in
        Alcotest.(check bool) "cr+trim < cr" true
          (t Checkpoint.Criu.Cr_and_trimmed < t Checkpoint.Criu.Cr));
    Alcotest.test_case "variant names" `Quick (fun () ->
        Alcotest.(check string) "orig" "original"
          (Checkpoint.Criu.variant_name Checkpoint.Criu.Original)) ]

let snapstart =
  [ Alcotest.test_case "share = support / total" `Quick (fun () ->
        let c = { Checkpoint.Snapstart.invocation_cost = 1.0; cache_cost = 2.0;
                  restore_cost = 0.5 }
        in
        Alcotest.(check (float 1e-12)) "share" (2.5 /. 3.5)
          (Checkpoint.Snapstart.snapstart_share c));
    Alcotest.test_case "rare functions dominated by cache cost" `Quick (fun () ->
        let c =
          Checkpoint.Snapstart.costs_over_window
            ~lambda_pricing:Platform.Pricing.aws ~snapshot_mb:300.0
            ~memory_mb:256.0 ~billed_ms_cold:400.0 ~billed_ms_warm:100.0
            ~cold_starts:1 ~warm_starts:3 ~window_s:86400.0 ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "share %.2f > 0.6" (Checkpoint.Snapstart.snapstart_share c))
          true
          (Checkpoint.Snapstart.snapstart_share c > 0.6));
    Alcotest.test_case "hot functions amortize the snapshot" `Quick (fun () ->
        let c =
          Checkpoint.Snapstart.costs_over_window
            ~lambda_pricing:Platform.Pricing.aws ~snapshot_mb:300.0
            ~memory_mb:512.0 ~billed_ms_cold:400.0 ~billed_ms_warm:200.0
            ~cold_starts:10 ~warm_starts:86000 ~window_s:86400.0 ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "share %.2f < 0.5" (Checkpoint.Snapstart.snapstart_share c))
          true
          (Checkpoint.Snapstart.snapstart_share c < 0.5));
    Alcotest.test_case "smaller snapshot, lower snapstart cost" `Quick (fun () ->
        let cost mb =
          let c =
            Checkpoint.Snapstart.costs_over_window
              ~lambda_pricing:Platform.Pricing.aws ~snapshot_mb:mb
              ~memory_mb:256.0 ~billed_ms_cold:300.0 ~billed_ms_warm:100.0
              ~cold_starts:5 ~warm_starts:50 ~window_s:86400.0 ()
          in
          c.Checkpoint.Snapstart.cache_cost +. c.Checkpoint.Snapstart.restore_cost
        in
        Alcotest.(check bool) "monotone" true (cost 150.0 < cost 400.0));
    Alcotest.test_case "snapshot size model" `Quick (fun () ->
        let s = Checkpoint.Snapstart.snapshot_size_mb ~post_init_memory_mb:100.0
            ~image_mb:200.0
        in
        Alcotest.(check bool) "bigger than process image" true
          (s > Checkpoint.Criu.checkpoint_size_mb ~post_init_memory_mb:100.0 ())) ]

let suite = [ ("checkpoint.criu", criu); ("checkpoint.snapstart", snapstart) ]
