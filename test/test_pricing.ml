(* Pricing models: Eq. 1, billing granularity, memory floors. *)

open Platform

let aws = Pricing.aws

let duration =
  [ Alcotest.test_case "aws bills in 1ms increments" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "round up" 124.0
          (Pricing.billed_duration_ms aws 123.2);
        Alcotest.(check (float 1e-9)) "exact" 123.0
          (Pricing.billed_duration_ms aws 123.0));
    Alcotest.test_case "gcp rounds to 100ms" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "round" 200.0
          (Pricing.billed_duration_ms Pricing.gcp 101.0));
    Alcotest.test_case "azure rounds to 1s" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "round" 1000.0
          (Pricing.billed_duration_ms Pricing.azure 1.0));
    Alcotest.test_case "zero duration" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "zero" 0.0 (Pricing.billed_duration_ms aws 0.0)) ]

(* the configured memory a peak footprint bills at, read off Eq. 1: a
   footprint costs exactly what its configuration costs *)
let memory =
  let c m = Pricing.invocation_cost aws ~duration_ms:1000.0 ~memory_mb:m in
  [ Alcotest.test_case "128MB floor" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "floor" (c 128.0) (c 17.0));
    Alcotest.test_case "rounds up to whole MB" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "ceil" (c 301.0) (c 300.2));
    Alcotest.test_case "10GB cap" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "cap" (c 10240.0) (c 99999.0)) ]

let eq1 =
  [ Alcotest.test_case "eq1 arithmetic" `Quick (fun () ->
        (* 1024MB for 1000ms = 1 GB-s -> unit price + request fee *)
        Alcotest.(check (float 1e-12)) "1 GB-s"
          (aws.Pricing.unit_price_per_gb_s +. aws.Pricing.per_request_fee)
          (Pricing.invocation_cost aws ~duration_ms:1000.0 ~memory_mb:1024.0));
    Alcotest.test_case "monotone in duration" `Quick (fun () ->
        let c d = Pricing.invocation_cost aws ~duration_ms:d ~memory_mb:512.0 in
        Alcotest.(check bool) "increasing" true (c 100.0 < c 200.0));
    Alcotest.test_case "monotone in memory" `Quick (fun () ->
        let c m = Pricing.invocation_cost aws ~duration_ms:500.0 ~memory_mb:m in
        Alcotest.(check bool) "increasing" true (c 256.0 < c 512.0));
    Alcotest.test_case "below-floor memory costs the same" `Quick (fun () ->
        let c m = Pricing.invocation_cost aws ~duration_ms:500.0 ~memory_mb:m in
        Alcotest.(check (float 1e-15)) "floor hides small gains" (c 60.0) (c 100.0));
    Alcotest.test_case "per-request fee is charged once per invocation" `Quick
      (fun () ->
        let fee = 2e-7 in
        let priced = { aws with Pricing.per_request_fee = fee } in
        List.iter
          (fun (duration_ms, memory_mb) ->
             let base = Pricing.invocation_cost aws ~duration_ms ~memory_mb in
             Alcotest.(check (float 1e-18))
               (Printf.sprintf "%g ms, %g MB" duration_ms memory_mb)
               (base -. aws.Pricing.per_request_fee +. fee)
               (Pricing.invocation_cost priced ~duration_ms ~memory_mb))
          [ (0.0, 128.0); (250.0, 512.0); (10_000.0, 10240.0) ];
        Alcotest.(check (float 0.0)) "a zero-length call costs the fee" fee
          (Pricing.invocation_cost { priced with Pricing.unit_price_per_gb_s = 0.0 }
             ~duration_ms:1000.0 ~memory_mb:1024.0)) ]

(* Float dust from accumulated arithmetic must not push a duration that is
   a whole number of ticks (up to rounding error) over the boundary into an
   extra billed tick; genuinely fractional durations still round up. *)
let boundary =
  [ Alcotest.test_case "aws: accumulated dust at a 1ms boundary" `Quick
      (fun () ->
        (* 29.9 +. 0.1 = 30.000000000000004 *)
        Alcotest.(check (float 1e-9)) "bills 30, not 31" 30.0
          (Pricing.billed_duration_ms aws (29.9 +. 0.1));
        Alcotest.(check (float 1e-9)) "real fraction still rounds up" 31.0
          (Pricing.billed_duration_ms aws 30.001));
    Alcotest.test_case "gcp: dust at a 100ms boundary" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "bills 1000, not 1100" 1000.0
          (Pricing.billed_duration_ms Pricing.gcp 1000.0000000002);
        Alcotest.(check (float 1e-9)) "real fraction still rounds up" 1100.0
          (Pricing.billed_duration_ms Pricing.gcp 1001.0));
    Alcotest.test_case "azure: dust at a 1s boundary" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "above: bills 3000, not 4000" 3000.0
          (Pricing.billed_duration_ms Pricing.azure 3000.0000000000005);
        Alcotest.(check (float 1e-9)) "below: bills 3000, not 2000" 3000.0
          (Pricing.billed_duration_ms Pricing.azure 2999.9999999999995);
        Alcotest.(check (float 1e-9)) "real fraction still rounds up" 3000.0
          (Pricing.billed_duration_ms Pricing.azure 2000.5));
    Alcotest.test_case "tiny positive durations bill one tick" `Quick
      (fun () ->
        Alcotest.(check (float 1e-9)) "aws 0.3ms -> 1ms" 1.0
          (Pricing.billed_duration_ms aws 0.3);
        Alcotest.(check (float 1e-9)) "gcp 1ms -> 100ms" 100.0
          (Pricing.billed_duration_ms Pricing.gcp 1.0)) ]

let suite =
  [ ("pricing.duration", duration); ("pricing.boundary", boundary);
    ("pricing.memory", memory); ("pricing.eq1", eq1) ]
