(* Faults and resilience: zero-fault bit-compatibility with the fault-free
   router, retry-budget bounds, breaker state machine, and deterministic
   fault-plan replay. *)

open Fleet

let profile =
  { Router.exec_s = 0.2; func_init_s = 0.8; instance_init_s = 0.3;
    memory_mb = 512.0 }

let policy = Pool.Fixed_ttl { keep_alive_s = 600.0 }

let config ?fallback ?(faults = Faults.none) ?(resilience = Resilience.none)
    () =
  { (Router.default_config ~profile policy) with
    Router.fallback; faults; resilience }

let trace ~seed ~rate_per_s ~duration_s =
  Platform.Trace.poisson ~seed ~rate_per_s ~duration_s ~name:"resilience-test"

let some_faults =
  { Faults.seed = 11; init_failure_rate = 0.15; crash_rate = 0.1;
    transient_error_rate = 0.1; churn_rate = 0.1 }

let retry3 =
  { Resilience.none with
    Resilience.retry = Some Resilience.default_retry;
    request_timeout_s = 120.0 }

let fb ~rate =
  Scenario.fallback ~rate ~seed:7
    ~original:{ profile with Router.func_init_s = 1.6 } ()

(* --- zero-fault bit-compatibility ---------------------------------------- *)

let record_eq (a : Router.record) (b : Router.record) =
  a.Router.req = b.Router.req
  && a.Router.arrival_s = b.Router.arrival_s
  && a.Router.start_s = b.Router.start_s
  && a.Router.finish_s = b.Router.finish_s
  && a.Router.outcome = b.Router.outcome
  && a.Router.billed_ms = b.Router.billed_ms
  && a.Router.fb_billed_ms = b.Router.fb_billed_ms

let qcheck_alcotest t = QCheck_alcotest.to_alcotest t

let policies =
  [| policy;
     Pool.Lru { keep_alive_s = 300.0; max_idle = 2 };
     Pool.Adaptive { min_s = 60.0; max_s = 600.0; percentile = 99.0 } |]

let fb_rates = [| None; Some 0.01; Some 0.3 |]

let bitcompat =
  [ qcheck_alcotest
      (QCheck.Test.make ~count:20 ~name:"zero-fault + retries = fault-free run"
         QCheck.(triple (int_bound 1_000_000) (int_bound 2) (int_bound 2))
         (fun (fault_seed, p, f) ->
            (* enabling resilience with all fault rates at zero must not
               perturb a single record, whatever the fault seed *)
            let t = trace ~seed:3 ~rate_per_s:2.0 ~duration_s:900.0 in
            let zero_faults = { Faults.none with Faults.seed = fault_seed } in
            let fallback = Option.map (fun rate -> fb ~rate) fb_rates.(f) in
            let cfg = { (config ?fallback ()) with Router.policy = policies.(p) } in
            let plain = Router.run cfg t in
            let armed =
              Router.run
                { cfg with Router.faults = zero_faults; resilience = retry3 } t
            in
            List.length (Record_ref.records plain)
            = List.length (Record_ref.records armed)
            && List.for_all2 record_eq (Record_ref.records plain)
                 (Record_ref.records armed)
            && plain.Router.peak_instances = armed.Router.peak_instances
            && plain.Router.resident_instance_s
               = armed.Router.resident_instance_s));
    qcheck_alcotest
      (QCheck.Test.make ~count:100 ~name:"zero rates draw no fault at any seed"
         QCheck.(quad (int_bound 1_000_000) (int_bound 100_000) (int_bound 4)
                   bool)
         (fun (seed, req, attempt, cold) ->
            (* the plan itself, below the router: a zero-rate config at any
               seed is [none] and never fires a fault or a churn *)
            let zero = { Faults.none with Faults.seed } in
            Faults.attempt_fault zero ~cold ~req ~attempt = Faults.No_fault
            && (not (Faults.churned zero ~fb:false ~req ~attempt))
            && not (Faults.churned zero ~fb:true ~req ~attempt))) ]

(* --- retry budget ---------------------------------------------------------- *)

let retry_budget =
  [ qcheck_alcotest
      (QCheck.Test.make ~count:30 ~name:"attempts never exceed budget"
         QCheck.(triple (int_bound 1000) (int_bound 3) (float_bound_inclusive 0.3))
         (fun (seed, max_retries, rate) ->
            let t = trace ~seed:(seed + 1) ~rate_per_s:1.0 ~duration_s:600.0 in
            let faults =
              { Faults.seed; init_failure_rate = rate; crash_rate = rate;
                transient_error_rate = rate; churn_rate = rate /. 2.0 }
            in
            let resilience =
              { retry3 with
                Resilience.retry =
                  Some { Resilience.default_retry with
                         Resilience.max_retries };
                hedge = Some { Resilience.hedge_delay_s = 0.5 } }
            in
            let res = Router.run (config ~faults ~resilience ()) t in
            List.for_all
              (fun (r : Router.record) ->
                 let budget =
                   1 + max_retries + (if r.Router.hedged then 1 else 0)
                 in
                 r.Router.attempts <= budget && r.Router.attempts >= 0)
              (Record_ref.records res)));
    qcheck_alcotest
      (QCheck.Test.make ~count:30 ~name:"no retries = at most one attempt"
         QCheck.(pair (int_bound 1000) (float_bound_inclusive 0.3))
         (fun (seed, rate) ->
            let t = trace ~seed:(seed + 1) ~rate_per_s:1.0 ~duration_s:600.0 in
            let faults =
              { Faults.seed; init_failure_rate = rate; crash_rate = rate;
                transient_error_rate = rate; churn_rate = 0.0 }
            in
            let res = Router.run (config ~faults ()) t in
            List.for_all
              (fun (r : Router.record) -> r.Router.attempts <= 1)
              (Record_ref.records res)));
    qcheck_alcotest
      (QCheck.Test.make ~count:30 ~name:"billed durations are non-negative"
         QCheck.(pair (int_bound 1000) (float_bound_inclusive 0.5))
         (fun (seed, rate) ->
            let t = trace ~seed:(seed + 1) ~rate_per_s:2.0 ~duration_s:300.0 in
            let faults =
              { Faults.seed; init_failure_rate = rate; crash_rate = rate;
                transient_error_rate = rate; churn_rate = rate }
            in
            let res =
              Router.run
                (config ~fallback:(fb ~rate:0.1) ~faults ~resilience:retry3 ())
                t
            in
            List.for_all
              (fun (r : Router.record) ->
                 r.Router.billed_ms >= 0.0 && r.Router.fb_billed_ms >= 0.0)
              (Record_ref.records res))) ]

(* --- backoff --------------------------------------------------------------- *)

let backoff =
  [ Alcotest.test_case "exponential growth up to the cap" `Quick (fun () ->
        let r =
          { Resilience.max_retries = 10; base_backoff_s = 0.2;
            max_backoff_s = 1.0; full_jitter = false }
        in
        Alcotest.(check (float 1e-12)) "retry 0" 0.2
          (Resilience.backoff_s r ~retry_index:0 ~jitter_u:0.5);
        Alcotest.(check (float 1e-12)) "retry 1" 0.4
          (Resilience.backoff_s r ~retry_index:1 ~jitter_u:0.5);
        Alcotest.(check (float 1e-12)) "retry 2" 0.8
          (Resilience.backoff_s r ~retry_index:2 ~jitter_u:0.5);
        Alcotest.(check (float 1e-12)) "capped" 1.0
          (Resilience.backoff_s r ~retry_index:3 ~jitter_u:0.5);
        Alcotest.(check (float 1e-12)) "still capped far out" 1.0
          (Resilience.backoff_s r ~retry_index:60 ~jitter_u:0.5));
    qcheck_alcotest
      (QCheck.Test.make ~count:100 ~name:"full jitter stays within [0, cap]"
         QCheck.(triple (int_bound 20) (float_bound_inclusive 1.0) (float_bound_inclusive 5.0))
         (fun (idx, u, base) ->
            let r =
              { Resilience.max_retries = 25; base_backoff_s = base;
                max_backoff_s = 4.0 *. base; full_jitter = true }
            in
            let b = Resilience.backoff_s r ~retry_index:idx ~jitter_u:u in
            b >= 0.0 && b <= 4.0 *. base)) ]

(* --- circuit breaker ------------------------------------------------------- *)

let breaker_cfg =
  { Resilience.Breaker.error_threshold = 0.5; window = 10; min_samples = 4;
    cooldown_s = 30.0 }

let breaker =
  [ Alcotest.test_case "opens, sheds, half-opens, closes on probe success"
      `Quick (fun () ->
        let b = Resilience.Breaker.create breaker_cfg in
        Alcotest.(check bool) "starts closed" true
          (Resilience.Breaker.state b = Resilience.Breaker.Closed);
        (* 4 failures out of 4: rate 1.0 >= 0.5 with min_samples met *)
        for i = 0 to 3 do
          Resilience.Breaker.record b ~now:(float_of_int i) ~failed:true
        done;
        Alcotest.(check bool) "open after failures" true
          (Resilience.Breaker.state b = Resilience.Breaker.Open);
        Alcotest.(check bool) "sheds while open" true
          (Resilience.Breaker.admit b ~now:10.0 = Resilience.Breaker.Shed);
        (* past cooldown: a single probe is admitted, the next sheds *)
        Alcotest.(check bool) "probe after cooldown" true
          (Resilience.Breaker.admit b ~now:40.0 = Resilience.Breaker.Probe);
        Alcotest.(check bool) "half-open" true
          (Resilience.Breaker.state b = Resilience.Breaker.Half_open);
        Alcotest.(check bool) "second request sheds during probe" true
          (Resilience.Breaker.admit b ~now:41.0 = Resilience.Breaker.Shed);
        Resilience.Breaker.probe_result b ~now:42.0 ~failed:false;
        Alcotest.(check bool) "closed after probe success" true
          (Resilience.Breaker.state b = Resilience.Breaker.Closed);
        Alcotest.(check bool) "admits again" true
          (Resilience.Breaker.admit b ~now:43.0 = Resilience.Breaker.Admit));
    Alcotest.test_case "probe failure re-opens" `Quick (fun () ->
        let b = Resilience.Breaker.create breaker_cfg in
        for i = 0 to 3 do
          Resilience.Breaker.record b ~now:(float_of_int i) ~failed:true
        done;
        ignore (Resilience.Breaker.admit b ~now:40.0);
        Resilience.Breaker.probe_result b ~now:41.0 ~failed:true;
        Alcotest.(check bool) "open again" true
          (Resilience.Breaker.state b = Resilience.Breaker.Open);
        Alcotest.(check bool) "sheds inside second cooldown" true
          (Resilience.Breaker.admit b ~now:60.0 = Resilience.Breaker.Shed);
        Alcotest.(check bool) "half-opens after second cooldown" true
          (Resilience.Breaker.admit b ~now:72.0 = Resilience.Breaker.Probe));
    Alcotest.test_case "below min_samples never trips" `Quick (fun () ->
        let b = Resilience.Breaker.create breaker_cfg in
        for i = 0 to 2 do
          Resilience.Breaker.record b ~now:(float_of_int i) ~failed:true
        done;
        Alcotest.(check bool) "still closed" true
          (Resilience.Breaker.state b = Resilience.Breaker.Closed));
    Alcotest.test_case "window slides old samples out" `Quick (fun () ->
        let b = Resilience.Breaker.create breaker_cfg in
        (* 5 failures, then 10 successes: the window (10) retains only the
           successes, so the rate is 0 and the breaker must stay closed —
           but it trips mid-way, so build the successes first *)
        for i = 0 to 9 do
          Resilience.Breaker.record b ~now:(float_of_int i) ~failed:false
        done;
        for i = 10 to 13 do
          Resilience.Breaker.record b ~now:(float_of_int i) ~failed:true
        done;
        (* 4 failures in a 10-deep window = 0.4 < 0.5 *)
        Alcotest.(check bool) "under threshold stays closed" true
          (Resilience.Breaker.state b = Resilience.Breaker.Closed);
        Resilience.Breaker.record b ~now:14.0 ~failed:true;
        Alcotest.(check bool) "crossing threshold opens" true
          (Resilience.Breaker.state b = Resilience.Breaker.Open)) ]

(* --- determinism ----------------------------------------------------------- *)

let full_policy =
  { Resilience.retry = Some Resilience.default_retry;
    request_timeout_s = 120.0;
    breaker =
      Some { Resilience.Breaker.error_threshold = 0.3; window = 20;
             min_samples = 10; cooldown_s = 60.0 };
    hedge = Some { Resilience.hedge_delay_s = 0.5 } }

let determinism =
  [ Alcotest.test_case "same seed replays the identical fault plan" `Quick
      (fun () ->
        let t = trace ~seed:17 ~rate_per_s:2.0 ~duration_s:900.0 in
        let cfg =
          config ~fallback:(fb ~rate:0.25) ~faults:some_faults
            ~resilience:full_policy ()
        in
        let a = Router.run cfg t and b = Router.run cfg t in
        Alcotest.(check int) "same record count"
          (List.length (Record_ref.records a)) (List.length (Record_ref.records b));
        List.iter2
          (fun (x : Router.record) (y : Router.record) ->
             Alcotest.(check bool)
               (Printf.sprintf "record %d replays" x.Router.req)
               true
               (record_eq x y
                && x.Router.attempts = y.Router.attempts
                && x.Router.hedged = y.Router.hedged))
          (Record_ref.records a) (Record_ref.records b);
        Alcotest.(check int) "same events" a.Router.events_processed
          b.Router.events_processed);
    Alcotest.test_case "faults hurt availability, retries amplify" `Quick
      (fun () ->
        let t = trace ~seed:23 ~rate_per_s:2.0 ~duration_s:1800.0 in
        let faulted = config ~faults:some_faults () in
        let resilient = config ~faults:some_faults ~resilience:retry3 () in
        let bare =
          Report.summarize ~label:"bare" faulted (Router.run faulted t)
        in
        let cured =
          Report.summarize ~label:"cured" resilient (Router.run resilient t)
        in
        Alcotest.(check bool) "faults lose requests" true
          (bare.Report.availability < 1.0);
        Alcotest.(check bool) "retries recover most" true
          (cured.Report.availability > bare.Report.availability);
        Alcotest.(check bool) "retries amplify invocations" true
          (cured.Report.retry_amplification > 1.0));
    Alcotest.test_case "fault plan is order-independent" `Quick (fun () ->
        (* the same (req, attempt) draw must not depend on how many other
           requests were drawn in between *)
        let f = some_faults in
        let direct = Faults.attempt_fault f ~cold:true ~req:500 ~attempt:2 in
        for req = 0 to 999 do
          ignore (Faults.attempt_fault f ~cold:false ~req ~attempt:0)
        done;
        Alcotest.(check bool) "same draw after interleaving" true
          (direct = Faults.attempt_fault f ~cold:true ~req:500 ~attempt:2)) ]

let suite =
  [ ("resilience: zero-fault bit-compat", bitcompat);
    ("resilience: retry budget", retry_budget);
    ("resilience: backoff", backoff);
    ("resilience: circuit breaker", breaker);
    ("resilience: determinism", determinism) ]
