(* Observability substrate: span recording and nesting invariants, the
   metrics registry, byte-exact exporter goldens, null-sink neutrality, and
   measurement neutrality of the instrumentation (tracing a run must not
   change what the run computes). *)

let with_recorder f =
  let sink = Obs.Span.recorder () in
  Obs.Span.install sink;
  Fun.protect
    ~finally:(fun () -> Obs.Span.install Obs.Span.null)
    (fun () -> f sink)

(* --- span lifecycle and nesting invariant -------------------------------- *)

let emit sink ~track ~name ~start_ms ~end_ms =
  let sp =
    Obs.Span.begin_ sink ~domain:Obs.Span.domain_virtual ~track ~cat:"t"
      ~name ~ts_ms:start_ms
  in
  Obs.Span.end_ sp ~ts_ms:end_ms

let spans_suite =
  [ Alcotest.test_case "recorder keeps spans in begin order" `Quick (fun () ->
        let sink = Obs.Span.recorder () in
        emit sink ~track:1 ~name:"outer" ~start_ms:0.0 ~end_ms:10.0;
        emit sink ~track:1 ~name:"later" ~start_ms:20.0 ~end_ms:30.0;
        let names =
          List.map (fun s -> s.Obs.Span.sp_name) (Obs.Span.spans sink)
        in
        Alcotest.(check (list string)) "order" [ "outer"; "later" ] names);
    Alcotest.test_case "attrs accumulate in call order" `Quick (fun () ->
        let sink = Obs.Span.recorder () in
        let sp =
          Obs.Span.begin_ sink ~domain:1 ~track:1 ~cat:"t" ~name:"s"
            ~ts_ms:0.0
        in
        Obs.Span.add_attr sp "a" "1";
        Obs.Span.end_ sp ~attrs:[ ("b", "2") ] ~ts_ms:1.0;
        let s = List.hd (Obs.Span.spans sink) in
        Alcotest.(check (list (pair string string)))
          "attrs" [ ("a", "1"); ("b", "2") ] s.Obs.Span.sp_attrs);
    Alcotest.test_case "non-monotone end clamps duration to zero" `Quick
      (fun () ->
        let sink = Obs.Span.recorder () in
        emit sink ~track:1 ~name:"backwards" ~start_ms:5.0 ~end_ms:3.0;
        let s = List.hd (Obs.Span.spans sink) in
        Alcotest.(check (float 1e-12)) "clamped" 0.0 s.Obs.Span.sp_dur_ms);
    Alcotest.test_case "nesting invariant" `Quick (fun () ->
        let ok = Obs.Span.recorder () in
        emit ok ~track:1 ~name:"outer" ~start_ms:0.0 ~end_ms:10.0;
        emit ok ~track:1 ~name:"inner" ~start_ms:2.0 ~end_ms:8.0;
        emit ok ~track:1 ~name:"adjacent" ~start_ms:10.0 ~end_ms:12.0;
        emit ok ~track:2 ~name:"other-track" ~start_ms:1.0 ~end_ms:11.0;
        Alcotest.(check bool) "nested/disjoint/boundary all pass" true
          (Obs.Span.well_nested (Obs.Span.spans ok));
        let bad = Obs.Span.recorder () in
        emit bad ~track:1 ~name:"a" ~start_ms:0.0 ~end_ms:10.0;
        emit bad ~track:1 ~name:"b" ~start_ms:5.0 ~end_ms:15.0;
        Alcotest.(check bool) "straddling pair rejected" false
          (Obs.Span.well_nested (Obs.Span.spans bad));
        Alcotest.(check bool) "violation is reported" true
          (Obs.Span.nesting_violation (Obs.Span.spans bad) <> None)) ]

(* --- null-sink neutrality ------------------------------------------------- *)

let null_suite =
  [ Alcotest.test_case "null sink observes nothing" `Quick (fun () ->
        let h =
          Obs.Span.begin_ Obs.Span.null ~domain:1 ~track:1 ~cat:"t" ~name:"x"
            ~ts_ms:0.0
        in
        Obs.Span.add_attr h "k" "v";
        Obs.Span.end_ h ~ts_ms:1.0;
        Obs.Span.instant Obs.Span.null ~domain:1 ~track:1 ~cat:"t" ~name:"i"
          ~ts_ms:0.0;
        Alcotest.(check bool) "disabled" false (Obs.Span.enabled Obs.Span.null);
        Alcotest.(check int) "no spans" 0
          (List.length (Obs.Span.spans Obs.Span.null));
        Alcotest.(check int) "track 0" 0 (Obs.Span.fresh_track Obs.Span.null));
    Alcotest.test_case "with_span on null never reads the clock" `Quick
      (fun () ->
        let r =
          Obs.Span.with_span Obs.Span.null ~domain:1 ~track:1 ~cat:"t"
            ~name:"x"
            ~clock:(fun () -> Alcotest.fail "clock read on null sink")
            (fun () -> 42)
        in
        Alcotest.(check int) "passthrough" 42 r) ]

(* --- metrics registry ----------------------------------------------------- *)

let metrics_suite =
  [ Alcotest.test_case "counter is get-or-create" `Quick (fun () ->
        let reg = Obs.Metrics.create () in
        let a = Obs.Metrics.counter reg "x" in
        let b = Obs.Metrics.counter reg "x" in
        Obs.Metrics.incr a;
        Obs.Metrics.incr ~by:2 b;
        Alcotest.(check int) "shared" 3 (Obs.Metrics.value a));
    Alcotest.test_case "kind mismatch is rejected" `Quick (fun () ->
        let reg = Obs.Metrics.create () in
        ignore (Obs.Metrics.counter reg "x");
        Alcotest.(check bool) "raises" true
          (try
             ignore (Obs.Metrics.gauge reg "x");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "histogram keeps moment summaries" `Quick (fun () ->
        let reg = Obs.Metrics.create () in
        let h = Obs.Metrics.histogram reg "lat" in
        List.iter (Obs.Metrics.observe h) [ 2.0; 4.0; 3.0 ];
        Alcotest.(check int) "count" 3 (Obs.Metrics.histogram_count h);
        Alcotest.(check (float 1e-9)) "sum" 9.0 (Obs.Metrics.histogram_sum h);
        Alcotest.(check (float 1e-9)) "min" 2.0 (Obs.Metrics.histogram_min h);
        Alcotest.(check (float 1e-9)) "max" 4.0 (Obs.Metrics.histogram_max h);
        Alcotest.(check (float 1e-9)) "mean" 3.0
          (Obs.Metrics.histogram_mean h));
    Alcotest.test_case "reset zeroes but handles stay valid" `Quick (fun () ->
        let reg = Obs.Metrics.create () in
        let c = Obs.Metrics.counter reg "x" in
        Obs.Metrics.incr ~by:5 c;
        Obs.Metrics.reset reg;
        Alcotest.(check int) "zeroed" 0 (Obs.Metrics.value c);
        Obs.Metrics.incr c;
        Alcotest.(check int) "still live" 1 (Obs.Metrics.value c));
    Alcotest.test_case "fold walks instruments in name order" `Quick (fun () ->
        let reg = Obs.Metrics.create () in
        ignore (Obs.Metrics.counter reg "b");
        ignore (Obs.Metrics.gauge reg "a");
        ignore (Obs.Metrics.histogram reg "c");
        let names =
          List.rev
            (Obs.Metrics.fold reg
               (fun acc i ->
                  (match i with
                   | Obs.Metrics.Counter c -> Obs.Metrics.counter_name c
                   | Obs.Metrics.Gauge g -> Obs.Metrics.gauge_name g
                   | Obs.Metrics.Histogram h -> Obs.Metrics.histogram_name h)
                  :: acc)
               [])
        in
        Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] names) ]

(* --- exporter goldens ------------------------------------------------------

   The exporters print floats at fixed precision precisely so identical
   runs export identical bytes; these goldens pin the byte format. *)

let golden_sink () =
  let sink = Obs.Span.recorder () in
  let sp =
    Obs.Span.begin_ sink ~domain:Obs.Span.domain_virtual ~track:1
      ~cat:"minipy" ~name:"import:json" ~ts_ms:10.0
  in
  Obs.Span.end_ sp ~attrs:[ ("file", "/lib/json.py") ] ~ts_ms:12.5;
  Obs.Span.instant sink ~domain:Obs.Span.domain_fleet ~track:7 ~cat:"fleet"
    ~name:"retry" ~ts_ms:0.5;
  sink

let golden_registry () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:3 (Obs.Metrics.counter reg "a.hits");
  Obs.Metrics.set (Obs.Metrics.gauge reg "b.depth") 2.5;
  let h = Obs.Metrics.histogram reg "c.lat" in
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.observe h 3.0;
  reg

let chrome_golden =
  String.concat ",\n"
    [ "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
       \"tid\":0,\"args\":{\"name\":\"virtual-clock\"}}";
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\
       \"args\":{\"name\":\"fleet-sim\"}}";
      "{\"name\":\"import:json\",\"cat\":\"minipy\",\"ph\":\"X\",\"pid\":1,\
       \"tid\":1,\"ts\":10000.000,\"dur\":2500.000,\
       \"args\":{\"file\":\"/lib/json.py\"}}";
      "{\"name\":\"retry\",\"cat\":\"fleet\",\"ph\":\"i\",\"s\":\"t\",\
       \"pid\":3,\"tid\":7,\"ts\":500.000,\"args\":{}}],\
       \"displayTimeUnit\":\"ms\",\"otherData\":{\"metrics\":{\"a.hits\":3,\
       \"b.depth\":2.5,\"c.lat\":{\"count\":2,\"sum\":4,\"min\":1,\
       \"max\":3}}}}\n" ]

let export_suite =
  [ Alcotest.test_case "chrome trace JSON golden" `Quick (fun () ->
        Alcotest.(check string) "bytes" chrome_golden
          (Obs.Export.chrome_json ~metrics:(golden_registry ())
             (golden_sink ())));
    Alcotest.test_case "summary CSV golden" `Quick (fun () ->
        Alcotest.(check string) "bytes"
          ("clock,cat,name,count,total_ms,mean_ms,max_ms\n"
           ^ "virtual-clock,minipy,import:json,1,2.500000,2.500000,2.500000\n"
           ^ "fleet-sim,fleet,retry,1,0.000000,0.000000,0.000000\n")
          (Obs.Export.summary_csv (golden_sink ())));
    Alcotest.test_case "metrics CSV golden" `Quick (fun () ->
        Alcotest.(check string) "bytes"
          ("name,kind,count_or_value,sum,min,max\n" ^ "a.hits,counter,3,,,\n"
           ^ "b.depth,gauge,2.5,,,\n" ^ "c.lat,histogram,2,4,1,3\n")
          (Obs.Export.metrics_csv (golden_registry ())));
    Alcotest.test_case "JSON string escaping" `Quick (fun () ->
        let sink = Obs.Span.recorder () in
        Obs.Span.instant sink ~domain:1 ~track:1 ~cat:"t"
          ~name:"quote\" slash\\ tab\t nl\n"
          ~attrs:[ ("k", "\x01") ]
          ~ts_ms:0.0;
        let json = Obs.Export.chrome_json sink in
        Alcotest.(check bool) "escaped" true
          (let contains s sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length s
               && (String.sub s i n = sub || go (i + 1))
             in
             go 0
           in
           contains json "quote\\\" slash\\\\ tab\\t nl\\n"
           && contains json "\\u0001")) ]

(* --- instrumented layers stay well-nested (property) ---------------------- *)

let sim_profile =
  { Fleet.Router.exec_s = 0.2; func_init_s = 0.8; instance_init_s = 0.3;
    memory_mb = 512.0 }

let qcheck_suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"lambda_sim traces are well-nested with non-negative durations"
         QCheck.(small_list (int_bound 30))
         (fun gaps ->
            with_recorder (fun sink ->
                let sim =
                  Platform.Lambda_sim.create (Workloads.Suite.tiny_app ())
                in
                let now = ref 0.0 in
                List.iteri
                  (fun i gap ->
                     now := !now +. float_of_int gap;
                     if i mod 5 = 4 then Platform.Lambda_sim.evict sim;
                     ignore (Platform.Lambda_sim.invoke sim ~now_s:!now ()))
                  gaps;
                let spans = Obs.Span.spans sink in
                Obs.Span.well_nested spans
                && List.for_all
                     (fun s -> s.Obs.Span.sp_dur_ms >= 0.0)
                     spans)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"fleet traces are well-nested under faults and resilience"
         QCheck.(int_bound 1000)
         (fun seed ->
            with_recorder (fun sink ->
                let faults =
                  { Fleet.Faults.seed; init_failure_rate = 0.3;
                    crash_rate = 0.2; transient_error_rate = 0.2;
                    churn_rate = 0.1 }
                in
                let resilience =
                  { Fleet.Resilience.retry =
                      Some Fleet.Resilience.default_retry;
                    request_timeout_s = 120.0;
                    breaker = Some Fleet.Resilience.Breaker.default;
                    hedge = Some { Fleet.Resilience.hedge_delay_s = 1.0 } }
                in
                let fallback =
                  Fleet.Scenario.fallback ~rate:0.3 ~seed:7
                    ~original:
                      { sim_profile with Fleet.Router.func_init_s = 1.6 }
                    ()
                in
                let cfg =
                  { (Fleet.Router.default_config ~profile:sim_profile
                       (Fleet.Pool.Fixed_ttl { keep_alive_s = 60.0 }))
                    with
                    Fleet.Router.fallback = Some fallback;
                    faults;
                    resilience }
                in
                let trace =
                  Platform.Trace.poisson ~seed ~rate_per_s:3.0
                    ~duration_s:60.0 ~name:"obs-prop"
                in
                ignore (Fleet.Router.run cfg trace);
                (* a second run on the same sink must land on disjoint
                   tracks — this is the collision the run namespace fixes *)
                ignore (Fleet.Router.run cfg trace);
                let spans = Obs.Span.spans sink in
                Obs.Span.well_nested spans
                && List.for_all
                     (fun s -> s.Obs.Span.sp_dur_ms >= 0.0)
                     spans))) ]

(* Shrunk counterexample of the property above: at 32 s the exec phase's
   end (boundaries summed phase by phase) and the invoke span's end once
   differed by one ulp, putting the child past its parent. *)
let sim_regression_suite =
  [ Alcotest.test_case "invoke span ends exactly where its exec phase ends"
      `Quick (fun () ->
        with_recorder (fun sink ->
            let sim = Platform.Lambda_sim.create (Workloads.Suite.tiny_app ()) in
            List.iter
              (fun now_s ->
                 ignore (Platform.Lambda_sim.invoke sim ~now_s ()))
              [ 5.0; 13.0; 32.0; 32.0 ];
            Platform.Lambda_sim.evict sim;
            ignore (Platform.Lambda_sim.invoke sim ~now_s:32.0 ());
            let spans = Obs.Span.spans sink in
            Alcotest.(check bool) "well-nested" true
              (Obs.Span.well_nested spans);
            let end_of s = s.Obs.Span.sp_start_ms +. s.Obs.Span.sp_dur_ms in
            let by_name n =
              List.filter (fun s -> s.Obs.Span.sp_name = n) spans
              |> List.sort (fun a b -> compare a.Obs.Span.sp_track b.Obs.Span.sp_track)
            in
            let invokes = by_name "invoke"
            and execs = by_name "phase:function_exec" in
            Alcotest.(check int) "one exec phase per invoke"
              (List.length invokes) (List.length execs);
            List.iter2
              (fun inv ex ->
                 Alcotest.(check (float 0.0)) "same end" (end_of inv)
                   (end_of ex))
              invokes execs));
    Alcotest.test_case "invoke span lasts the record's e2e_ms" `Quick
      (fun () ->
        with_recorder (fun sink ->
            let sim = Platform.Lambda_sim.create (Workloads.Suite.tiny_app ()) in
            let cold = Platform.Lambda_sim.invoke sim ~now_s:7.0 () in
            let warm = Platform.Lambda_sim.invoke sim ~now_s:9.0 () in
            let invokes =
              List.filter
                (fun s -> s.Obs.Span.sp_name = "invoke")
                (Obs.Span.spans sink)
              |> List.sort (fun a b ->
                  compare a.Obs.Span.sp_start_ms b.Obs.Span.sp_start_ms)
            in
            match invokes with
            | [ c; w ] ->
              List.iter
                (fun (r, s) ->
                   Alcotest.(check (float 1e-9)) "duration"
                     r.Platform.Lambda_sim.e2e_ms s.Obs.Span.sp_dur_ms)
                [ (cold, c); (warm, w) ]
            | l -> Alcotest.failf "expected 2 invoke spans, got %d"
                     (List.length l)));
    Alcotest.test_case "cold phases tile the invoke span back to back"
      `Quick (fun () ->
        with_recorder (fun sink ->
            let sim = Platform.Lambda_sim.create (Workloads.Suite.tiny_app ()) in
            ignore (Platform.Lambda_sim.invoke sim ~now_s:41.0 ());
            let spans = Obs.Span.spans sink in
            let find n =
              match List.find_opt (fun s -> s.Obs.Span.sp_name = n) spans with
              | Some s -> s
              | None -> Alcotest.failf "no %s span" n
            in
            let end_of s = s.Obs.Span.sp_start_ms +. s.Obs.Span.sp_dur_ms in
            let inv = find "invoke" in
            let phases =
              List.map find
                [ "phase:instance_init"; "phase:transmission";
                  "phase:function_init"; "phase:function_exec" ]
            in
            Alcotest.(check (float 0.0)) "first phase starts the invoke"
              inv.Obs.Span.sp_start_ms
              (List.hd phases).Obs.Span.sp_start_ms;
            ignore
              (List.fold_left
                 (fun prev p ->
                    Alcotest.(check (float 0.0)) p.Obs.Span.sp_name
                      (end_of prev) p.Obs.Span.sp_start_ms;
                    p)
                 (List.hd phases) (List.tl phases));
            Alcotest.(check (float 0.0)) "last phase ends the invoke"
              (end_of inv)
              (end_of (List.nth phases 3)))) ]

(* --- measurement neutrality ----------------------------------------------- *)

let neutrality_suite =
  [ Alcotest.test_case "fig9 CSV is bit-identical with tracing on" `Quick
      (fun () ->
        Experiments.Common.reset_cache ();
        let plain = Experiments.Fig9.csv () in
        Experiments.Common.reset_cache ();
        let sink, traced =
          with_recorder (fun sink -> (sink, Experiments.Fig9.csv ()))
        in
        Experiments.Common.reset_cache ();
        Alcotest.(check string) "identical bytes" plain traced;
        let spans = Obs.Span.spans sink in
        let cats =
          List.sort_uniq compare
            (List.map (fun s -> s.Obs.Span.sp_cat) spans)
        in
        Alcotest.(check bool) "at least 4 instrumented layers" true
          (List.length cats >= 4);
        Alcotest.(check bool) "trace well-nested" true
          (Obs.Span.well_nested spans)) ]

let suite =
  [ ("obs.span", spans_suite);
    ("obs.null", null_suite);
    ("obs.metrics", metrics_suite);
    ("obs.export", export_suite);
    ("obs.properties", qcheck_suite);
    ("obs.lambda_sim", sim_regression_suite);
    ("obs.neutrality", neutrality_suite) ]
