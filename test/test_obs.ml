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
          (Obs.Span.nesting_violation (Obs.Span.spans bad) <> None));
    Alcotest.test_case "the walk gives depths and self times" `Quick
      (fun () ->
        let sink = Obs.Span.recorder () in
        emit sink ~track:1 ~name:"outer" ~start_ms:0.0 ~end_ms:10.0;
        emit sink ~track:1 ~name:"a" ~start_ms:2.0 ~end_ms:8.0;
        emit sink ~track:1 ~name:"a.1" ~start_ms:3.0 ~end_ms:4.0;
        emit sink ~track:1 ~name:"b" ~start_ms:8.0 ~end_ms:9.0;
        emit sink ~track:1 ~name:"next" ~start_ms:10.0 ~end_ms:12.0;
        let nodes =
          List.concat_map
            (fun (l : Obs.Span.lane) -> l.l_nodes)
            (Obs.Span.walk (Obs.Span.spans sink))
        in
        Alcotest.(check (list (triple string int (float 1e-12))))
          "pre-order (name, depth, self ms)"
          [ ("outer", 0, 3.0); ("a", 1, 5.0); ("a.1", 2, 1.0);
            ("b", 1, 1.0); ("next", 0, 2.0) ]
          (List.map
             (fun (n : Obs.Span.node) ->
                (n.n_span.Obs.Span.sp_name, n.n_depth, n.n_self_ms))
             nodes)) ]

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
        Alcotest.(check int) "passthrough" 42 r);
    Alcotest.test_case "wall on the null sink only runs its body" `Quick
      (fun () ->
        Obs.Span.install Obs.Span.null;
        let r =
          Obs.Span.wall ~cat:"t" ~name:"x"
            ~attrs:(fun _ -> Alcotest.fail "attrs built on the null sink")
            (fun () -> 42)
        in
        Alcotest.(check int) "passthrough" 42 r);
    Alcotest.test_case "wall on the null sink allocates nothing" `Quick
      (fun () ->
        (* A clock read boxes the float it returns, and a span is a record:
           a null-sink [wall] that read the clock or opened a span would
           allocate. *)
        Obs.Span.install Obs.Span.null;
        let body () = 1 in
        let sum = ref 0 in
        let before = Gc.minor_words () in
        for _ = 1 to 1000 do
          sum := !sum + Obs.Span.wall ~cat:"t" ~name:"x" body
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "passthrough" 1000 !sum;
        Alcotest.(check (float 0.0)) "minor words" 0.0 words) ]

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
          ("clock,cat,name,count,total_ms,mean_ms,max_ms,self_ms\n"
           ^ "virtual-clock,minipy,import:json,1,2.500000,2.500000,2.500000,\
              2.500000\n"
           ^ "fleet-sim,fleet,retry,1,0.000000,0.000000,0.000000,0.000000\n")
          (Obs.Export.summary_csv (golden_sink ())));
    Alcotest.test_case "metrics CSV golden" `Quick (fun () ->
        Alcotest.(check string) "bytes"
          ("name,kind,count_or_value,sum,min,max\n" ^ "a.hits,counter,3,,,\n"
           ^ "b.depth,gauge,2.5,,,\n" ^ "c.lat,histogram,2,4,1,3\n")
          (Obs.Export.metrics_csv (golden_registry ())));
    Alcotest.test_case "layer table: known rows first, sums to the roots"
      `Quick (fun () ->
        let sink = Obs.Span.recorder () in
        let span ?(attrs = []) ~cat ~start_ms ~end_ms () =
          Obs.Span.end_ ~attrs ~ts_ms:end_ms
            (Obs.Span.begin_ sink ~domain:Obs.Span.domain_wall ~track:1 ~cat
               ~name:cat ~ts_ms:start_ms)
        in
        span ~cat:"run" ~start_ms:0.0 ~end_ms:10.0 ();
        span ~cat:"oracle" ~attrs:[ ("layer", "exec") ] ~start_ms:1.0
          ~end_ms:5.0 ();
        span ~cat:"store" ~start_ms:2.0 ~end_ms:3.0 ();
        span ~cat:"oracle" ~attrs:[ ("layer", "hit") ] ~start_ms:6.0
          ~end_ms:6.5 ();
        (* another clock's spans are not wall-clock time *)
        emit sink ~track:1 ~name:"virtual" ~start_ms:0.0 ~end_ms:99.0;
        Alcotest.(check (list (pair string (float 1e-12)))) "rows"
          [ ("hit", 0.5); ("absent", 0.0); ("run", 5.5); ("exec", 3.0);
            ("store", 1.0) ]
          (Obs.Export.layers ~known:[ "hit"; "absent" ] sink);
        Alcotest.(check string) "table"
          "wall-clock self time by layer:\n\
          \  hit                       0.500 ms    5.0%\n\
          \  absent                    0.000 ms    0.0%\n\
          \  run                       5.500 ms   55.0%\n\
          \  exec                      3.000 ms   30.0%\n\
          \  store                     1.000 ms   10.0%\n\
          \  total                    10.000 ms\n"
          (Obs.Export.layer_table ~known:[ "hit"; "absent" ] sink);
        Alcotest.(check (list string)) "no known layer seen, no known rows"
          [ "run"; "exec"; "store"; "hit" ]
          (List.map fst (Obs.Export.layers ~known:[ "absent" ] sink));
        Alcotest.(check string) "no wall-clock span, no table" ""
          (Obs.Export.layer_table ~known:[ "hit" ] (golden_sink ())));
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

(* --- the lane walk against the pairwise reference (property) ------------ *)

(* A random span set: per forest, a well-nested tree of spans (children
   split their parent's range, so starts tie with the parent's), then
   maybe one stray span that may straddle it, and instants; all on two
   tracks of one domain. Times step by 0.1 ms so ends carry float
   rounding. *)
let gen_spans =
  let open QCheck.Gen in
  let rec tree lo hi depth =
    if depth = 0 then return []
    else
      int_range lo hi >>= fun a ->
      int_range a hi >>= fun b ->
      let mid = (a + b) / 2 in
      pair (tree a mid (depth - 1)) (tree mid b (depth - 1))
      >|= fun (l, r) -> (a, b) :: (l @ r)
  in
  let interval = int_range 0 40 >>= fun a -> int_range a 40 >|= fun b -> (a, b) in
  let span kind (a, b) = int_range 1 2 >|= fun track -> (kind, track, a, b) in
  triple
    (list_size (int_range 0 3) (int_range 1 4 >>= tree 0 40))
    (opt interval)
    (list_size (int_range 0 3) (int_range 0 40))
  >>= fun (forest, stray, points) ->
  let complete = List.concat forest @ Option.to_list stray in
  flatten_l
    (List.map (span `Complete) complete
     @ List.map (fun p -> span `Instant (p, p)) points)
  >>= shuffle_l

let record spans =
  let sink = Obs.Span.recorder () in
  List.iter
    (fun (kind, track, a, b) ->
       let ms i = float_of_int i *. 0.1 in
       match kind with
       | `Complete ->
         Obs.Span.end_ ~ts_ms:(ms b)
           (Obs.Span.begin_ sink ~domain:Obs.Span.domain_wall ~track ~cat:"t"
              ~name:"s" ~ts_ms:(ms a))
       | `Instant ->
         Obs.Span.instant sink ~domain:Obs.Span.domain_wall ~track ~cat:"t"
           ~name:"i" ~ts_ms:(ms a))
    spans;
  Obs.Span.spans sink

let arb_spans =
  QCheck.make gen_spans ~print:(fun l ->
      String.concat "; "
        (List.map
           (fun (k, t, a, b) ->
              Printf.sprintf "%s t%d [%d,%d]"
                (if k = `Complete then "X" else "i") t a b)
           l))

let walk_suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"the walk and the pairwise reference agree on nesting"
         arb_spans (fun l ->
             let spans = record l in
             Obs.Span.well_nested spans = Span_ref.well_nested spans));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"self times are >= 0 and sum to the roots per lane"
         arb_spans (fun l ->
             let spans = record l in
             QCheck.assume (Obs.Span.well_nested spans);
             List.for_all
               (fun (lane : Obs.Span.lane) ->
                  let self, roots =
                    List.fold_left
                      (fun (self, roots) (n : Obs.Span.node) ->
                         ( self +. n.n_self_ms,
                           if n.n_depth = 0 then
                             roots +. n.n_span.Obs.Span.sp_dur_ms
                           else roots ))
                      (0.0, 0.0) lane.l_nodes
                  in
                  List.for_all
                    (fun (n : Obs.Span.node) -> n.n_self_ms >= -1e-9)
                    lane.l_nodes
                  && Float.abs (self -. roots) <= 1e-9)
               (Obs.Span.walk spans))) ]

(* --- wall-clock lanes ----------------------------------------------------- *)

(* [f] on each of two tasks of a 2-domain pool, started together: each
   task waits for the other, so the main domain runs one while the worker
   runs the other. *)
let on_both_domains f =
  let started = Atomic.make 0 in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      Parallel.Pool.map pool
        (fun i ->
           Atomic.incr started;
           while Atomic.get started < 2 do Domain.cpu_relax () done;
           f i)
        [ 0; 1 ])

let wall_lanes spans =
  List.filter_map
    (fun (s : Obs.Span.span) ->
       if s.sp_domain = Obs.Span.domain_wall then Some s.sp_track else None)
    spans
  |> List.sort_uniq compare

let lane_suite =
  [ Alcotest.test_case "wall spans land on the running domain's lane" `Quick
      (fun () ->
        with_recorder (fun sink ->
            let on_worker =
              on_both_domains (fun _ ->
                  Obs.Span.wall ~cat:"t" ~name:"task" (fun () -> ());
                  Parallel.Pool.current_worker () <> None)
            in
            Alcotest.(check (list bool)) "one task per domain" [ false; true ]
              (List.sort compare on_worker);
            match wall_lanes (Obs.Span.spans sink) with
            | [ 1; w ] -> Alcotest.(check bool) "worker lane" true (w >= 16)
            | l ->
              Alcotest.failf "lanes %s"
                (String.concat "," (List.map string_of_int l))));
    Alcotest.test_case "concurrent pipelines nest on every wall-clock lane"
      `Quick (fun () ->
        with_recorder (fun sink ->
            (* one memo shared by both, as the global one is *)
            let cache = Trim.Oracle.Cache.create () in
            ignore
              (on_both_domains (fun i ->
                   Trim.Pipeline.run
                     ~options:
                       { Trim.Pipeline.default_options with
                         k = 2;
                         oracle_cache = Some cache }
                     (Workloads.Suite.tiny_app
                        ~name:(Printf.sprintf "tiny-%d" i) ())));
            let spans = Obs.Span.spans sink in
            Alcotest.(check int) "two lanes" 2
              (List.length (wall_lanes spans));
            Alcotest.(check bool) "well-nested" true
              (Obs.Span.well_nested spans);
            (* a query observes one candidate: one memo lookup per test
               case, however the other pipeline's lookups interleave *)
            let tests =
              List.length
                (Workloads.Suite.tiny_app ()).Platform.Deployment.test_cases
            in
            let queries =
              List.filter
                (fun (s : Obs.Span.span) -> s.sp_name = "oracle:query")
                spans
            in
            Alcotest.(check bool) "queries traced" true (queries <> []);
            List.iter
              (fun (s : Obs.Span.span) ->
                 let n k = int_of_string (List.assoc k s.sp_attrs) in
                 Alcotest.(check int) "lookups of one query" tests
                   (n "memo_hits" + n "memo_misses"))
              queries));
    Alcotest.test_case "a traced debloat's layer table sums to pipeline:run"
      `Quick (fun () ->
        (* a fresh directory: a warm store would append nothing *)
        let dir = Filename.temp_dir "ltrim-test-layers" "" in
        let store = Trim.Memo_store.open_ ~dir in
        let cache = Trim.Oracle.Cache.create () in
        Trim.Oracle.Cache.attach_store cache (Some store);
        let sink =
          Fun.protect
            ~finally:(fun () -> Trim.Memo_store.close store)
            (fun () ->
               with_recorder (fun sink ->
                   ignore
                     (Trim.Pipeline.run
                        ~options:
                          { Trim.Pipeline.default_options with
                            k = 2;
                            oracle_cache = Some cache;
                            manifest_path =
                              Some (Filename.concat dir "tiny.manifest") }
                        (Workloads.Suite.tiny_app ()));
                   sink))
        in
        let rows = Obs.Export.layers ~known:Trim.Pipeline.layers sink in
        Alcotest.(check (list string)) "rows"
          (List.sort compare (Trim.Pipeline.layers @ [ "manifest"; "memo_store" ]))
          (List.sort compare (List.map fst rows));
        let run =
          List.find
            (fun (s : Obs.Span.span) -> s.sp_name = "pipeline:run")
            (Obs.Span.spans sink)
        in
        Alcotest.(check (float 1e-6)) "rows sum to pipeline:run"
          run.sp_dur_ms
          (List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 rows)) ]

let suite =
  [ ("obs.span", spans_suite);
    ("obs.null", null_suite);
    ("obs.metrics", metrics_suite);
    ("obs.export", export_suite);
    ("obs.properties", qcheck_suite);
    ("obs.walk", walk_suite);
    ("obs.lanes", lane_suite);
    ("obs.lambda_sim", sim_regression_suite);
    ("obs.neutrality", neutrality_suite) ]
