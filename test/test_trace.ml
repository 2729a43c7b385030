(* Traces: generators and analytic cold/warm replay. *)

open Platform

let arrivals t = Float.Array.to_list t.Trace.arrivals_s

let generators =
  [ Alcotest.test_case "poisson rate approximately honoured" `Quick (fun () ->
        let t = Trace.poisson ~seed:1 ~rate_per_s:1.0 ~duration_s:2000.0 ~name:"p" in
        let n = Trace.length t in
        Alcotest.(check bool) (Printf.sprintf "%d in [1700, 2300]" n) true
          (n >= 1700 && n <= 2300));
    Alcotest.test_case "poisson deterministic per seed" `Quick (fun () ->
        let t1 = Trace.poisson ~seed:7 ~rate_per_s:0.5 ~duration_s:100.0 ~name:"a" in
        let t2 = Trace.poisson ~seed:7 ~rate_per_s:0.5 ~duration_s:100.0 ~name:"b" in
        Alcotest.(check (list (float 1e-12))) "same arrivals"
          (arrivals t1) (arrivals t2));
    Alcotest.test_case "poisson rejects rates and horizons it cannot finish"
      `Quick (fun () ->
        let rejects ~rate_per_s ~duration_s =
          match Trace.poisson ~seed:1 ~rate_per_s ~duration_s ~name:"bad" with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        List.iter
          (fun (rate_per_s, duration_s) ->
             Alcotest.(check bool)
               (Printf.sprintf "rate %g, duration %g" rate_per_s duration_s)
               true (rejects ~rate_per_s ~duration_s))
          [ (Float.nan, 10.0); (Float.infinity, 10.0); (0.0, 10.0);
            (-1.0, 10.0); (1.0, Float.nan); (1.0, Float.infinity);
            (1.0, -1.0) ];
        Alcotest.(check int) "zero horizon is empty" 0
          (Trace.length
             (Trace.poisson ~seed:1 ~rate_per_s:1.0 ~duration_s:0.0 ~name:"z")));
    Alcotest.test_case "arrivals sorted" `Quick (fun () ->
        let t = Trace.bursty ~seed:3 ~burst_size:5 ~burst_rate_per_s:10.0
            ~idle_gap_s:60.0 ~bursts:4 ~name:"b"
        in
        Alcotest.(check (list (float 1e-12))) "sorted"
          (List.sort compare (arrivals t)) (arrivals t));
    Alcotest.test_case "bursty produces expected count" `Quick (fun () ->
        let t = Trace.bursty ~seed:3 ~burst_size:5 ~burst_rate_per_s:10.0
            ~idle_gap_s:60.0 ~bursts:4 ~name:"b"
        in
        Alcotest.(check int) "20 requests" 20 (Trace.length t));
    Alcotest.test_case "periodic spacing" `Quick (fun () ->
        let t = Trace.periodic ~period_s:10.0 ~count:5 ~name:"p" in
        Alcotest.(check (list (float 1e-12))) "times"
          [ 0.0; 10.0; 20.0; 30.0; 40.0 ] (arrivals t));
    Alcotest.test_case "bursty deterministic per seed" `Quick (fun () ->
        let gen seed = Trace.bursty ~seed ~burst_size:8 ~burst_rate_per_s:5.0
            ~idle_gap_s:120.0 ~bursts:6 ~name:"b"
        in
        Alcotest.(check (list (float 1e-12))) "same arrivals"
          (arrivals (gen 42)) (arrivals (gen 42));
        Alcotest.(check bool) "different seeds differ" true
          (arrivals (gen 42) <> arrivals (gen 43))) ]

let replay =
  [ Alcotest.test_case "dense trace mostly warm" `Quick (fun () ->
        let t = Trace.periodic ~period_s:10.0 ~count:100 ~name:"d" in
        let r = Trace.replay t ~keep_alive_s:900.0 in
        Alcotest.(check int) "one cold" 1 r.Trace.cold_starts;
        Alcotest.(check int) "rest warm" 99 r.Trace.warm_starts);
    Alcotest.test_case "sparse trace always cold" `Quick (fun () ->
        let t = Trace.periodic ~period_s:2000.0 ~count:10 ~name:"s" in
        let r = Trace.replay t ~keep_alive_s:900.0 in
        Alcotest.(check int) "all cold" 10 r.Trace.cold_starts);
    Alcotest.test_case "keep-alive boundary inclusive" `Quick (fun () ->
        let t = Trace.periodic ~period_s:900.0 ~count:3 ~name:"edge" in
        let r = Trace.replay t ~keep_alive_s:900.0 in
        Alcotest.(check int) "warm at exactly keep-alive" 2 r.Trace.warm_starts);
    Alcotest.test_case "longer keep-alive, never fewer warm starts" `Quick
      (fun () ->
        let t = Trace.poisson ~seed:11 ~rate_per_s:0.002 ~duration_s:86400.0 ~name:"x" in
        let warm k = (Trace.replay t ~keep_alive_s:k).Trace.warm_starts in
        Alcotest.(check bool) "monotone" true
          (warm 60.0 <= warm 900.0 && warm 900.0 <= warm 6000.0));
    Alcotest.test_case "resident time grows with keep-alive" `Quick (fun () ->
        let t = Trace.periodic ~period_s:2000.0 ~count:10 ~name:"r" in
        let res k = (Trace.replay t ~keep_alive_s:k).Trace.resident_s in
        Alcotest.(check bool) "monotone" true (res 60.0 < res 900.0));
    Alcotest.test_case "every arrival is one cold or one warm start" `Quick
      (fun () ->
        let t =
          Trace.poisson ~seed:3 ~rate_per_s:0.05 ~duration_s:5000.0 ~name:"p"
        in
        List.iter
          (fun k ->
             let r = Trace.replay ~exec_s:1.0 t ~keep_alive_s:k in
             Alcotest.(check int) (Printf.sprintf "keep-alive %g" k)
               (Trace.length t) (r.Trace.cold_starts + r.Trace.warm_starts);
             Alcotest.(check bool) "the first is cold" true (r.Trace.cold_starts >= 1))
          [ 0.0; 30.0; 600.0; 1e9 ]);
    Alcotest.test_case "exec_s extends keep-alive past the raw gap" `Quick
      (fun () ->
        (* arrivals 8 s apart, TTL 5: without exec the gap exceeds the TTL
           (cold); a 10 s execution pushes completion past the next arrival,
           so the keep-alive window covers it (warm) *)
        let t = Trace.make ~name:"ext" [ 0.0; 8.0 ] in
        let without = Trace.replay t ~keep_alive_s:5.0 in
        let with_exec = Trace.replay ~exec_s:10.0 t ~keep_alive_s:5.0 in
        Alcotest.(check int) "no exec: second is cold" 2 without.Trace.cold_starts;
        Alcotest.(check int) "with exec: second is warm" 1
          with_exec.Trace.cold_starts;
        Alcotest.(check int) "with exec: warm count" 1
          with_exec.Trace.warm_starts);
    Alcotest.test_case "overlapping arrivals share the extended window" `Quick
      (fun () ->
        (* three arrivals inside one long execution: each completion pushes
           the window further, so all but the first stay warm *)
        let t = Trace.make ~name:"overlap" [ 0.0; 4.0; 8.0 ] in
        let r = Trace.replay ~exec_s:10.0 t ~keep_alive_s:1.0 in
        Alcotest.(check int) "one cold" 1 r.Trace.cold_starts;
        Alcotest.(check int) "two warm" 2 r.Trace.warm_starts);
    Alcotest.test_case "zero-length trace replays to zeros" `Quick (fun () ->
        let t = Trace.make ~name:"empty" [] in
        let r = Trace.replay ~exec_s:3.0 t ~keep_alive_s:900.0 in
        Alcotest.(check int) "cold" 0 r.Trace.cold_starts;
        Alcotest.(check int) "warm" 0 r.Trace.warm_starts;
        Alcotest.(check (float 1e-12)) "resident" 0.0 r.Trace.resident_s) ]

let azure =
  [ Alcotest.test_case "generates requested function count" `Quick (fun () ->
        let t = Azure_trace.generate ~n_functions:50 ~seed:5 () in
        Alcotest.(check int) "50 fns" 50 (List.length t.Azure_trace.functions));
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let t1 = Azure_trace.generate ~n_functions:20 ~seed:5 () in
        let t2 = Azure_trace.generate ~n_functions:20 ~seed:5 () in
        List.iter2
          (fun (a : Azure_trace.fn) (b : Azure_trace.fn) ->
             Alcotest.(check (float 1e-9)) "mem" a.Azure_trace.memory_mb
               b.Azure_trace.memory_mb;
             Alcotest.(check int) "trace len" (Trace.length a.Azure_trace.trace)
               (Trace.length b.Azure_trace.trace))
          t1.Azure_trace.functions t2.Azure_trace.functions);
    Alcotest.test_case "rates are heavy-tailed" `Quick (fun () ->
        let t = Azure_trace.generate ~n_functions:300 ~seed:5 () in
        let lens =
          List.map (fun f -> float_of_int (Trace.length f.Azure_trace.trace))
            t.Azure_trace.functions
        in
        let mean = Metrics.mean lens and med = Metrics.median lens in
        Alcotest.(check bool)
          (Printf.sprintf "mean %.1f > 1.5 * median %.1f" mean med)
          true (mean > 1.5 *. med));
    Alcotest.test_case "nearest function minimises scaled L2" `Quick (fun () ->
        let t = Azure_trace.generate ~n_functions:100 ~seed:9 () in
        let target = Azure_trace.nearest_function t ~memory_mb:256.0 ~exec_ms:100.0 in
        (* it must at least beat a random other function *)
        let d (f : Azure_trace.fn) =
          ((f.Azure_trace.memory_mb -. 256.0) /. 220.0) ** 2.0
          +. ((f.Azure_trace.exec_ms -. 100.0) /. 300.0) ** 2.0
        in
        List.iter
          (fun f ->
             Alcotest.(check bool) "nearest" true (d target <= d f +. 5.0))
          t.Azure_trace.functions) ]

let metrics =
  [ Alcotest.test_case "mean median" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 1e-9)) "median" 2.0 (Metrics.median [ 3.0; 1.0; 2.0 ]));
    Alcotest.test_case "percentile interpolates" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "p50" 1.5
          (Metrics.percentile 50.0 [ 1.0; 2.0 ]));
    Alcotest.test_case "p95/p99 interpolate between ranks" `Quick (fun () ->
        (* rank (p/100)(n-1) on 1..100: 94.05 and 98.01 *)
        let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
        Alcotest.(check (float 1e-9)) "p95" 95.05 (Metrics.percentile 95.0 xs);
        Alcotest.(check (float 1e-9)) "p99" 99.01 (Metrics.percentile 99.0 xs);
        Alcotest.(check (float 1e-9)) "p100 is the max" 100.0
          (Metrics.percentile 100.0 (List.rev xs)));
    Alcotest.test_case "total on the empty list" `Quick (fun () ->
        Alcotest.(check (float 1e-12)) "mean" 0.0 (Metrics.mean []);
        Alcotest.(check (float 1e-12)) "percentile" 0.0
          (Metrics.percentile 50.0 []);
        Alcotest.(check (float 1e-12)) "median" 0.0 (Metrics.median []));
    Alcotest.test_case "improvement pct" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "20%" 20.0
          (Metrics.improvement_pct ~before:10.0 ~after:8.0));
    Alcotest.test_case "speedup" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "2x" 2.0 (Metrics.speedup ~before:10.0 ~after:5.0)) ]

(* NaNs in a latency list must be dropped and counted, not silently
   rank-poison the order statistics (the polymorphic-compare sort used to
   scatter them through the sorted array). *)
let nan_policy =
  [ Alcotest.test_case "order statistics drop NaNs" `Quick (fun () ->
        let nan = Float.nan in
        Alcotest.(check (float 1e-9)) "p50" 1.5
          (Metrics.percentile 50.0 [ nan; 1.0; 2.0; nan ]);
        Alcotest.(check (float 1e-9)) "p100 is the finite max" 2.0
          (Metrics.percentile 100.0 [ 2.0; nan; 1.0 ]);
        Alcotest.(check bool) "p99 stays finite" true
          (Float.is_finite (Metrics.percentile 99.0 [ nan; 3.0; 1.0; 2.0 ]));
        Alcotest.(check (float 1e-12)) "all-NaN degrades to empty" 0.0
          (Metrics.percentile 99.0 [ nan; nan ]));
    Alcotest.test_case "dropped NaNs are counted" `Quick (fun () ->
        let c =
          Obs.Metrics.counter Obs.Metrics.global "platform.metrics.nan_dropped"
        in
        let before = Obs.Metrics.value c in
        ignore (Metrics.percentile 50.0 [ Float.nan; 1.0; Float.nan ]);
        ignore (Metrics.median [ Float.nan ]);
        Alcotest.(check int) "three drops counted" (before + 3)
          (Obs.Metrics.value c)) ]

(* [Trace.make] sorts by [compare], skipping the sort on sorted input.
   Lists mix duplicates, ±0.0, ±infinity and NaNs (two sign bits), and are
   compared bit for bit, so the order of equal-comparing elements counts. *)
let make_properties =
  let arrival =
    QCheck.Gen.(
      frequency
        [ (3, map float_of_int (int_range (-4) 4));
          (2, oneofl [ 0.0; -0.0; Float.infinity; Float.neg_infinity;
                       Float.nan; -.Float.nan ]);
          (1, float) ])
  in
  let lists =
    QCheck.make
      QCheck.Gen.(list_size (int_bound 40) arrival)
      ~print:QCheck.Print.(list float)
  in
  let bits_equal a b =
    List.equal
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a b
  in
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [ QCheck.Test.make ~count:500 ~name:"make sorts exactly as List.sort"
        lists (fun l ->
            bits_equal (arrivals (Trace.make ~name:"m" l))
              (List.sort compare l));
      QCheck.Test.make ~count:500
        ~name:"sorted input comes out bit-identical without a sort"
        lists (fun l ->
            let sorted = List.sort compare l in
            bits_equal (arrivals (Trace.make ~name:"m" sorted)) sorted) ]

let suite =
  [ ("trace.make", make_properties);
    ("trace.generators", generators); ("trace.replay", replay);
    ("trace.azure", azure);
    ("trace.metrics", metrics); ("trace.nan_policy", nan_policy) ]
