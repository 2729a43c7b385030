(* Streaming fleet engine: event-queue ordering properties (QCheck, heap
   and calendar backends), the heap pop space-leak regression, the hot
   path's allocation bounds, sketch accuracy bounds, stream ≡ record-mode
   equivalence, and the sharded engine's shard-count invariance. *)

open Fleet

(* The queue, plus the two (time, payload) views these tests read it
   through; the simulator itself only uses [take] and [last_time]. *)
module Events = struct
  include Events

  let pop q =
    if length q = 0 then None
    else
      let x = take q in
      Some (last_time q, x)

  let drain q =
    let rec go acc =
      match pop q with None -> List.rev acc | Some e -> go (e :: acc)
    in
    go []
end

(* --- event-queue properties ----------------------------------------------- *)

(* Schedules with heavy (time, rank) collisions, so the seq tie-break is
   actually exercised: times from a coarse grid, ranks 0..4. *)
let schedule_gen =
  QCheck.Gen.(
    list_size (int_bound 400)
      (pair
         (map (fun i -> float_of_int i /. 8.0) (int_bound 64))
         (int_bound 4)))

let schedule_arb =
  QCheck.make schedule_gen
    ~print:
      QCheck.Print.(list (pair float int))

(* What the queue promises: stable sort by (time, rank) — stability gives
   FIFO among equal keys. *)
let reference schedule =
  List.stable_sort
    (fun (t1, r1, _) (t2, r2, _) ->
       match Float.compare t1 t2 with
       | 0 -> Int.compare r1 r2
       | c -> c)
    (List.mapi (fun i (t, r) -> (t, r, i)) schedule)

let fill kind schedule =
  let q = Events.create ~kind () in
  List.iteri (fun i (time, rank) -> Events.push q ~time ~rank i) schedule;
  q

let random_calendar (w8, nb) =
  Events.Calendar
    { width = float_of_int (1 + (w8 mod 40)) /. 8.0;
      n_buckets = 4 + (nb mod 60) }

let kinds_arb = QCheck.(pair schedule_arb (pair small_nat small_nat))

(* Interleavings of pushes and takes, each take read back through
   [last_time]. Times come from the coarse grid plus the infinities. *)
type op = Push of float * int | Take

let ops_arb =
  let time =
    QCheck.Gen.(
      frequency
        [ (8, map (fun i -> float_of_int i /. 8.0) (int_bound 64));
          (1, oneofl [ Float.infinity; Float.neg_infinity ]) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map2 (fun t r -> Push (t, r)) time (int_bound 4));
          (2, return Take) ])
  in
  QCheck.make
    QCheck.Gen.(pair (list_size (int_bound 300) op) (pair small_nat small_nat))
    ~print:(fun (ops, _) ->
        String.concat " "
          (List.map
             (function
               | Push (t, r) -> Printf.sprintf "push(%g,%d)" t r
               | Take -> "take")
             ops))

(* Every (time, payload) taken, then the drained rest: payload [i] is the
   [i]-th op. *)
let run_ops kind ops =
  let q = Events.create ~kind () in
  let out = ref [] in
  List.iteri
    (fun i op ->
       match op with
       | Push (time, rank) -> Events.push q ~time ~rank i
       | Take ->
         if Events.length q > 0 then begin
           let x = Events.take q in
           out := (Events.last_time q, x) :: !out
         end)
    ops;
  List.rev_append !out (Events.drain q)

(* The same on a plain list: take is the minimum by (time, rank, push
   order). *)
let model_run ops =
  let before (t1, r1, i1) (t2, r2, i2) =
    t1 < t2 || (t1 = t2 && (r1 < r2 || (r1 = r2 && i1 < i2)))
  in
  let take_min l =
    let m =
      List.fold_left
        (fun acc e -> match acc with
           | Some b when before b e -> acc
           | _ -> Some e)
        None l
    in
    match m with
    | None -> None
    | Some m -> Some (m, List.filter (fun e -> e != m) l)
  in
  let rec drain acc l =
    match take_min l with
    | None -> List.rev acc
    | Some ((t, _, i), rest) -> drain ((t, i) :: acc) rest
  in
  let pending, out =
    List.fold_left
      (fun (pending, out) (i, op) ->
         match op with
         | Push (t, r) -> ((t, r, i) :: pending, out)
         | Take ->
           (match take_min pending with
            | None -> (pending, out)
            | Some ((t, _, j), rest) -> (rest, (t, j) :: out)))
      ([], [])
      (List.mapi (fun i op -> (i, op)) ops)
  in
  List.rev_append out (drain [] pending)

let queue_properties =
  [ QCheck.Test.make ~count:200 ~name:"pop sorted by (time, rank, seq)"
      schedule_arb (fun schedule ->
          let popped = Events.drain (fill Events.Heap schedule) in
          let expect =
            List.map (fun (t, _, i) -> (t, i)) (reference schedule)
          in
          popped = expect);
    QCheck.Test.make ~count:200 ~name:"FIFO among equal (time, rank)"
      QCheck.(small_nat)
      (fun n ->
         let n = 1 + (n mod 50) in
         let q = Events.create () in
         for i = 0 to n - 1 do
           Events.push q ~time:1.0 ~rank:2 i
         done;
         List.map snd (Events.drain q) = List.init n Fun.id);
    QCheck.Test.make ~count:300 ~name:"heap ≡ calendar on random schedules"
      kinds_arb
      (fun (schedule, wnb) ->
         Events.drain (fill Events.Heap schedule)
         = Events.drain (fill (random_calendar wnb) schedule));
    QCheck.Test.make ~count:100
      ~name:"heap ≡ calendar under interleaved push/pop" kinds_arb
      (fun ((schedule, wnb) : (float * int) list * (int * int)) ->
         let run kind =
           let q = Events.create ~kind () in
           let out = ref [] in
           List.iteri
             (fun i (time, rank) ->
                Events.push q ~time ~rank i;
                (* pop every third push, mid-stream *)
                if i mod 3 = 2 then
                  match Events.pop q with
                  | Some e -> out := e :: !out
                  | None -> ())
             schedule;
           List.rev_append !out (Events.drain q)
         in
         run Events.Heap = run (random_calendar wnb));
    QCheck.Test.make ~count:300
      ~name:"take, last_time ≡ a sorted model, both backends"
      ops_arb
      (fun (ops, wnb) ->
         let expect = model_run ops in
         run_ops Events.Heap ops = expect
         && run_ops (random_calendar wnb) ops = expect) ]

let qcheck_suite =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    queue_properties

(* --- heap pop space leak --------------------------------------------------- *)

let leak =
  [ Alcotest.test_case "drained heap pins at most one payload" `Quick
      (fun () ->
        let n = 200 in
        let weak = Weak.create n in
        let q = Events.create ~kind:Events.Heap () in
        for i = 0 to n - 1 do
          let payload = ref i in
          Weak.set weak i (Some payload);
          Events.push q ~time:(float_of_int ((i * 7919) mod 100)) ~rank:0 payload
        done;
        while Events.length q > 0 do
          ignore (Events.take q)
        done;
        Gc.full_major ();
        (* vacated slots hold the filler, the first payload pushed; no
           other payload may survive the drain *)
        let live = ref [] in
        for i = n - 1 downto 0 do
          if Weak.check weak i then live := i :: !live
        done;
        Alcotest.(check bool)
          (Printf.sprintf "payloads still reachable: [%s]"
             (String.concat "; " (List.map string_of_int !live)))
          true (List.for_all (fun i -> i = 0) !live);
        (* the queue stays usable after the drain *)
        Events.push q ~time:1.0 ~rank:0 (ref (-1));
        Alcotest.(check int) "refilled" (-1) !(Events.take q));
    Alcotest.test_case "drained calendar retains nothing" `Quick (fun () ->
        let n = 200 in
        let weak = Weak.create n in
        let q =
          Events.create
            ~kind:(Events.Calendar { width = 1.0; n_buckets = 16 })
            ()
        in
        for i = 0 to n - 1 do
          let payload = ref i in
          Weak.set weak i (Some payload);
          Events.push q ~time:(float_of_int ((i * 7919) mod 100)) ~rank:0 payload
        done;
        let rec drain () =
          match Events.pop q with None -> () | Some _ -> drain ()
        in
        drain ();
        Gc.full_major ();
        let live = ref 0 in
        for i = 0 to n - 1 do
          if Weak.check weak i then incr live
        done;
        Alcotest.(check int) "no payload reachable" 0 !live) ]

(* --- hot-path allocation ---------------------------------------------------

   The streaming replay's minor words per routed request, pinned at 1.25x
   what the flat float records, the struct-of-arrays event heap and the
   preallocated constructors brought them to: 65.1, 68.5, 69.3 and 72.7
   with OCaml 5.1.1, native code without flambda, default dune profile
   (118-128 before them). Flat trace arrivals put one boxed arrival per
   request inside the measured window (the boxed trace list used to hold
   it): 67.1 and 70.5 for fixed TTL, whose bounds stay where they were.
   The cached, inlined adaptive keep-alive took adaptive to 67.3 and 70.7,
   and its bounds to 1.25x those. Boxed floats in mixed records,
   per-event option tuples and per-call closures push them back over. How
   many floats get boxed depends on the backend and the compiler, so the
   case runs on native code only; flambda would only lower the counts,
   while a coverage-instrumented build is outside what the bound
   promises.

   The reachable-size bounds hold on every backend, each at 1.25x its
   figure. A pool used to allocate a 3,600-bucket histogram up front
   (3,693 words reachable from a fresh one; 100 now). A streamed run's
   accumulator reached 606 words while its two sketches were dense
   268-bucket arrays, and reaches 96 now that a sketch stores only the
   buckets it has filled. The 9,896-arrival trace below reached 49,485
   words as a boxed list (five words an arrival) and reaches 9,902
   flat. A record-mode result of that trace reached 267,208 words while
   it kept one boxed record per arrival (27 an arrival), and reaches
   59,401 as flat columns that share the trace's arrivals (6 an
   arrival). *)

let alloc_cases () =
  let profile =
    { Router.exec_s = 0.12; func_init_s = 0.6; instance_init_s = 0.25;
      memory_mb = 512.0 }
  in
  let fallback =
    Scenario.fallback ~rate:0.05 ~seed:3
      ~original:{ profile with Router.func_init_s = 1.2 } ()
  in
  let fixed = Pool.Fixed_ttl { keep_alive_s = 600.0 } in
  let adaptive =
    Pool.Adaptive { min_s = 60.0; max_s = 900.0; percentile = 99.0 }
  in
  let cfg ?fallback policy =
    { (Router.default_config ~profile policy) with Router.fallback }
  in
  [ ("fixed-ttl", cfg fixed, 81.4);
    ("fixed-ttl + fallback", cfg ~fallback fixed, 85.7);
    ("adaptive", cfg adaptive, 84.1);
    ("adaptive + fallback", cfg ~fallback adaptive, 88.4) ]

let alloc =
  [ Alcotest.test_case "streamed routing stays under its words per request"
      `Quick (fun () ->
        if Sys.backend_type <> Sys.Native then Alcotest.skip ();
        let trace =
          Platform.Trace.poisson ~seed:29 ~rate_per_s:4.0 ~duration_s:2500.0
            ~name:"alloc"
        in
        let n = float_of_int (Platform.Trace.length trace) in
        List.iter
          (fun (name, cfg, bound) ->
             let w0 = Gc.minor_words () in
             ignore (Sys.opaque_identity (Report.run_stream cfg trace));
             let per_req = (Gc.minor_words () -. w0) /. n in
             Printf.printf "%s: %.2f words per request\n" name per_req;
             if per_req > bound then
               Alcotest.failf "%s: %.1f minor words per request > %.1f" name
                 per_req bound)
          (alloc_cases ()));
    Alcotest.test_case "a fresh fixed-TTL pool is small" `Quick (fun () ->
        let words =
          Obj.reachable_words
            (Obj.repr (Pool.create (Pool.Fixed_ttl { keep_alive_s = 600.0 })))
        in
        Printf.printf "Pool.create reaches %d words\n" words;
        if words >= 1000 then
          Alcotest.failf "Pool.create reaches %d words (bound 1000)" words);
    Alcotest.test_case "a streamed run keeps a small accumulator" `Quick
      (fun () ->
        let trace =
          Platform.Trace.poisson ~seed:29 ~rate_per_s:4.0 ~duration_s:2500.0
            ~name:"stream"
        in
        let _, fixed_ttl, _ = List.hd (alloc_cases ()) in
        let words =
          Obj.reachable_words (Obj.repr (Report.run_stream fixed_ttl trace))
        in
        Printf.printf "Report.run_stream reaches %d words\n" words;
        if words > 120 then
          Alcotest.failf "Report.run_stream reaches %d words (bound 120)"
            words);
    Alcotest.test_case "a record-mode result is six words per arrival"
      `Quick (fun () ->
        let trace =
          Platform.Trace.poisson ~seed:29 ~rate_per_s:4.0 ~duration_s:2500.0
            ~name:"columns"
        in
        let _, fixed_ttl, _ = List.hd (alloc_cases ()) in
        let n = Platform.Trace.length trace in
        let words =
          Obj.reachable_words (Obj.repr (Router.run fixed_ttl trace))
        in
        Printf.printf "Router.run on %d arrivals reaches %d words\n" n words;
        if words > 74_251 then
          Alcotest.failf "Router.run reaches %d words (bound 74,251)" words);
    Alcotest.test_case "a Poisson trace is one word per arrival" `Quick
      (fun () ->
        let trace =
          Platform.Trace.poisson ~seed:29 ~rate_per_s:4.0 ~duration_s:2500.0
            ~name:"flat"
        in
        let n = Platform.Trace.length trace in
        let words = Obj.reachable_words (Obj.repr trace) in
        Printf.printf "%d arrivals reach %d words\n" n words;
        if words > 12_378 then
          Alcotest.failf "%d arrivals reach %d words (bound 12,378)" n words) ]

(* --- sketch accuracy ------------------------------------------------------- *)

let check_sketch_quantiles name values =
  let s = Sketch.create () in
  List.iter (Sketch.add s) values;
  let exact_mean = Platform.Metrics.mean values in
  Alcotest.(check (float 1e-9)) (name ^ ": mean exact") exact_mean
    (Sketch.mean s);
  Alcotest.(check (float 1e-12))
    (name ^ ": max exact")
    (List.fold_left Float.max neg_infinity values)
    (Sketch.max_seen s);
  List.iter
    (fun p ->
       let exact = Platform.Metrics.percentile p values in
       let approx = Sketch.quantile s ~p in
       let bound = (Sketch_ref.rel_error *. exact) +. Sketch_ref.abs_error in
       if Float.abs (approx -. exact) > bound then
         Alcotest.failf "%s: p%g = %g, sketch %g, bound %g" name p exact
           approx bound)
    [ 50.0; 90.0; 95.0; 99.0 ]

(* The range-grown sketch against the dense reference ([Sketch_ref]):
   random adds and merges over three sketches, then merges of every pair
   in both orders into empty sketches and of an empty sketch into each.
   Every observable must match bit for bit. Values span bucket 0 (zero,
   -0.0, sub-[1e-3], negatives), the log-spaced range, the open last
   bucket past [1e8], and NaN. *)
type sketch_op = Add of int * float | Merge of int * int

let sketch_value =
  QCheck.Gen.(
    frequency
      [ (2, oneofl [ 0.0; -0.0; Float.nan ]);
        (2, float_bound_exclusive 1e-3);
        (8, map (fun e -> 10.0 ** e) (float_range (-3.0) 8.0));
        (1, map (fun x -> 1e8 *. (1.0 +. x)) (float_bound_inclusive 100.0));
        (1, map (fun x -> -.x) (float_bound_inclusive 1e3)) ])

let sketch_ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map2 (fun i v -> Add (i, v)) (int_bound 2) sketch_value);
          (1, map2 (fun i j -> Merge (i, j)) (int_bound 2) (int_bound 2)) ])
  in
  QCheck.make
    QCheck.Gen.(list_size (int_bound 200) op)
    ~print:
      (QCheck.Print.list (function
         | Add (i, v) -> Printf.sprintf "add %d %h" i v
         | Merge (i, j) -> Printf.sprintf "merge %d <- %d" i j))

let observables mean max_seen quantile s =
  List.map Int64.bits_of_float
    ([ mean s; max_seen s ]
     @ List.map (fun p -> quantile s ~p) [ 0.0; 50.0; 95.0; 99.0; 100.0 ])

let sketch_equiv =
  QCheck.Test.make ~count:500 ~name:"range-grown sketch ≡ dense reference"
    sketch_ops_arb (fun ops ->
        let lib = Array.init 3 (fun _ -> Sketch.create ())
        and dense = Array.init 3 (fun _ -> Sketch_ref.create ()) in
        List.iter
          (function
            | Add (i, v) ->
              Sketch.add lib.(i) v;
              Sketch_ref.add dense.(i) v
            | Merge (i, j) ->
              Sketch.merge_into ~into:lib.(i) lib.(j);
              Sketch_ref.merge_into ~into:dense.(i) dense.(j))
          ops;
        let same a b =
          observables Sketch.mean Sketch.max_seen Sketch.quantile a
          = observables Sketch_ref.mean Sketch_ref.max_seen
              Sketch_ref.quantile b
        in
        let merged i j =
          let l = Sketch.create () and d = Sketch_ref.create () in
          Sketch.merge_into ~into:l lib.(i);
          Sketch.merge_into ~into:l lib.(j);
          Sketch_ref.merge_into ~into:d dense.(i);
          Sketch_ref.merge_into ~into:d dense.(j);
          same l d
        in
        List.for_all (fun (i, j) -> merged i j && merged j i)
          [ (0, 1); (0, 2); (1, 2) ]
        && List.for_all
             (fun i ->
                Sketch.merge_into ~into:lib.(i) (Sketch.create ());
                Sketch_ref.merge_into ~into:dense.(i) (Sketch_ref.create ());
                same lib.(i) dense.(i))
             [ 0; 1; 2 ])

let sketch =
  [ Alcotest.test_case "quantile error within documented bounds" `Quick
      (fun () ->
        let rng = Random.State.make [| 4242 |] in
        let lognormal () =
          let u1 = Random.State.float rng 1.0 +. 1e-12 in
          let u2 = Random.State.float rng 1.0 in
          exp
            (log 250.0
             +. (1.2 *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)))
        in
        check_sketch_quantiles "lognormal"
          (List.init 10_000 (fun _ -> lognormal ()));
        check_sketch_quantiles "uniform"
          (List.init 5_000 (fun _ -> Random.State.float rng 5_000.0));
        check_sketch_quantiles "constant" (List.init 500 (fun _ -> 123.456));
        check_sketch_quantiles "tiny values under the absolute floor"
          (List.init 500 (fun i -> float_of_int i *. 1e-6)));
    Alcotest.test_case "merge is order-independent on bucket counts" `Quick
      (fun () ->
        let mk vals =
          let s = Sketch.create () in
          List.iter (Sketch.add s) vals;
          s
        in
        let a = mk (List.init 300 (fun i -> float_of_int (i * 7 mod 100)))
        and b = mk (List.init 200 (fun i -> float_of_int (i * 13 mod 400))) in
        let ab = Sketch.create () and ba = Sketch.create () in
        Sketch.merge_into ~into:ab a;
        Sketch.merge_into ~into:ab b;
        Sketch.merge_into ~into:ba b;
        Sketch.merge_into ~into:ba a;
        Alcotest.(check (float 0.0)) "mean" (Sketch.mean ab) (Sketch.mean ba);
        List.iter
          (fun p ->
             Alcotest.(check (float 1e-9))
               (Printf.sprintf "p%g equal either order" p)
               (Sketch.quantile ab ~p) (Sketch.quantile ba ~p))
          [ 50.0; 95.0; 99.0 ]);
    QCheck_alcotest.to_alcotest ~verbose:false sketch_equiv ]

(* --- stream ≡ record-mode summary ----------------------------------------- *)

let rich_config () =
  let profile =
    { Router.exec_s = 0.3; func_init_s = 0.8; instance_init_s = 0.2;
      memory_mb = 512.0 }
  in
  { (Router.default_config ~profile
       (Pool.Fixed_ttl { keep_alive_s = 120.0 }))
    with
    Router.fallback =
      Some
        (Scenario.fallback ~rate:0.05 ~seed:11
           ~original:{ profile with Router.func_init_s = 1.6 } ());
    faults =
      { Faults.seed = 5; init_failure_rate = 0.02; crash_rate = 0.01;
        transient_error_rate = 0.02; churn_rate = 0.01 };
    resilience =
      { Resilience.none with
        Resilience.retry = Some Resilience.default_retry } }

(* One config per summary path worth pinning: (name, config, trace). *)
let equiv_cases () =
  let profile =
    { Router.exec_s = 0.3; func_init_s = 0.8; instance_init_s = 0.2;
      memory_mb = 512.0 }
  in
  let plain =
    Router.default_config ~profile (Pool.Fixed_ttl { keep_alive_s = 120.0 })
  in
  let trace =
    Platform.Trace.poisson ~seed:33 ~rate_per_s:2.0 ~duration_s:2000.0
      ~name:"equiv"
  in
  let shedding =
    { plain with
      Router.fallback =
        Some
          (Scenario.fallback ~rate:0.3 ~seed:17
             ~original:{ profile with Router.func_init_s = 1.6 } ());
      resilience =
        { Resilience.none with
          Resilience.breaker =
            Some
              { Resilience.Breaker.error_threshold = 0.2; window = 20;
                min_samples = 10; cooldown_s = 30.0 } } }
  in
  let lazy_load =
    { plain with
      Router.lazy_load =
        Some
          { Router.lz_deferred_s = 0.5; lz_first_touch_s = 0.1;
            lz_preload = true } }
  in
  let rejecting =
    { plain with Router.max_instances = 1; max_pending = 0 }
  in
  [ ("fault-free", plain, trace);
    ("rich", rich_config (), trace);
    ("breaker-shed", shedding, trace);
    ("lazy", lazy_load, trace);
    ("empty", rich_config (), Platform.Trace.make ~name:"empty" []);
    ("rejecting", rejecting, trace) ]

let stream_equiv =
  [ Alcotest.test_case "stream summary matches summarize" `Quick (fun () ->
        List.iter (fun (case, cfg, trace) ->
            let res = Router.run cfg trace in
            let exact = Report.summarize ~label:"x" cfg res in
            let stream =
              Report.Stream.summary ~label:"x" (Report.run_stream cfg trace)
            in
            let name field = case ^ ": " ^ field in
            let ints field f =
              Alcotest.(check int) (name field) (f exact) (f stream)
            in
            ints "requests" (fun s -> s.Report.requests);
            ints "served" (fun s -> s.Report.served);
            ints "cold" (fun s -> s.Report.cold);
            ints "warm" (fun s -> s.Report.warm);
            ints "fallbacks" (fun s -> s.Report.fallbacks);
            ints "fb_cold" (fun s -> s.Report.fb_cold);
            ints "rejected" (fun s -> s.Report.rejected);
            ints "timed_out" (fun s -> s.Report.timed_out);
            ints "failed" (fun s -> s.Report.failed);
            ints "shed" (fun s -> s.Report.shed);
            ints "peak" (fun s -> s.Report.peak_instances);
            ints "evictions" (fun s -> s.Report.evictions);
            ints "attempts" (fun s -> s.Report.attempts);
            ints "retried" (fun s -> s.Report.retried);
            ints "hedged" (fun s -> s.Report.hedged);
            let floats field f tol =
              Alcotest.(check (float tol)) (name field) (f exact) (f stream)
            in
            floats "cold_fraction" (fun s -> s.Report.cold_fraction) 1e-12;
            floats "availability" (fun s -> s.Report.availability) 1e-12;
            floats "mean_ms" (fun s -> s.Report.mean_ms) 1e-6;
            floats "mean_wait_ms" (fun s -> s.Report.mean_wait_ms) 1e-6;
            floats "max_ms" (fun s -> s.Report.max_ms) 1e-9;
            floats "resident" (fun s -> s.Report.resident_instance_s) 1e-6;
            floats "cost" (fun s -> s.Report.cost_usd) 1e-9;
            floats "goodput" (fun s -> s.Report.goodput_per_s) 1e-9;
            floats "amplification"
              (fun s -> s.Report.retry_amplification) 1e-12;
            (* record mode's percentiles are exact: Platform.Metrics over
               the served records' e2e latencies, bit for bit *)
            let served_ms =
              List.filter_map
                (fun (r : Router.record) ->
                   match r.Router.outcome with
                   | Router.Served _ | Router.Fallback_served _
                   | Router.Shed _ ->
                     Some (r.Router.e2e_s *. 1000.0)
                   | Router.Rejected | Router.Timed_out | Router.Failed _ ->
                     None)
                (Record_ref.records res)
            in
            List.iter
              (fun (field, f, exact_p) ->
                 Alcotest.(check (float 0.0)) (name field) exact_p (f exact))
              [ ("p50 exact", (fun s -> s.Report.p50_ms),
                 Platform.Metrics.median served_ms);
                ("p95 exact", (fun s -> s.Report.p95_ms),
                 Platform.Metrics.percentile 95.0 served_ms);
                ("p99 exact", (fun s -> s.Report.p99_ms),
                 Platform.Metrics.percentile 99.0 served_ms) ];
            (* the stream's are the one approximate family *)
            List.iter
              (fun (field, f) ->
                 let e = f exact and a = f stream in
                 let bound = (Sketch_ref.rel_error *. e) +. Sketch_ref.abs_error in
                 if Float.abs (a -. e) > bound then
                   Alcotest.failf "%s: exact %g, stream %g, bound %g"
                     (name field) e a bound)
              [ ("p50", (fun s -> s.Report.p50_ms));
                ("p95", (fun s -> s.Report.p95_ms));
                ("p99", (fun s -> s.Report.p99_ms)) ];
            (* each case must exercise the path it is named for *)
            let holds field ok =
              Alcotest.(check bool) (name field) true ok
            in
            match case with
            | "breaker-shed" -> holds "sheds" (exact.Report.shed > 0)
            | "rejecting" -> holds "rejects" (exact.Report.rejected > 0)
            | "empty" -> holds "no requests" (exact.Report.requests = 0)
            | _ -> ())
          (equiv_cases ())) ]

(* --- record columns ≡ the reference record mode ----------------------------

   Random traces on a coarse grid (so arrivals tie, and with dyadic
   profile times completions tie with them) under random configs: every keep-alive policy, faults, retries, hedging,
   breaker shedding, the §7 fallback, lazy loading and rejecting caps. The
   rows [Router.run] keeps as columns must rebuild [Record_ref]'s records,
   and [Report.summarize] must give its summary, bit for bit. *)

type record_case = {
  ticks : int list;   (* arrivals, in grid steps *)
  dyadic : bool;      (* a quarter-second grid and profile times on it, so
                         events tie; otherwise a third of a second, and
                         sums of times round *)
  policy : int;       (* 0 Fixed_ttl, 1 Lru, 2 Adaptive *)
  pending : int option;  (* capped at 2 instances with this pending bound *)
  fault_pct : int;    (* 0: no faults *)
  retry : bool;
  hedge : bool;
  fb_pct : int;       (* 0: no fallback *)
  breaker : bool;     (* needs a fallback *)
  lazy_load : int;    (* 0 eager, 1 lazy, 2 lazy with preloading *)
  seed : int;
}

let record_case_gen =
  QCheck.Gen.(
    let+ ticks = list_size (int_bound 80) (int_bound 160)
    and+ dyadic = bool
    and+ policy = int_bound 2
    and+ pending = opt (int_bound 6)
    and+ fault_pct = oneofl [ 0; 0; 5; 20 ]
    and+ retry = bool
    and+ hedge = bool
    and+ fb_pct = oneofl [ 0; 10; 40 ]
    and+ breaker = bool
    and+ lazy_load = int_bound 2
    and+ seed = int_bound 1000 in
    { ticks; dyadic; policy; pending; fault_pct; retry; hedge; fb_pct; breaker;
      lazy_load; seed })

let print_record_case c =
  Printf.sprintf
    "ticks=[%s] dyadic=%b policy=%d pending=%s faults=%d%% retry=%b \
     hedge=%b fb=%d%% breaker=%b lazy=%d seed=%d"
    (String.concat ";" (List.map string_of_int c.ticks))
    c.dyadic c.policy
    (match c.pending with Some p -> string_of_int p | None -> "uncapped")
    c.fault_pct c.retry c.hedge c.fb_pct c.breaker c.lazy_load c.seed

let record_case_config c =
  let profile =
    if c.dyadic then
      { Router.exec_s = 1.0; func_init_s = 0.5; instance_init_s = 0.25;
        memory_mb = 256.0 }
    else
      { Router.exec_s = 0.3; func_init_s = 0.7; instance_init_s = 0.1;
        memory_mb = 256.0 }
  in
  let policy =
    match c.policy with
    | 0 -> Pool.Fixed_ttl { keep_alive_s = 3.0 }
    | 1 -> Pool.Lru { keep_alive_s = 3.0; max_idle = 1 }
    | _ -> Pool.Adaptive { min_s = 1.0; max_s = 10.0; percentile = 75.0 }
  in
  let fallback =
    if c.fb_pct = 0 then None
    else
      Some
        (Scenario.fallback ~rate:(float_of_int c.fb_pct /. 100.0)
           ~seed:c.seed
           ~original:{ profile with Router.func_init_s = 1.0 }
           ~policy:(Pool.Fixed_ttl { keep_alive_s = 2.0 }) ())
  in
  let rate = float_of_int c.fault_pct /. 100.0 in
  let base = Router.default_config ~profile policy in
  { base with
    Router.max_instances =
      (if c.pending = None then base.Router.max_instances else 2);
    max_pending = Option.value c.pending ~default:base.Router.max_pending;
    pending_timeout_s = (if c.pending = None then 60.0 else 1.0);
    fallback;
    faults =
      { Faults.seed = c.seed; init_failure_rate = rate;
        crash_rate = rate /. 2.0; transient_error_rate = rate;
        churn_rate = rate /. 2.0 };
    resilience =
      { Resilience.retry =
          (if c.retry then Some Resilience.default_retry else None);
        request_timeout_s = 30.0;
        breaker =
          (if c.breaker && fallback <> None then
             Some
               { Resilience.Breaker.error_threshold = 0.2; window = 8;
                 min_samples = 3; cooldown_s = 4.0 }
           else None);
        hedge =
          (if c.hedge then Some { Resilience.hedge_delay_s = 0.25 }
           else None) };
    lazy_load =
      (if c.lazy_load = 0 then None
       else
         Some
           { Router.lz_deferred_s = 1.5; lz_first_touch_s = 0.5;
             lz_preload = c.lazy_load = 2 }) }

(* A record's fields with every float as its bits. *)
let record_bits (r : Router.record) =
  ( r.Router.req,
    List.map Int64.bits_of_float
      [ r.Router.arrival_s; r.Router.start_s; r.Router.finish_s;
        r.Router.wait_s; r.Router.e2e_s; r.Router.billed_ms;
        r.Router.fb_billed_ms ],
    r.Router.outcome,
    r.Router.attempts,
    r.Router.hedged )

(* The summary field by field, every float as its bits. *)
let summary_fields (s : Report.summary) =
  let i = string_of_int and f = Printf.sprintf "%h" in
  [ ("label", s.Report.label); ("requests", i s.Report.requests);
    ("served", i s.Report.served); ("cold", i s.Report.cold);
    ("warm", i s.Report.warm); ("fallbacks", i s.Report.fallbacks);
    ("fb_cold", i s.Report.fb_cold); ("rejected", i s.Report.rejected);
    ("timed_out", i s.Report.timed_out); ("failed", i s.Report.failed);
    ("shed", i s.Report.shed); ("cold_fraction", f s.Report.cold_fraction);
    ("mean_ms", f s.Report.mean_ms); ("p50_ms", f s.Report.p50_ms);
    ("p95_ms", f s.Report.p95_ms); ("p99_ms", f s.Report.p99_ms);
    ("max_ms", f s.Report.max_ms); ("mean_wait_ms", f s.Report.mean_wait_ms);
    ("peak_instances", i s.Report.peak_instances);
    ("resident_instance_s", f s.Report.resident_instance_s);
    ("evictions", i s.Report.evictions); ("cost_usd", f s.Report.cost_usd);
    ("attempts", i s.Report.attempts); ("retried", i s.Report.retried);
    ("hedged", i s.Report.hedged); ("availability", f s.Report.availability);
    ("goodput_per_s", f s.Report.goodput_per_s);
    ("retry_amplification", f s.Report.retry_amplification) ]

let record_columns_equiv =
  QCheck.Test.make ~count:300
    ~name:"record columns and summarize = the reference record mode"
    (QCheck.make record_case_gen ~print:print_record_case) (fun c ->
        let cfg = record_case_config c in
        let trace =
          Platform.Trace.make ~name:"cols"
            (List.map
               (fun t -> float_of_int t /. if c.dyadic then 4.0 else 3.0)
               c.ticks)
        in
        let res = Router.run cfg trace in
        let reference = Record_ref.run cfg trace in
        let got = List.map record_bits (Record_ref.records res)
        and want = List.map record_bits (fst reference) in
        if got <> want then QCheck.Test.fail_report "records differ";
        List.iter2
          (fun (field, a) (_, b) ->
             if a <> b then
               QCheck.Test.fail_reportf "summary %s: %s, reference %s" field a
                 b)
          (summary_fields (Report.summarize ~label:"cols" cfg res))
          (summary_fields (Record_ref.summarize ~label:"cols" cfg reference));
        true)

let all_outcomes =
  let kinds = [ Router.Cold; Router.Warm ] in
  List.map (fun k -> Router.Served k) kinds
  @ List.concat_map
      (fun trimmed ->
         List.map
           (fun original -> Router.Fallback_served { trimmed; original })
           kinds)
      kinds
  @ List.map (fun k -> Router.Shed k) kinds
  @ [ Router.Rejected; Router.Timed_out ]
  @ List.map
      (fun f -> Router.Failed f)
      [ Router.Init_failed; Router.Crashed; Router.Errored ]

let record_columns =
  [ Alcotest.test_case "all 13 outcomes round-trip through the packed word"
      `Quick (fun () ->
        Alcotest.(check int) "13 outcomes" 13 (List.length all_outcomes);
        let words =
          List.concat
            (List.mapi
               (fun i o ->
                  List.map
                    (fun (attempts, hedged) ->
                       let w = Router.pack_row o ~attempts ~hedged in
                       (* [-1] marks a row not yet written *)
                       if w < 0 then Alcotest.failf "outcome %d: negative" i;
                       if Router.unpack_row w <> (o, attempts, hedged) then
                         Alcotest.failf
                           "outcome %d, %d attempts, hedged %b: no round trip"
                           i attempts hedged;
                       w)
                    [ (0, false); (1, true); (7, false); (1 lsl 40, true) ])
               all_outcomes)
        in
        Alcotest.(check int) "distinct words" (List.length words)
          (List.length (List.sort_uniq Int.compare words)));
    QCheck_alcotest.to_alcotest ~verbose:false record_columns_equiv ]

(* --- sharded determinism --------------------------------------------------- *)

let mini_apps () =
  let profile =
    { Router.exec_s = 0.2; func_init_s = 0.6; instance_init_s = 0.1;
      memory_mb = 256.0 }
  in
  let trimmed = { profile with Router.func_init_s = 0.15 } in
  List.init 7 (fun i ->
      { Sharded.app_id = i;
        app_trace =
          (fun () ->
             Platform.Trace.poisson ~seed:(100 + (i * 7919)) ~rate_per_s:1.5
               ~duration_s:400.0
               ~name:(Printf.sprintf "mini-%d" i));
        app_variants =
          [ { Sharded.v_group = "original";
              v_cfg =
                Router.default_config ~profile
                  (Pool.Fixed_ttl { keep_alive_s = 300.0 }) };
            { Sharded.v_group = "trimmed";
              v_cfg =
                { (Router.default_config ~profile:trimmed
                     (Pool.Fixed_ttl { keep_alive_s = 300.0 }))
                  with
                  Router.fallback =
                    Some
                      (Scenario.fallback ~rate:0.02 ~seed:(200 + i)
                         ~original:profile ()) } } ] })

let rows groups =
  List.map
    (fun (g : Sharded.group) ->
       Printf.sprintf "%s,%d,%d,%s" g.Sharded.g_label g.Sharded.g_apps
         g.Sharded.g_summary.Report.requests
         (Report.csv_row g.Sharded.g_summary))
    groups

let sharded =
  [ Alcotest.test_case "group reports bit-identical at any shard count"
      `Quick (fun () ->
        let apps = mini_apps () in
        let base = rows (Sharded.run ~shards:1 apps) in
        List.iter
          (fun shards ->
             Alcotest.(check (list string))
               (Printf.sprintf "shards=%d" shards)
               base
               (rows (Sharded.run ~shards apps)))
          [ 2; 3; 4; 7 ]);
    Alcotest.test_case "trace-replay experiment shard-invariant" `Slow
      (fun () ->
        let run shards =
          let r =
            Experiments.Trace_replay.run ~n_functions:40 ~horizon_s:900.0
              ~shards ()
          in
          rows r.Experiments.Trace_replay.groups
        in
        Alcotest.(check (list string)) "shards 1 = shards 4" (run 1) (run 4));
    Alcotest.test_case "groups count every app run and request" `Quick
      (fun () ->
        let apps = mini_apps () in
        let groups = Sharded.run ~shards:3 apps in
        Alcotest.(check (list string)) "groups in first-seen order"
          [ "original"; "trimmed" ]
          (List.map (fun (g : Sharded.group) -> g.Sharded.g_label) groups);
        List.iter
          (fun (g : Sharded.group) ->
             let label = g.Sharded.g_label in
             Alcotest.(check int) (label ^ ": apps") (List.length apps)
               g.Sharded.g_apps;
             (* each app's record-mode summary, summed, is the group's *)
             let per_app =
               List.concat_map
                 (fun (a : Sharded.app) ->
                    let trace = a.Sharded.app_trace () in
                    List.filter_map
                      (fun (v : Sharded.variant) ->
                         if v.Sharded.v_group <> label then None
                         else
                           Some
                             ( Platform.Trace.length trace,
                               Report.summarize ~label v.Sharded.v_cfg
                                 (Router.run v.Sharded.v_cfg trace) ))
                      a.Sharded.app_variants)
                 apps
             in
             let sum f = List.fold_left (fun acc x -> acc + f x) 0 per_app in
             let s = g.Sharded.g_summary in
             Alcotest.(check int) (label ^ ": requests = trace lengths")
               (sum fst) s.Report.requests;
             Alcotest.(check int) (label ^ ": served")
               (sum (fun (_, r) -> r.Report.served)) s.Report.served;
             Alcotest.(check int) (label ^ ": cold")
               (sum (fun (_, r) -> r.Report.cold)) s.Report.cold;
             Alcotest.(check int) (label ^ ": fallbacks")
               (sum (fun (_, r) -> r.Report.fallbacks)) s.Report.fallbacks)
          groups);
    Alcotest.test_case "every trace runs on the heap" `Quick (fun () ->
        List.iter
          (fun trace ->
             Alcotest.(check bool) trace.Platform.Trace.trace_name true
               (Router.queue_kind_for trace = Events.Heap))
          [ Platform.Trace.poisson ~seed:1 ~rate_per_s:100.0
              ~duration_s:1000.0 ~name:"dense";
            Platform.Trace.periodic ~period_s:10.0 ~count:10 ~name:"sparse";
            Platform.Trace.make ~name:"empty" [] ]) ]

let suite =
  [ ("fleet-stream: event-queue properties", qcheck_suite);
    ("fleet-stream: heap space leak", leak);
    ("fleet-stream: hot-path allocation", alloc);
    ("fleet-stream: sketch accuracy", sketch);
    ("fleet-stream: stream = summarize", stream_equiv);
    ("fleet-stream: record columns", record_columns);
    ("fleet-stream: sharded determinism", sharded) ]
