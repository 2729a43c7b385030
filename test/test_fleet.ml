(* Fleet simulator: event-queue ordering, eviction policies, the adaptive
   idle-gap histogram, bounded queue, fallback re-invocation, parity with
   the analytic single-instance replay, the unbounded concurrent pool, and
   pinned whole-run output. *)

open Fleet
module Events = Test_fleet_stream.Events

let no_init ?(exec_s = 0.0) ?(memory_mb = 256.0) () =
  { Router.exec_s; func_init_s = 0.0; instance_init_s = 0.0; memory_mb }

let config ?(max_instances = max_int) ?(max_pending = 1024)
    ?(pending_timeout_s = infinity) ?fallback ?(faults = Faults.none)
    ?(resilience = Resilience.none) ?lazy_load ~profile policy =
  { Router.profile; policy; max_instances; max_pending; pending_timeout_s;
    fallback; faults; resilience; lazy_load }

let run_kinds cfg trace =
  let res = Router.run cfg trace in
  List.fold_left
    (fun (cold, warm) (r : Router.record) ->
       match r.Router.outcome with
       | Router.Served Router.Cold -> (cold + 1, warm)
       | Router.Served Router.Warm -> (cold, warm + 1)
       | Router.Fallback_served { trimmed = Router.Cold; _ } ->
         (cold + 1, warm)
       | Router.Fallback_served { trimmed = Router.Warm; _ } ->
         (cold, warm + 1)
       | Router.Shed _ | Router.Rejected | Router.Timed_out
       | Router.Failed _ -> (cold, warm))
    (0, 0) (Record_ref.records res)

(* --- event queue --------------------------------------------------------- *)

let events =
  [ Alcotest.test_case "pops in time order" `Quick (fun () ->
        let q = Events.create () in
        List.iter (fun t -> Events.push q ~time:t ~rank:0 (int_of_float t))
          [ 5.0; 1.0; 9.0; 3.0; 7.0; 0.5; 2.0 ];
        let popped = List.map fst (Events.drain q) in
        Alcotest.(check (list (float 1e-12))) "sorted"
          (List.sort compare popped) popped);
    Alcotest.test_case "equal times pop FIFO" `Quick (fun () ->
        let q = Events.create () in
        List.iter (fun x -> Events.push q ~time:1.0 ~rank:0 x) [ 1; 2; 3; 4; 5 ];
        Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ]
          (List.map snd (Events.drain q)));
    Alcotest.test_case "rank breaks ties before sequence" `Quick (fun () ->
        let q = Events.create () in
        Events.push q ~time:1.0 ~rank:3 "expire";
        Events.push q ~time:1.0 ~rank:1 "arrival";
        Events.push q ~time:1.0 ~rank:0 "complete";
        Events.push q ~time:0.5 ~rank:3 "earlier-expire";
        Alcotest.(check (list string)) "time, then rank"
          [ "earlier-expire"; "complete"; "arrival"; "expire" ]
          (List.map snd (Events.drain q)));
    Alcotest.test_case "interleaved push/pop keeps heap valid" `Quick (fun () ->
        let q = Events.create () in
        for i = 0 to 999 do
          Events.push q ~time:(float_of_int ((i * 7919) mod 1000)) ~rank:0 i
        done;
        let rec drain_some n =
          if n > 0 then begin
            ignore (Events.pop q);
            drain_some (n - 1)
          end
        in
        drain_some 500;
        for i = 0 to 99 do
          Events.push q ~time:(float_of_int (i * 3)) ~rank:0 (i + 1000)
        done;
        let times = List.map fst (Events.drain q) in
        Alcotest.(check (list (float 1e-12))) "still sorted"
          (List.sort compare times) times;
        Alcotest.(check int) "empty" 0 (Events.length q));
    Alcotest.test_case "NaN times are rejected, infinities are legal" `Quick
      (fun () ->
        List.iter
          (fun (name, kind) ->
             let q = Events.create ~kind () in
             let pushed = ref [] in
             List.iter
               (fun t ->
                  match Events.push q ~time:t ~rank:0 t with
                  | () -> pushed := t :: !pushed
                  | exception Invalid_argument _ ->
                    Alcotest.(check bool) (name ^ ": only NaN rejected") true
                      (Float.is_nan t))
               [ 3.0; Float.nan; 2.0; Float.infinity; 1.0; Float.neg_infinity;
                 0.5 ];
             Alcotest.(check (list (float 0.0))) (name ^ ": finite keys sorted")
               [ Float.neg_infinity; 0.5; 1.0; 2.0; 3.0; Float.infinity ]
               (List.map fst (Events.drain q));
             Alcotest.(check int) (name ^ ": NaN never queued") 6
               (List.length !pushed))
          [ ("heap", Events.Heap);
            ("calendar", Events.Calendar { width = 1.0; n_buckets = 8 }) ]) ]

(* --- eviction policies --------------------------------------------------- *)

let policies =
  [ Alcotest.test_case "fixed TTL: dense periodic is one cold" `Quick (fun () ->
        let t = Platform.Trace.periodic ~period_s:10.0 ~count:100 ~name:"d" in
        let cfg =
          config ~profile:(no_init ())
            (Pool.Fixed_ttl { keep_alive_s = 15.0 })
        in
        Alcotest.(check (pair int int)) "1 cold, 99 warm" (1, 99)
          (run_kinds cfg t));
    Alcotest.test_case "fixed TTL: sparse periodic is all cold" `Quick
      (fun () ->
        let t = Platform.Trace.periodic ~period_s:10.0 ~count:20 ~name:"s" in
        let cfg =
          config ~profile:(no_init ())
            (Pool.Fixed_ttl { keep_alive_s = 5.0 })
        in
        Alcotest.(check (pair int int)) "all cold" (20, 0) (run_kinds cfg t));
    Alcotest.test_case "fixed TTL: boundary arrival is warm" `Quick (fun () ->
        let t = Platform.Trace.periodic ~period_s:900.0 ~count:3 ~name:"e" in
        let cfg =
          config ~profile:(no_init ())
            (Pool.Fixed_ttl { keep_alive_s = 900.0 })
        in
        Alcotest.(check (pair int int)) "warm at exactly keep-alive" (1, 2)
          (run_kinds cfg t));
    Alcotest.test_case "LRU cap: surplus idle instances are evicted" `Quick
      (fun () ->
        (* two 5-wide instantaneous bursts; cap of 2 idle instances means
           the second burst finds only 2 warm *)
        let t =
          Platform.Trace.make ~name:"bursts"
            [ 0.0; 0.01; 0.02; 0.03; 0.04; 100.0; 100.01; 100.02; 100.03;
              100.04 ]
        in
        let cfg =
          config
            ~profile:(no_init ~exec_s:1.0 ())
            (Pool.Lru { keep_alive_s = 900.0; max_idle = 2 })
        in
        let res = Router.run cfg t in
        Alcotest.(check (pair int int)) "8 cold, 2 warm" (8, 2)
          (run_kinds cfg t);
        Alcotest.(check int) "peak 5" 5 res.Router.peak_instances;
        Alcotest.(check bool) "LRU evicted at least 3" true
          (res.Router.evictions >= 3));
    Alcotest.test_case "LRU with a roomy cap behaves like fixed TTL" `Quick
      (fun () ->
        let t = Platform.Trace.poisson ~seed:3 ~rate_per_s:0.5
            ~duration_s:2000.0 ~name:"p"
        in
        let kinds policy = run_kinds (config ~profile:(no_init ()) policy) t in
        Alcotest.(check (pair int int)) "same mix"
          (kinds (Pool.Fixed_ttl { keep_alive_s = 120.0 }))
          (kinds (Pool.Lru { keep_alive_s = 120.0; max_idle = 1000 })));
    Alcotest.test_case "adaptive: learns the gap and stays warm" `Quick
      (fun () ->
        (* 30 s gaps, TTL clamp [5, 60]: the histogram converges on ~33 s,
           so reuse stays warm while residency drops below fixed-TTL-60 *)
        let t = Platform.Trace.periodic ~period_s:30.0 ~count:50 ~name:"a" in
        let adaptive =
          config ~profile:(no_init ())
            (Pool.Adaptive { min_s = 5.0; max_s = 60.0; percentile = 99.0 })
        in
        let fixed =
          config ~profile:(no_init ())
            (Pool.Fixed_ttl { keep_alive_s = 60.0 })
        in
        Alcotest.(check (pair int int)) "1 cold, 49 warm" (1, 49)
          (run_kinds adaptive t);
        let res_a = Router.run adaptive t in
        let res_f = Router.run fixed t in
        Alcotest.(check bool)
          (Printf.sprintf "adaptive resident %.0f < fixed %.0f"
             res_a.Router.resident_instance_s res_f.Router.resident_instance_s)
          true
          (res_a.Router.resident_instance_s
           < res_f.Router.resident_instance_s));
    Alcotest.test_case "adaptive: clamp below the gap goes cold" `Quick
      (fun () ->
        (* max_s of 20 s cannot cover 30 s gaps, so nothing is ever reused
           and the histogram never gets an observation *)
        let t = Platform.Trace.periodic ~period_s:30.0 ~count:20 ~name:"c" in
        let cfg =
          config ~profile:(no_init ())
            (Pool.Adaptive { min_s = 5.0; max_s = 20.0; percentile = 99.0 })
        in
        Alcotest.(check (pair int int)) "all cold" (20, 0) (run_kinds cfg t)) ]

(* --- adaptive idle-gap histogram ------------------------------------------ *)

(* The reference: rescan the buckets from 0 on every query. *)
let scan_percentile buckets total p =
  if total = 0 then 0.0
  else begin
    let threshold =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int total)))
    in
    let n = Array.length buckets in
    let rec go i seen =
      if i = n then float_of_int n
      else
        let seen = seen + buckets.(i) in
        if seen >= threshold then float_of_int (i + 1) else go (i + 1) seen
    in
    go 0 0
  end

type hist_op = Observe of float | Query of float

let hist_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun g -> Observe g) (float_range 0.0 120.0));
        (1, map (fun g -> Observe g) (float_range (-5.0) 3700.0));
        (1, map (fun g -> Observe g) (float_range 3600.0 20_000.0));
        (2, map (fun p -> Query p) (float_range 0.0 100.0));
        (1, map (fun p -> Query p) (oneofl [ 0.0; 50.0; 99.0; 100.0 ])) ])

let hist_ops_arb =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (function
          | Observe g -> Printf.sprintf "observe %g" g
          | Query p -> Printf.sprintf "query %g" p))
    QCheck.Gen.(list_size (int_bound 300) hist_op_gen)

let histogram =
  [ QCheck_alcotest.to_alcotest ~verbose:false
      (QCheck.Test.make ~count:300
         ~name:"cursor percentile = full bucket scan" hist_ops_arb
         (fun ops ->
            let h = Pool.Histogram.create () in
            let buckets = Array.make Pool.Histogram.bucket_count 0 in
            let total = ref 0 in
            List.for_all
              (function
                | Observe g ->
                  Pool.Histogram.observe h g;
                  let i =
                    min (Pool.Histogram.bucket_count - 1)
                      (max 0 (int_of_float g))
                  in
                  buckets.(i) <- buckets.(i) + 1;
                  incr total;
                  true
                | Query p ->
                  Pool.Histogram.percentile h p
                  = scan_percentile buckets !total p)
              ops)) ]

(* --- idle stack against the live-table scans (Pool_ref) ------------------

   Random acquire/spawn/release/fire/reclaim sequences, with many tied
   instants, through [Pool] and [Pool_ref]: the same instance on every
   acquire, the same [Lru] victim and the same timer push on every
   release, the same re-arm on every fire, and bit-identical counts and
   residency at the end. Acquires may run past due timers (the router
   never does), so an expired instance can still sit idle. *)

type pool_op =
  | P_acquire
  | P_spawn
  | P_release of int
  | P_fire
  | P_reclaim of int

let pool_ops_gen =
  QCheck.Gen.(
    let op =
      frequency
        [ (4, return P_acquire); (3, return P_spawn);
          (5, map (fun k -> P_release k) nat); (2, return P_fire);
          (1, map (fun k -> P_reclaim k) nat) ]
    in
    let dt = oneofl [ 0.0; 0.0; 0.0; 0.5; 1.0; 2.0; 5.0 ] in
    let keep_alive = oneofl [ 0.0; 0.5; 1.0; 3.0; 10.0; infinity ] in
    let policy =
      frequency
        [ (1, map (fun ka -> Pool.Fixed_ttl { keep_alive_s = ka }) keep_alive);
          (3,
           map2
             (fun ka cap -> Pool.Lru { keep_alive_s = ka; max_idle = cap })
             keep_alive (int_bound 4)) ]
    in
    pair policy (list_size (int_bound 120) (pair dt op)))

let pool_ops_arb =
  QCheck.make
    ~print:(fun (pol, ops) ->
        Pool.policy_name pol ^ ": "
        ^ String.concat "; "
            (List.map
               (fun (dt, op) ->
                  Printf.sprintf "+%g %s" dt
                    (match op with
                     | P_acquire -> "acquire"
                     | P_spawn -> "spawn"
                     | P_release k -> Printf.sprintf "release %d" k
                     | P_fire -> "fire"
                     | P_reclaim k -> Printf.sprintf "reclaim %d" k))
               ops))
    pool_ops_gen

let pool_matches_ref (policy, ops) =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let keep_alive_s, max_idle =
    match policy with
    | Pool.Fixed_ttl { keep_alive_s } -> (keep_alive_s, None)
    | Pool.Lru { keep_alive_s; max_idle } -> (keep_alive_s, Some max_idle)
    | Pool.Adaptive _ -> assert false
  in
  let pool = Pool.create policy
  and rf = Pool_ref.create ~keep_alive_s ~max_idle in
  let seq_a = ref 0 and seq_b = ref 0 in
  let reserve r () = incr r; !r in
  let insts = ref [||] in  (* (library, reference) by id *)
  let busy = ref [] and timers = ref [] and clock = ref 0.0 in
  let evicted (i : Pool.instance) =
    i.Pool.times.Pool.expires_at = neg_infinity
  in
  let serve (a : Pool.instance) (b : Pool_ref.inst) =
    a.Pool.times.Pool.busy_until <- !clock +. 0.25;
    b.Pool_ref.busy_until <- !clock +. 0.25;
    busy := a.Pool.id :: !busy
  in
  (* a pushed timer: both sides must name the same key *)
  let push_timer (a : Pool.instance) (b : Pool_ref.inst) =
    if a.Pool.times.Pool.expires_at <> b.Pool_ref.expires_at
    || a.Pool.idle_seq <> b.Pool_ref.idle_seq
    then fail "timer key differs for instance %d" a.Pool.id;
    timers := (b.Pool_ref.expires_at, b.Pool_ref.idle_seq, a.Pool.id) :: !timers
  in
  List.iter
    (fun (dt, op) ->
       clock := !clock +. dt;
       let now = !clock in
       (match op with
        | P_acquire -> (
            match (Pool.acquire pool ~now, Pool_ref.acquire rf ~now) with
            | None, None -> ()
            | Some a, Some b when a.Pool.id = b.Pool_ref.id -> serve a b
            | a, b ->
              let id = Option.fold ~none:(-1) ~some:(fun i -> i.Pool.id)
              and id_ref =
                Option.fold ~none:(-1) ~some:(fun i -> i.Pool_ref.id)
              in
              fail "acquire at %g: instance %d, reference %d" now (id a)
                (id_ref b))
        | P_spawn ->
          let a = Pool.spawn pool ~now and b = Pool_ref.spawn rf ~now in
          insts := Array.append !insts [| (a, b) |];
          serve a b
        | P_release k when !busy <> [] ->
          let id = List.nth !busy (k mod List.length !busy) in
          busy := List.filter (( <> ) id) !busy;
          let a, b = !insts.(id) in
          let before = Array.map (fun (i, _) -> evicted i) !insts in
          let push_a = Pool.release pool a ~now ~reserve:(reserve seq_a) in
          let push_b, victim_b =
            Pool_ref.release rf b ~now ~reserve:(reserve seq_b)
          in
          let victim_a = ref None in
          Array.iteri
            (fun j (i, _) ->
               if evicted i && not before.(j) then victim_a := Some j)
            !insts;
          if !victim_a <> victim_b then
            fail "release of %d at %g: victim %d, reference %d" id now
              (Option.value ~default:(-1) !victim_a)
              (Option.value ~default:(-1) victim_b);
          if push_a <> push_b then
            fail "release of %d at %g: push differs" id now;
          if push_a then push_timer a b
        | P_release _ -> ()
        | P_fire -> (
            match List.sort compare !timers with
            | [] -> ()
            | (at, seq, id) :: rest ->
              timers := rest;
              clock := Float.max now at;
              let now = !clock in
              let a, b = !insts.(id) in
              let re_a = Pool.fire pool a ~seq ~now
              and re_b = Pool_ref.fire rf b ~seq ~now in
              if re_a <> re_b then
                fail "fire of %d (seq %d): re-arm differs" id seq;
              if re_a then push_timer a b)
        | P_reclaim k when Array.length !insts > 0 ->
          let id = k mod Array.length !insts in
          let a, b = !insts.(id) in
          Pool.reclaim pool a ~now;
          Pool_ref.reclaim rf b ~now;
          busy := List.filter (( <> ) id) !busy
        | P_reclaim _ -> ());
       if Pool.live_count pool <> Pool_ref.live_count rf
       || Pool.evictions pool <> rf.Pool_ref.evicted
       then fail "after the op at %g: live or evictions differ" now)
    ops;
  Pool.drain pool;
  Pool_ref.drain rf;
  let bits = Int64.bits_of_float in
  Pool.evictions pool = rf.Pool_ref.evicted
  && Pool.live_count pool = Pool_ref.live_count rf
  && Pool.peak_live pool = rf.Pool_ref.peak
  && bits (Pool.resident_s pool) = bits rf.Pool_ref.resident
  || fail "after drain: evictions %d/%d, resident %h/%h" (Pool.evictions pool)
       rf.Pool_ref.evicted (Pool.resident_s pool) rf.Pool_ref.resident

let pool_ref =
  [ QCheck_alcotest.to_alcotest ~verbose:false
      (QCheck.Test.make ~count:500 ~name:"idle stack = live-table scans"
         pool_ops_arb pool_matches_ref) ]

(* --- bounded queue and timeouts ------------------------------------------ *)

let queueing =
  [ Alcotest.test_case "saturated queue rejects the overflow" `Quick (fun () ->
        (* one instance busy 10 s, 2 queue slots: the 4th arrival bounces *)
        let t = Platform.Trace.make ~name:"q" [ 0.0; 1.0; 2.0; 3.0 ] in
        let cfg =
          config ~max_instances:1 ~max_pending:2
            ~profile:(no_init ~exec_s:10.0 ())
            (Pool.Fixed_ttl { keep_alive_s = 900.0 })
        in
        let res = Router.run cfg t in
        let outcome i =
          (List.nth (Record_ref.records res) i).Router.outcome
        in
        Alcotest.(check bool) "r0 cold" true
          (outcome 0 = Router.Served Router.Cold);
        Alcotest.(check bool) "r1 warm after wait" true
          (outcome 1 = Router.Served Router.Warm);
        Alcotest.(check bool) "r2 warm after wait" true
          (outcome 2 = Router.Served Router.Warm);
        Alcotest.(check bool) "r3 rejected" true (outcome 3 = Router.Rejected);
        let r1 = List.nth (Record_ref.records res) 1 in
        Alcotest.(check (float 1e-9)) "r1 waited 9 s" 9.0 r1.Router.wait_s;
        Alcotest.(check (float 1e-9)) "r1 finished at 20" 20.0
          r1.Router.finish_s);
    Alcotest.test_case "queued requests time out" `Quick (fun () ->
        let t = Platform.Trace.make ~name:"t" [ 0.0; 1.0; 2.0 ] in
        let cfg =
          config ~max_instances:1 ~max_pending:10 ~pending_timeout_s:5.0
            ~profile:(no_init ~exec_s:10.0 ())
            (Pool.Fixed_ttl { keep_alive_s = 900.0 })
        in
        let res = Router.run cfg t in
        let outcomes =
          List.map (fun (r : Router.record) -> r.Router.outcome)
            (Record_ref.records res)
        in
        Alcotest.(check bool) "served, timed out, timed out" true
          (outcomes
           = [ Router.Served Router.Cold; Router.Timed_out; Router.Timed_out ]);
        (* a timeout frees its queue slot: the wait recorded is the timeout *)
        let r1 = List.nth (Record_ref.records res) 1 in
        Alcotest.(check (float 1e-9)) "gave up after 5 s" 5.0 r1.Router.wait_s);
    Alcotest.test_case "timeout slot is recycled" `Quick (fun () ->
        (* r1 times out at 6 before r3 arrives, so r3 takes the slot instead
           of bouncing *)
        let t = Platform.Trace.make ~name:"r" [ 0.0; 1.0; 7.0 ] in
        let cfg =
          config ~max_instances:1 ~max_pending:1 ~pending_timeout_s:5.0
            ~profile:(no_init ~exec_s:10.0 ())
            (Pool.Fixed_ttl { keep_alive_s = 900.0 })
        in
        let res = Router.run cfg t in
        let outcomes =
          List.map (fun (r : Router.record) -> r.Router.outcome)
            (Record_ref.records res)
        in
        Alcotest.(check bool) "cold, timed out, warm" true
          (outcomes
           = [ Router.Served Router.Cold; Router.Timed_out;
               Router.Served Router.Warm ])) ]

(* --- fallback re-invocation ---------------------------------------------- *)

let fallback =
  [ Alcotest.test_case "every request falls back at rate 1" `Quick (fun () ->
        let t = Platform.Trace.make ~name:"fb" [ 0.0; 100.0 ] in
        let original =
          { Router.exec_s = 2.0; func_init_s = 1.0; instance_init_s = 0.5;
            memory_mb = 512.0 }
        in
        let fb =
          { (Scenario.fallback ~rate:1.0 ~seed:1 ~original ()) with
            Router.fb_setup_s = 0.05 }
        in
        let cfg =
          config ~fallback:fb
            ~profile:(no_init ~exec_s:1.0 ())
            (Pool.Fixed_ttl { keep_alive_s = 900.0 })
        in
        let res = Router.run cfg t in
        (match List.map (fun (r : Router.record) -> r.Router.outcome)
                 (Record_ref.records res)
         with
         | [ Router.Fallback_served { trimmed = Router.Cold;
                                      original = Router.Cold };
             Router.Fallback_served { trimmed = Router.Warm;
                                      original = Router.Warm } ] -> ()
         | _ -> Alcotest.fail "expected cold/cold then warm/warm fallbacks");
        let r0 = List.nth (Record_ref.records res) 0 in
        (* trimmed exec 1 + setup 0.05 + original cold 0.5+1+2 *)
        Alcotest.(check (float 1e-9)) "r0 e2e" 4.55 r0.Router.e2e_s;
        Alcotest.(check (float 1e-9)) "r0 primary billed ms" 1000.0
          r0.Router.billed_ms;
        Alcotest.(check (float 1e-9)) "r0 fallback billed ms" 3000.0
          r0.Router.fb_billed_ms;
        let r1 = List.nth (Record_ref.records res) 1 in
        Alcotest.(check (float 1e-9)) "r1 e2e warm" 3.05 r1.Router.e2e_s;
        Alcotest.(check (float 1e-9)) "r1 fallback billed ms" 2000.0
          r1.Router.fb_billed_ms;
        Alcotest.(check int) "fallback pool had one instance" 1
          res.Router.fb_peak_instances);
    Alcotest.test_case "rate 0 config never falls back" `Quick (fun () ->
        let t = Platform.Trace.periodic ~period_s:10.0 ~count:50 ~name:"z" in
        let original = no_init ~exec_s:1.0 () in
        let fb = Scenario.fallback ~rate:0.0 ~seed:1 ~original () in
        let cfg =
          config ~fallback:fb ~profile:(no_init ())
            (Pool.Fixed_ttl { keep_alive_s = 900.0 })
        in
        let res = Router.run cfg t in
        List.iter
          (fun (r : Router.record) ->
             match r.Router.outcome with
             | Router.Fallback_served _ -> Alcotest.fail "unexpected fallback"
             | _ -> ())
          (Record_ref.records res)) ]

(* --- parity with the analytic replay ------------------------------------- *)

let replay_parity =
  (* A 1-instance fleet under fixed TTL is the model [Trace.replay]
     solves analytically, in the regime where the two coincide: no
     execution overlap (the replay pretends requests never queue, so parity
     holds exactly when exec fits inside the inter-arrival gap or is 0). *)
  let parity_check ?(exec_s = 0.0) trace ~keep_alive_s =
    let simple = Platform.Trace.replay ~exec_s trace ~keep_alive_s in
    let cfg =
      config ~max_instances:1
        ~profile:(no_init ~exec_s ())
        (Pool.Fixed_ttl { keep_alive_s })
    in
    let cold, warm = run_kinds cfg trace in
    Alcotest.(check int)
      (trace.Platform.Trace.trace_name ^ " cold")
      simple.Platform.Trace.cold_starts cold;
    Alcotest.(check int)
      (trace.Platform.Trace.trace_name ^ " warm")
      simple.Platform.Trace.warm_starts warm;
    (simple, Router.run cfg trace)
  in
  [ Alcotest.test_case "poisson sweep matches replay" `Quick (fun () ->
        List.iter
          (fun (seed, rate, ttl) ->
             let t =
               Platform.Trace.poisson ~seed ~rate_per_s:rate
                 ~duration_s:5000.0
                 ~name:(Printf.sprintf "seed%d-r%g-ttl%g" seed rate ttl)
             in
             ignore (parity_check t ~keep_alive_s:ttl))
          [ (1, 0.01, 60.0); (2, 0.1, 60.0); (3, 0.1, 15.0); (4, 1.0, 5.0);
            (5, 0.02, 300.0); (6, 0.5, 1.0); (7, 2.0, 0.5) ]);
    Alcotest.test_case "qcheck: random traces match replay" `Quick (fun () ->
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:100 ~name:"fleet-vs-replay"
             QCheck.(triple (int_bound 10_000) (float_range 0.005 2.0)
                       (float_range 0.0 300.0))
             (fun (seed, rate, ttl) ->
                let t =
                  Platform.Trace.poisson ~seed ~rate_per_s:rate
                    ~duration_s:1000.0 ~name:"q"
                in
                let simple = Platform.Trace.replay t ~keep_alive_s:ttl in
                let cfg =
                  config ~max_instances:1 ~profile:(no_init ())
                    (Pool.Fixed_ttl { keep_alive_s = ttl })
                in
                let cold, warm = run_kinds cfg t in
                cold = simple.Platform.Trace.cold_starts
                && warm = simple.Platform.Trace.warm_starts)));
    Alcotest.test_case "nonzero exec: busy time extends keep-alive" `Quick
      (fun () ->
        (* period 10, exec 3, TTL 8: gap from completion is 7 <= 8, warm;
           without the exec extension the gap would be 10 > 8, cold *)
        let t = Platform.Trace.periodic ~period_s:10.0 ~count:30 ~name:"x" in
        let simple, res = parity_check ~exec_s:3.0 t ~keep_alive_s:8.0 in
        Alcotest.(check int) "replay agrees it is warm" 29
          simple.Platform.Trace.warm_starts;
        Alcotest.(check (float 1e-6)) "resident time matches replay"
          simple.Platform.Trace.resident_s res.Router.resident_instance_s);
    Alcotest.test_case "deterministic: identical runs, identical records"
      `Quick (fun () ->
        let t = Platform.Trace.bursty ~seed:11 ~burst_size:20
            ~burst_rate_per_s:10.0 ~idle_gap_s:500.0 ~bursts:5 ~name:"det"
        in
        let original = no_init ~exec_s:2.0 () in
        let cfg =
          config
            ~fallback:(Scenario.fallback ~rate:0.2 ~seed:3 ~original ())
            ~profile:(no_init ~exec_s:1.0 ())
            (Pool.Adaptive { min_s = 10.0; max_s = 600.0; percentile = 95.0 })
        in
        let r1 = Router.run cfg t and r2 = Router.run cfg t in
        Alcotest.(check bool) "records identical" true
          (Record_ref.records r1 = Record_ref.records r2);
        Alcotest.(check int) "same event count" r1.Router.events_processed
          r2.Router.events_processed) ]

(* --- concurrent pool ------------------------------------------------------ *)

let concurrent =
  (* An unbounded fixed-TTL pool: a request is warm iff some instance is
     idle and within keep-alive, so overlapping requests force parallel
     cold starts (§1's bursty scale-out). [init_s] is the Function
     Initialization a cold start pays before executing — the model the
     abl-bursts ablation prices. *)
  let pool_run ?(exec_s = 0.0) ?(init_s = 0.0) trace ~keep_alive_s =
    let cfg =
      config
        ~profile:{ Router.exec_s; func_init_s = init_s;
                   instance_init_s = 0.0; memory_mb = 256.0 }
        (Pool.Fixed_ttl { keep_alive_s })
    in
    Report.summarize ~label:trace.Platform.Trace.trace_name cfg
      (Router.run cfg trace)
  in
  [ Alcotest.test_case "serial trace matches single-instance replay" `Quick
      (fun () ->
        let t =
          Platform.Trace.periodic ~period_s:100.0 ~count:20 ~name:"serial"
        in
        let simple = Platform.Trace.replay t ~keep_alive_s:900.0 in
        let s = pool_run t ~keep_alive_s:900.0 in
        Alcotest.(check int) "cold" simple.Platform.Trace.cold_starts
          s.Report.cold;
        Alcotest.(check int) "warm" simple.Platform.Trace.warm_starts
          s.Report.warm;
        Alcotest.(check int) "one instance" 1 s.Report.peak_instances);
    Alcotest.test_case "overlapping burst forces parallel cold starts" `Quick
      (fun () ->
        (* 5 requests in the same instant, each takes 10 s *)
        let t =
          Platform.Trace.make ~name:"burst" [ 0.0; 0.01; 0.02; 0.03; 0.04 ]
        in
        let s = pool_run ~exec_s:10.0 t ~keep_alive_s:900.0 in
        Alcotest.(check int) "all cold" 5 s.Report.cold;
        Alcotest.(check int) "peak pool" 5 s.Report.peak_instances);
    Alcotest.test_case "burst followed by burst reuses the pool" `Quick
      (fun () ->
        let t =
          Platform.Trace.make ~name:"two-bursts"
            [ 0.0; 0.1; 0.2; 100.0; 100.1; 100.2 ]
        in
        let s = pool_run ~exec_s:1.0 t ~keep_alive_s:900.0 in
        Alcotest.(check int) "3 cold then 3 warm" 3 s.Report.cold;
        Alcotest.(check int) "warm" 3 s.Report.warm);
    Alcotest.test_case "a long cold init keeps the instance busy" `Quick
      (fun () ->
        (* with a long cold start, a request arriving during init cannot
           reuse the initializing instance *)
        let t = Platform.Trace.make ~name:"init-overlap" [ 0.0; 1.0 ] in
        let fast = pool_run ~exec_s:0.1 ~init_s:0.0 t ~keep_alive_s:900.0 in
        let slow = pool_run ~exec_s:0.1 ~init_s:5.0 t ~keep_alive_s:900.0 in
        Alcotest.(check int) "fast: second is warm" 1 fast.Report.cold;
        Alcotest.(check int) "slow: second is cold too" 2 slow.Report.cold);
    Alcotest.test_case "accounts for every arrival" `Quick (fun () ->
        let t =
          Platform.Trace.poisson ~seed:5 ~rate_per_s:0.5 ~duration_s:2000.0
            ~name:"p"
        in
        let s = pool_run ~exec_s:3.0 t ~keep_alive_s:300.0 in
        Alcotest.(check int) "total" (Platform.Trace.length t)
          (s.Report.cold + s.Report.warm));
    Alcotest.test_case "zero-length trace routes to zeros" `Quick (fun () ->
        let t = Platform.Trace.make ~name:"empty" [] in
        let s = pool_run ~exec_s:3.0 t ~keep_alive_s:900.0 in
        Alcotest.(check int) "cold" 0 s.Report.cold;
        Alcotest.(check int) "peak" 0 s.Report.peak_instances) ]

(* --- report -------------------------------------------------------------- *)

let report =
  [ Alcotest.test_case "summary counts and cost" `Quick (fun () ->
        let t = Platform.Trace.periodic ~period_s:10.0 ~count:10 ~name:"r" in
        let profile =
          { Router.exec_s = 0.1; func_init_s = 0.4; instance_init_s = 0.2;
            memory_mb = 512.0 }
        in
        let cfg = config ~profile (Pool.Fixed_ttl { keep_alive_s = 900.0 }) in
        let s = Report.summarize ~label:"t" cfg (Router.run cfg t) in
        Alcotest.(check int) "requests" 10 s.Report.requests;
        Alcotest.(check int) "cold" 1 s.Report.cold;
        Alcotest.(check int) "warm" 9 s.Report.warm;
        Alcotest.(check (float 1e-9)) "cold fraction" 0.1
          s.Report.cold_fraction;
        (* 1 cold at 500 billed ms + 9 warm at 100 billed ms, 512 MB *)
        let expected =
          Platform.Pricing.invocation_cost Platform.Pricing.aws
            ~duration_ms:500.0 ~memory_mb:512.0
          +. 9.0
             *. Platform.Pricing.invocation_cost Platform.Pricing.aws
                  ~duration_ms:100.0 ~memory_mb:512.0
        in
        Alcotest.(check (float 1e-12)) "eq-1 cost" expected s.Report.cost_usd;
        (* cold e2e = 0.2 + 0.4 + 0.1 = 0.7 s; warm = 0.1 s; p99
           interpolates 0.91 of the way from the 9th to the 10th sample *)
        Alcotest.(check (float 1e-6)) "p99 is the cold tail" 646.0
          s.Report.p99_ms;
        Alcotest.(check (float 1e-6)) "p50 is warm" 100.0 s.Report.p50_ms);
    Alcotest.test_case "empty trace summarizes to zeros" `Quick (fun () ->
        let t = Platform.Trace.make ~name:"empty" [] in
        let cfg =
          config ~profile:(no_init ())
            (Pool.Fixed_ttl { keep_alive_s = 60.0 })
        in
        let s = Report.summarize ~label:"e" cfg (Router.run cfg t) in
        Alcotest.(check int) "requests" 0 s.Report.requests;
        Alcotest.(check (float 1e-12)) "p99 total on empty" 0.0 s.Report.p99_ms;
        Alcotest.(check (float 1e-12)) "cost" 0.0 s.Report.cost_usd) ]

(* --- characterization: pinned router output ------------------------------ *)

(* Digests of whole [Router.run] results on tie-heavy configs: integer
   arrival and service times make releases, expiries, arrivals, timeouts
   and completions land on the same instants, so any change to the
   (time, rank, seq) order the loop resolves them in shows up here. The
   event count is deliberately left out: it measures how much work the
   loop does, not what it computes. *)

let int_trace ~seed ~n ~span =
  let rng = Random.State.make [| seed |] in
  Platform.Trace.make ~name:(Printf.sprintf "int-%d" seed)
    (List.init n (fun _ -> float_of_int (Random.State.int rng span)))

let outcome_key =
  let kind = function Router.Cold -> "cold" | Router.Warm -> "warm" in
  function
  | Router.Served k -> "s" ^ kind k
  | Router.Fallback_served { trimmed; original } ->
    "f" ^ kind trimmed ^ kind original
  | Router.Shed k -> "x" ^ kind k
  | Router.Rejected -> "rej"
  | Router.Timed_out -> "t/o"
  | Router.Failed Router.Init_failed -> "fail-init-failed"
  | Router.Failed Router.Crashed -> "fail-crashed"
  | Router.Failed Router.Errored -> "fail-errored"

let result_digest (res : Router.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Router.record) ->
       Printf.bprintf b "%d %h %h %h %h %h %s %h %h %d %b\n" r.Router.req
         r.Router.arrival_s r.Router.start_s r.Router.finish_s r.Router.wait_s
         r.Router.e2e_s (outcome_key r.Router.outcome) r.Router.billed_ms
         r.Router.fb_billed_ms r.Router.attempts r.Router.hedged)
    (Record_ref.records res);
  Printf.bprintf b "%d %h %d %d %h" res.Router.peak_instances
    res.Router.resident_instance_s res.Router.evictions
    res.Router.fb_peak_instances res.Router.fb_resident_instance_s;
  Digest.to_hex (Digest.string (Buffer.contents b))

let int_profile ~exec_s ~init_s =
  { Router.exec_s; func_init_s = init_s; instance_init_s = init_s;
    memory_mb = 256.0 }

let int_fallback ~rate ~seed =
  { (Scenario.fallback ~rate ~seed
       ~original:(int_profile ~exec_s:2.0 ~init_s:1.0)
       ~policy:(Pool.Fixed_ttl { keep_alive_s = 4.0 }) ())
    with
    Router.fb_setup_s = 1.0 }

let int_faults seed =
  { Faults.seed; init_failure_rate = 0.1; crash_rate = 0.05;
    transient_error_rate = 0.1; churn_rate = 0.05 }

let full_resilience =
  { Resilience.retry = Some Resilience.default_retry;
    request_timeout_s = 30.0;
    breaker =
      Some
        { Resilience.Breaker.error_threshold = 0.3; window = 10;
          min_samples = 5; cooldown_s = 20.0 };
    hedge = Some { Resilience.hedge_delay_s = 1.0 } }

(* (name, config, trace, digest of its Router.run) *)
let characterized =
  let dense = int_trace ~seed:1 ~n:400 ~span:200 in
  let sparse = int_trace ~seed:2 ~n:120 ~span:600 in
  let bursty = int_trace ~seed:3 ~n:300 ~span:60 in
  let p ?(exec_s = 1.0) ?(init_s = 1.0) () = int_profile ~exec_s ~init_s in
  [ ("fixed-ttl dense",
     config ~profile:(p ()) (Pool.Fixed_ttl { keep_alive_s = 5.0 }),
     dense, "d68ecfbbe1efc61982e672a6c394455f");
    ("fixed-ttl zero keep-alive",
     config ~profile:(p ~exec_s:2.0 ())
       (Pool.Fixed_ttl { keep_alive_s = 0.0 }),
     dense, "6517a1ef7049eab156fc84bb1c2cd132");
    ("fixed-ttl capped, pending + timeouts",
     config ~max_instances:2 ~max_pending:20 ~pending_timeout_s:3.0
       ~profile:(p ~exec_s:2.0 ()) (Pool.Fixed_ttl { keep_alive_s = 3.0 }),
     bursty, "f110f261c452e2ae8549aa065afb7bf1");
    ("lru max_idle 0",
     config ~profile:(p ()) (Pool.Lru { keep_alive_s = 4.0; max_idle = 0 }),
     dense, "16a772da79c3bdadea3d1f98b6f5c661");
    ("lru max_idle 1, capped",
     config ~max_instances:3 ~max_pending:5 ~pending_timeout_s:6.0
       ~profile:(p ~exec_s:2.0 ())
       (Pool.Lru { keep_alive_s = 6.0; max_idle = 1 }),
     bursty, "e74c5575304d02102be7e333e52374bb");
    ("adaptive p50",
     config ~profile:(p ())
       (Pool.Adaptive { min_s = 1.0; max_s = 10.0; percentile = 50.0 }),
     dense, "93a350a48e5cbc95317d2bdf1e914739");
    ("adaptive p90 capped, timeouts, faults without retries",
     config ~max_instances:2 ~max_pending:4 ~pending_timeout_s:5.0
       ~faults:(int_faults 11) ~profile:(p ~exec_s:2.0 ())
       (Pool.Adaptive { min_s = 0.0; max_s = 20.0; percentile = 90.0 }),
     sparse, "973b50a4c0db9e17a10b4270ee441d80");
    ("adaptive p100 with churn",
     config ~faults:{ Faults.none with Faults.seed = 9; churn_rate = 0.2 }
       ~profile:(p ())
       (Pool.Adaptive { min_s = 2.0; max_s = 30.0; percentile = 100.0 }),
     bursty, "b002d0bea9290a5e82fedea895ceefa8");
    ("fixed-ttl faults + retry + hedge + breaker + fallback",
     config ~fallback:(int_fallback ~rate:0.3 ~seed:4) ~faults:(int_faults 5)
       ~resilience:full_resilience ~profile:(p ())
       (Pool.Fixed_ttl { keep_alive_s = 5.0 }),
     dense, "02ce17a549fbc548b2158b41f39aca10");
    ("lru max_idle 1 faults + retries, capped",
     config ~max_instances:3 ~max_pending:6 ~pending_timeout_s:8.0
       ~faults:(int_faults 6)
       ~resilience:{ Resilience.none with
                     Resilience.retry = Some Resilience.default_retry }
       ~profile:(p ()) (Pool.Lru { keep_alive_s = 5.0; max_idle = 1 }),
     bursty, "0addbf25cfa851c4d2f6dbea370c7381");
    ("adaptive faults + full resilience, capped",
     config ~max_instances:4 ~max_pending:8 ~pending_timeout_s:6.0
       ~fallback:(int_fallback ~rate:0.2 ~seed:7) ~faults:(int_faults 8)
       ~resilience:full_resilience ~profile:(p ())
       (Pool.Adaptive { min_s = 1.0; max_s = 15.0; percentile = 75.0 }),
     dense, "00fd53e80344471b6a13998b81e74a38");
    ("fixed-ttl lazy preload + fallback",
     config ~fallback:(int_fallback ~rate:0.1 ~seed:10)
       ~lazy_load:{ Router.lz_deferred_s = 3.0; lz_first_touch_s = 1.0;
                    lz_preload = true }
       ~profile:(p ()) (Pool.Fixed_ttl { keep_alive_s = 6.0 }),
     sparse, "73c3919b2881477d5aa7d2bd945fa0c7") ]

let characterization =
  List.map
    (fun (name, cfg, trace, expected) ->
       Alcotest.test_case name `Quick (fun () ->
           Alcotest.(check string) "result digest" expected
             (result_digest (Router.run cfg trace))))
    characterized
  @ [ Alcotest.test_case "dense trace: one keep-alive timer per instance"
        `Quick (fun () ->
          (* pushing an expiry on every release costs one arrival, one
             completion and one expiry per request: 1200 events on the
             first config's 400 requests *)
          let _, cfg, trace, _ = List.hd characterized in
          let events = (Router.run cfg trace).Router.events_processed in
          Alcotest.(check bool)
            (Printf.sprintf "%d events < 1200" events)
            true (events < 1200)) ]

(* --- config validation ------------------------------------------------------ *)

let rejects cfg trace =
  match Router.run cfg trace with
  | _ -> false
  | exception Invalid_argument _ -> true

let validation =
  let trace = Platform.Trace.periodic ~period_s:10.0 ~count:20 ~name:"v" in
  let profile = no_init ~exec_s:1.0 () in
  let fallback fb_policy fb_profile =
    { Router.fb_rate = 0.5; fb_seed = 1; fb_profile; fb_policy;
      fb_setup_s = 0.0 }
  in
  let ttl = Pool.Fixed_ttl { keep_alive_s = 60.0 } in
  [ Alcotest.test_case "out-of-range pool policies are rejected" `Quick
      (fun () ->
        List.iter
          (fun pol ->
             Alcotest.(check bool) (Pool.policy_name pol) true
               (rejects (config ~profile pol) trace))
          [ Pool.Fixed_ttl { keep_alive_s = Float.nan };
            Pool.Fixed_ttl { keep_alive_s = -5.0 };
            Pool.Fixed_ttl { keep_alive_s = Float.neg_infinity };
            Pool.Lru { keep_alive_s = Float.nan; max_idle = 4 };
            Pool.Lru { keep_alive_s = 60.0; max_idle = -1 };
            Pool.Adaptive { min_s = Float.nan; max_s = 900.0; percentile = 99.0 };
            Pool.Adaptive { min_s = -1.0; max_s = 900.0; percentile = 99.0 };
            Pool.Adaptive { min_s = 60.0; max_s = Float.nan; percentile = 99.0 };
            Pool.Adaptive { min_s = 60.0; max_s = -1.0; percentile = 99.0 };
            Pool.Adaptive { min_s = 60.0; max_s = 900.0; percentile = 100.5 };
            Pool.Adaptive { min_s = 60.0; max_s = 900.0; percentile = -1.0 };
            Pool.Adaptive
              { min_s = 60.0; max_s = 900.0; percentile = Float.nan } ]);
    Alcotest.test_case "the fallback's policy and both profiles are checked"
      `Quick (fun () ->
        let bad_ttl = Pool.Fixed_ttl { keep_alive_s = -5.0 } in
        Alcotest.(check bool) "fb_policy" true
          (rejects
             (config ~profile ~fallback:(fallback bad_ttl profile) ttl)
             trace);
        List.iter
          (fun (name, p) ->
             Alcotest.(check bool) ("profile " ^ name) true
               (rejects (config ~profile:p ttl) trace);
             Alcotest.(check bool) ("fb_profile " ^ name) true
               (rejects (config ~profile ~fallback:(fallback ttl p) ttl) trace))
          [ ("exec_s nan", { profile with Router.exec_s = Float.nan });
            ("exec_s < 0", { profile with Router.exec_s = -1.0 });
            ("func_init_s < 0", { profile with Router.func_init_s = -0.1 });
            ("instance_init_s nan",
             { profile with Router.instance_init_s = Float.nan }) ]);
    Alcotest.test_case "infinite keep-alives and min_s > max_s stay legal"
      `Quick (fun () ->
        List.iter
          (fun pol ->
             let res = Router.run (config ~profile pol) trace in
             Alcotest.(check int) (Pool.policy_name pol) 20
               (List.length (Record_ref.records res)))
          [ Pool.Fixed_ttl { keep_alive_s = Float.infinity };
            Pool.Lru { keep_alive_s = Float.infinity; max_idle = 0 };
            Pool.Adaptive
              { min_s = 60.0; max_s = Float.infinity; percentile = 100.0 };
            (* what [ltrim fleet --policy adaptive --keep-alive 30] builds *)
            Pool.Adaptive { min_s = 60.0; max_s = 30.0; percentile = 99.0 } ]) ]

let suite =
  [ ("fleet.events", events); ("fleet.validation", validation);
    ("fleet.policies", policies);
    ("fleet.histogram", histogram); ("fleet.pool_ref", pool_ref);
    ("fleet.queueing", queueing);
    ("fleet.fallback", fallback); ("fleet.replay_parity", replay_parity);
    ("fleet.concurrent", concurrent); ("fleet.report", report);
    ("fleet.characterization", characterization) ]
