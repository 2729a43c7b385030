(* The domain work pool and the determinism contracts built on top of it:
   pooled DD ≡ the reference ddmin (keep-sets AND counters), the parallel
   pipeline ≡ the sequential pipeline, and the shared caches under
   multi-domain hammering. *)

open Trim
module Pool = Parallel.Pool

(* --- pool mechanics -------------------------------------------------------- *)

let pool_cases =
  [ Alcotest.test_case "map preserves submission order" `Quick (fun () ->
        Pool.with_pool ~domains:4 (fun p ->
            let xs = List.init 100 Fun.id in
            Alcotest.(check (list int)) "squares in order"
              (List.map (fun x -> x * x) xs)
              (Pool.map p (fun x -> x * x) xs)));
    Alcotest.test_case "size-1 pool runs inline on the caller" `Quick
      (fun () ->
        Pool.with_pool ~domains:1 (fun p ->
            Alcotest.(check int) "size" 1 (Pool.size p);
            let saw_worker = ref false in
            let r =
              Pool.map p
                (fun x ->
                  if Pool.current_worker () <> None then saw_worker := true;
                  x + 1)
                [ 1; 2; 3 ]
            in
            Alcotest.(check (list int)) "results" [ 2; 3; 4 ] r;
            Alcotest.(check bool) "caller is not a pool worker" false
              !saw_worker));
    Alcotest.test_case "tasks run on at least two domains" `Quick (fun () ->
        (* Each task records its domain and then spins until a second domain
           has shown up (bounded, so a pathological scheduler cannot hang the
           suite). With 3 spawned workers plus the participating caller, a
           second domain must pick up one of the remaining tasks. *)
        Pool.with_pool ~domains:4 (fun p ->
            let lock = Mutex.create () in
            let seen = ref [] in
            let distinct () =
              Mutex.lock lock;
              let n = List.length (List.sort_uniq compare !seen) in
              Mutex.unlock lock;
              n
            in
            let deadline = Unix.gettimeofday () +. 5.0 in
            ignore
              (Pool.map p
                 (fun _ ->
                   let id = (Domain.self () :> int) in
                   Mutex.lock lock;
                   seen := id :: !seen;
                   Mutex.unlock lock;
                   while distinct () < 2 && Unix.gettimeofday () < deadline do
                     Domain.cpu_relax ()
                   done)
                 (List.init 8 Fun.id));
            Alcotest.(check bool)
              (Printf.sprintf "%d distinct domains >= 2" (distinct ()))
              true
              (distinct () >= 2)));
    Alcotest.test_case "pool task metrics count every task" `Quick (fun () ->
        let tasks =
          Obs.Metrics.counter Obs.Metrics.global "parallel.pool.tasks"
        in
        let before = Obs.Metrics.value tasks in
        Pool.with_pool ~domains:2 (fun p ->
            ignore (Pool.map p (fun x -> x) (List.init 17 Fun.id)));
        Alcotest.(check int) "17 tasks recorded" 17
          (Obs.Metrics.value tasks - before));
    Alcotest.test_case "lowest-index exception wins; every task settles"
      `Quick (fun () ->
        Pool.with_pool ~domains:4 (fun p ->
            let ran = Atomic.make 0 in
            let raised =
              try
                ignore
                  (Pool.map p
                     (fun i ->
                       Atomic.incr ran;
                       if i = 3 || i = 11 then
                         failwith (Printf.sprintf "task %d" i);
                       i)
                     (List.init 16 Fun.id));
                None
              with Failure msg -> Some msg
            in
            Alcotest.(check (option string)) "lowest-index failure"
              (Some "task 3") raised;
            Alcotest.(check int) "all tasks settled" 16 (Atomic.get ran);
            (* the pool survives a failed map *)
            Alcotest.(check (list int)) "pool still usable" [ 0; 2; 4 ]
              (Pool.map p (fun x -> 2 * x) [ 0; 1; 2 ])));
    Alcotest.test_case "nested submission does not deadlock" `Quick (fun () ->
        Pool.with_pool ~domains:2 (fun p ->
            let r =
              Pool.map p
                (fun i ->
                  List.fold_left ( + ) 0
                    (Pool.map p (fun j -> (10 * i) + j) [ 0; 1; 2; 3; 4 ]))
                [ 0; 1; 2 ]
            in
            Alcotest.(check (list int)) "nested sums" [ 10; 60; 110 ] r));
    Alcotest.test_case "map_batches flattens in order" `Quick (fun () ->
        Pool.with_pool ~domains:3 (fun p ->
            let xs = List.init 11 Fun.id in
            Alcotest.(check (list int)) "batch of 4"
              (List.map (fun x -> x + 1) xs)
              (Pool.map_batches p ~batch:4 (fun x -> x + 1) xs);
            Alcotest.(check (list int)) "batch wider than the list"
              (List.map (fun x -> x + 1) xs)
              (Pool.map_batches p ~batch:100 (fun x -> x + 1) xs)));
    Alcotest.test_case "shutdown is idempotent; with_pool returns the value"
      `Quick (fun () ->
        let p = Pool.create ~domains:3 in
        Alcotest.(check (list int)) "first map" [ 1; 2 ]
          (Pool.map p (fun x -> x + 1) [ 0; 1 ]);
        Pool.shutdown p;
        Pool.shutdown p;
        Alcotest.(check int) "with_pool result" 42
          (Pool.with_pool ~domains:2 (fun _ -> 42))) ]

(* --- the one DD engine ≡ reference ddmin -------------------------------- *)

let needs needed subset = List.for_all (fun x -> List.mem x subset) needed

(* A non-monotone oracle: the required subset always passes (so the full
   input passes), but hash noise makes scattered other subsets pass too —
   exactly the regime where a speculative evaluation that leaked into the
   committed state would change the search. *)
let noisy_oracle ~required ~salt subset =
  needs required subset || Hashtbl.hash (salt, subset) land 7 = 0

let pp_stats ppf (s : Dd.stats) =
  Fmt.pf ppf
    "queries=%d hits=%d iterations=%d memo=%d/%d ws=%d/%d spec=%d rounds=%d \
     max_batch=%d"
    s.Dd.oracle_queries s.Dd.cache_hits s.Dd.iterations s.Dd.oracle_cache_hits
    s.Dd.oracle_cache_misses s.Dd.ws_hits s.Dd.ws_queries s.Dd.speculative
    s.Dd.rounds s.Dd.max_batch

let stats_t = Alcotest.testable pp_stats ( = )

(* Run the engine (on [pool] when given) and the reference ddmin on the
   same input: keep-set, every counter and the [on_step] sequence must
   agree. [speculative] has no reference figure; instead the engine's
   oracle executions must equal issued + speculative, and without a pool
   it must not speculate at all. *)
let check_equiv ?pool ?seed ~oracle items =
  let workers = match pool with Some p -> Pool.size p | None -> 1 in
  let label =
    Printf.sprintf "workers=%d%s" workers
      (if seed = None then "" else " seeded")
  in
  let ref_steps = ref [] in
  let ref_keep, ref_stats =
    Dd_ref.minimize ~workers ?seed
      ~on_step:(fun c v -> ref_steps := (c, v) :: !ref_steps)
      ~oracle items
  in
  let execs = Atomic.make 0 in
  let steps = ref [] in
  let keep, stats =
    Dd.minimize ?pool ?seed
      ~on_step:(fun st ->
          steps := (st.Dd.step_candidate, st.Dd.step_passed) :: !steps)
      ~oracle:(fun subset -> Atomic.incr execs; oracle subset)
      items
  in
  Alcotest.(check (list int)) (label ^ ": keep-set") ref_keep keep;
  Alcotest.check stats_t (label ^ ": counters") ref_stats
    { stats with Dd.speculative = 0 };
  Alcotest.(check int) (label ^ ": executions = issued + speculative")
    (Atomic.get execs)
    (stats.Dd.oracle_queries + stats.Dd.speculative);
  if pool = None then
    Alcotest.(check int) (label ^ ": no speculation") 0 stats.Dd.speculative;
  Alcotest.(check (list (pair (list int) bool)))
    (label ^ ": on_step in commit order")
    (List.rev !ref_steps) (List.rev !steps)

let dd_equiv_prop =
  QCheck.Test.make ~count:60
    ~name:"one DD engine ≡ reference ddmin (no pool, pools of 2 and 4, seeded)"
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 25) (int_bound 12))
        (list_of_size Gen.(0 -- 6) (int_bound 30))
        (list_of_size Gen.(0 -- 10) (int_bound 14))
        int)
    (fun (items, req_idx, seed, salt) ->
      let required =
        match items with
        | [] -> []
        | _ ->
          let n = List.length items in
          List.sort_uniq compare
            (List.map (fun i -> List.nth items (i mod n)) req_idx)
      in
      let oracle = noisy_oracle ~required ~salt in
      List.iter
        (fun pool ->
          check_equiv ?pool ~oracle items;
          check_equiv ?pool ~seed ~oracle items)
        [ None; Some (Dd_ref.pool 2); Some (Dd_ref.pool 4) ];
      true)

let dd_pool_cases =
  [ Alcotest.test_case "pooled DD matches the reference at 1/2/4/8 domains"
      `Quick (fun () ->
        (* Real concurrent oracle evaluation, including duplicate elements,
           at every domain count the ablation reports. *)
        let scenarios =
          [ (List.init 40 Fun.id, [ 7; 23 ], 1);
            (List.init 30 (fun i -> i mod 5), [ 2; 4 ], 2);
            ([ 1; 1; 1; 1 ], [ 1 ], 3);
            (List.init 24 Fun.id, [], 4);
            (List.init 16 Fun.id, List.init 16 Fun.id, 5) ]
        in
        List.iter
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                List.iter
                  (fun (items, required, salt) ->
                    let oracle = noisy_oracle ~required ~salt in
                    check_equiv ~pool ~oracle items;
                    check_equiv ~pool ~seed:(required @ [ 3; 3 ]) ~oracle
                      items)
                  scenarios))
          [ 1; 2; 4; 8 ]) ]

(* --- shared caches under 8 domains ----------------------------------------- *)

let stress_cases =
  [ Alcotest.test_case "parse cache: 8 domains, no lost updates" `Quick
      (fun () ->
        let cache = Minipy.Parse_cache.create () in
        let sources =
          List.init 6 (fun i ->
              ( Printf.sprintf "m%d.py" i,
                Printf.sprintf "def f%d(x):\n    return x + %d\n" i i ))
        in
        let reps = 25 in
        Pool.with_pool ~domains:8 (fun p ->
            ignore
              (Pool.map p
                 (fun _slot ->
                   for _ = 1 to reps do
                     List.iter
                       (fun (file, src) ->
                         ignore
                           (Minipy.Parse_cache.parse ~cache ~file src
                             : Minipy.Ast.program))
                       sources
                   done)
                 (List.init 8 Fun.id)));
        let attempts = 8 * reps * List.length sources in
        Alcotest.(check int) "every probe is a hit or a miss" attempts
          (Minipy.Parse_cache.hits cache + Minipy.Parse_cache.misses cache);
        Alcotest.(check bool) "at least one miss per distinct source" true
          (Minipy.Parse_cache.misses cache >= List.length sources);
        Alcotest.(check int) "one entry per distinct source"
          (List.length sources)
          (Minipy.Parse_cache.size cache));
    Alcotest.test_case "oracle memo + image digest: 8 domains agree" `Quick
      (fun () ->
        let d = Workloads.Suite.tiny_app () in
        let cache = Oracle.Cache.create () in
        let tests = List.length d.Platform.Deployment.test_cases in
        let reps = 10 in
        let per_domain =
          Pool.with_pool ~domains:8 (fun p ->
              Pool.map p
                (fun _slot ->
                  let digests = ref [] in
                  let obs = ref [] in
                  for _ = 1 to reps do
                    digests := Platform.Deployment.image_digest d :: !digests;
                    obs := Oracle.observe ~cache d :: !obs
                  done;
                  (!digests, !obs))
                (List.init 8 Fun.id))
        in
        let all_digests = List.concat_map fst per_domain in
        let all_obs = List.concat_map snd per_domain in
        Alcotest.(check int) "one distinct digest" 1
          (List.length (List.sort_uniq compare all_digests));
        (match all_obs with
        | [] -> Alcotest.fail "no observations"
        | first :: rest ->
          Alcotest.(check bool) "all observations equivalent" true
            (List.for_all (Oracle.equivalent first) rest));
        Alcotest.(check int) "every memo probe is a hit or a miss"
          (8 * reps * tests)
          (Oracle.Cache.hits cache + Oracle.Cache.misses cache);
        Alcotest.(check bool) "at least one miss per test case" true
          (Oracle.Cache.misses cache >= tests);
        Alcotest.(check int) "one memo entry per test case" tests
          (Oracle.Cache.size cache)) ]

(* --- parallel pipeline ≡ sequential pipeline -------------------------------- *)

let view (r : Pipeline.report) =
  ( List.map
      (fun m ->
        ( m.Debloater.dm_module,
          (m.Debloater.removed_attrs, m.Debloater.oracle_queries) ))
      r.Pipeline.module_results,
    r.Pipeline.total_oracle_queries,
    Platform.Deployment.image_digest r.Pipeline.optimized )

let pipeline_cases =
  [ Alcotest.test_case "jobs=4 report matches jobs=1" `Slow (fun () ->
        (* Multi-library app with parent and child modules in the top-K, so
           the library-grouped fan-out (and its merge order) is exercised. *)
        let run jobs =
          Pipeline.run
            ~options:{ Pipeline.default_options with k = 20 }
            ~jobs
            (Workloads.Suite.deployment_of "image-resize")
        in
        let seq, _, dseq = view (run 1) in
        let par, total_par, dpar = view (run 4) in
        let _, total_seq, _ = view (run 1) in
        Alcotest.(check (list (pair string (pair (list string) int))))
          "per-module removals and query counts" seq par;
        Alcotest.(check int) "total oracle queries" total_seq total_par;
        Alcotest.(check string) "optimized image digest" dseq dpar);
    Alcotest.test_case "jobs below 1 is rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Pipeline.run: jobs < 1") (fun () ->
            ignore
              (Pipeline.run ~jobs:0 (Workloads.Suite.tiny_app ())
                : Pipeline.report))) ]

let suite =
  [ ("parallel.pool", pool_cases);
    ( "parallel.dd_equiv",
      QCheck_alcotest.to_alcotest ~long:false dd_equiv_prop :: dd_pool_cases
    );
    ("parallel.cache_stress", stress_cases);
    ("parallel.pipeline", pipeline_cases) ]
