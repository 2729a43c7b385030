(* The domain work pool the app-level fan-out runs on, the one DD engine ≡
   the reference ddmin (keep-sets AND counters), and the shared caches
   under multi-domain hammering. *)

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
   exactly the regime where a search that tested its candidates in another
   order would arrive at another keep-set. *)
let noisy_oracle ~required ~salt subset =
  needs required subset || Hashtbl.hash (salt, subset) land 7 = 0

let pp_stats ppf (s : Dd.stats) =
  Fmt.pf ppf
    "queries=%d hits=%d iterations=%d ws=%d/%d"
    s.Dd.oracle_queries s.Dd.cache_hits s.Dd.iterations s.Dd.ws_hits
    s.Dd.ws_queries

let stats_t = Alcotest.testable pp_stats ( = )

(* One engine search: keep-set, counters, oracle executions and the
   [on_step] sequence. Pure, so it may run in any domain. *)
let run_engine ?seed ~oracle items =
  let execs = ref 0 in
  let steps = ref [] in
  let keep, stats =
    Dd.minimize ?seed
      ~on_step:(fun st ->
          steps := (st.Dd.step_candidate, st.Dd.step_passed) :: !steps)
      ~oracle:(fun subset -> incr execs; oracle subset)
      items
  in
  (keep, stats, !execs, List.rev !steps)

(* Check an engine search against the reference ddmin on the same input:
   keep-set, every counter and the [on_step] sequence must agree, and the
   engine executes the oracle exactly once per issued query. Checks run
   in the calling domain (Alcotest's output is not domain-safe). *)
let check_against_ref ?seed ~oracle items (keep, stats, execs, steps) =
  let label = if seed = None then "plain" else "seeded" in
  let ref_steps = ref [] in
  let ref_keep, ref_stats =
    Dd_ref.minimize ?seed
      ~on_step:(fun c v -> ref_steps := (c, v) :: !ref_steps)
      ~oracle items
  in
  Alcotest.(check (list int)) (label ^ ": keep-set") ref_keep keep;
  Alcotest.check stats_t (label ^ ": counters") ref_stats stats;
  Alcotest.(check int) (label ^ ": executions = issued") execs
    stats.Dd.oracle_queries;
  Alcotest.(check (list (pair (list int) bool)))
    (label ^ ": on_step in order")
    (List.rev !ref_steps) steps

let check_equiv ?seed ~oracle items =
  check_against_ref ?seed ~oracle items (run_engine ?seed ~oracle items)

let dd_equiv_prop =
  QCheck.Test.make ~count:60
    ~name:"one DD engine ≡ reference ddmin (plain and seeded)"
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
      check_equiv ~oracle items;
      check_equiv ~seed ~oracle items;
      true)

(* The app-level fan-out runs whole DD searches in several domains at once:
   each search, run as a pool task beside the others (duplicate elements
   and seeds included), must still match the reference at every domain
   count. *)
let dd_concurrent_cases =
  [ Alcotest.test_case "concurrent DD searches match the reference at \
                        1/2/4/8 domains" `Quick (fun () ->
        let scenarios =
          [ (List.init 40 Fun.id, [ 7; 23 ], 1);
            (List.init 30 (fun i -> i mod 5), [ 2; 4 ], 2);
            ([ 1; 1; 1; 1 ], [ 1 ], 3);
            (List.init 24 Fun.id, [], 4);
            (List.init 16 Fun.id, List.init 16 Fun.id, 5) ]
        in
        let searches =
          List.concat_map
            (fun (items, required, salt) ->
              let oracle = noisy_oracle ~required ~salt in
              [ (None, oracle, items);
                (Some (required @ [ 3; 3 ]), oracle, items) ])
            scenarios
        in
        List.iter
          (fun domains ->
            let results =
              Pool.with_pool ~domains (fun pool ->
                  Pool.map pool
                    (fun (seed, oracle, items) ->
                      run_engine ?seed ~oracle items)
                    searches)
            in
            List.iter2
              (fun (seed, oracle, items) r ->
                check_against_ref ?seed ~oracle items r)
              searches results)
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

(* --- pipelines under the app-level fan-out ---------------------------------- *)

let view (r : Pipeline.report) =
  ( List.map
      (fun m ->
        ( m.Debloater.dm_module,
          (m.Debloater.removed_attrs, m.Debloater.oracle_queries) ))
      r.Pipeline.module_results,
    r.Pipeline.total_oracle_queries,
    Platform.Deployment.image_digest r.Pipeline.optimized )

let view_t =
  Alcotest.(
    triple (list (pair string (pair (list string) int))) int string)

let pipeline_cases =
  [ Alcotest.test_case "apps fanned out on 4 domains match sequential runs"
      `Slow (fun () ->
        (* One multi-library app with parent and child modules in its
           top-K, and two more apps running beside it. *)
        let apps = [ ("image-resize", 20); ("markdown", 3); ("resnet", 5) ] in
        let run (name, k) =
          view
            (Pipeline.run
               ~options:{ Pipeline.default_options with k }
               (Workloads.Suite.deployment_of name))
        in
        let seq = List.map run apps in
        let par = Pool.with_pool ~domains:4 (fun p -> Pool.map p run apps) in
        List.iter2
          (fun (name, _) (s, p) -> Alcotest.check view_t name s p)
          apps (List.combine seq par));
    Alcotest.test_case "configured pool: jobs reads back, map_default keeps \
                        order" `Quick (fun () ->
        let xs = List.init 23 Fun.id in
        Fun.protect ~finally:(fun () -> Pool.configure ~jobs:1) (fun () ->
            Pool.configure ~jobs:3;
            Alcotest.(check int) "jobs 3" 3 (Pool.jobs ());
            Alcotest.(check (list int)) "order at jobs 3"
              (List.map (fun x -> x * 7) xs)
              (Pool.map_default (fun x -> x * 7) xs);
            Pool.configure ~jobs:1;
            Alcotest.(check int) "jobs 1" 1 (Pool.jobs ());
            Alcotest.(check (list bool)) "inline on the caller at jobs 1"
              (List.map (fun _ -> true) xs)
              (Pool.map_default (fun _ -> Pool.current_worker () = None) xs);
            Alcotest.check_raises "jobs 0"
              (Invalid_argument "Parallel.Pool.configure: jobs < 1") (fun () ->
                Pool.configure ~jobs:0)));
    Alcotest.test_case "jobs below 1 is rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Pipeline.run: jobs < 1") (fun () ->
            ignore
              (Pipeline.run ~jobs:0 (Workloads.Suite.tiny_app ())
                : Pipeline.report))) ]

let suite =
  [ ("parallel.pool", pool_cases);
    ( "parallel.dd_equiv",
      QCheck_alcotest.to_alcotest ~long:false dd_equiv_prop
      :: dd_concurrent_cases );
    ("parallel.cache_stress", stress_cases);
    ("parallel.pipeline", pipeline_cases) ]
