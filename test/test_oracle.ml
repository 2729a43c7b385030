(* Oracle: stdout+return equivalence across fresh-interpreter runs. *)

open Trim

let tiny = Workloads.Suite.tiny_app ()

let observations =
  [ Alcotest.test_case "observation is deterministic" `Quick (fun () ->
        let o1 = Oracle.observe tiny in
        let o2 = Oracle.observe tiny in
        Alcotest.(check bool) "equivalent" true (Oracle.equivalent o1 o2));
    Alcotest.test_case "one entry per test case" `Quick (fun () ->
        let o = Oracle.observe tiny in
        Alcotest.(check int) "entries" 2 (List.length o.Oracle.per_test));
    Alcotest.test_case "unmodified copy passes its own oracle" `Quick (fun () ->
        let oracle, _ = Oracle.for_reference tiny in
        Alcotest.(check bool) "passes" true
          (oracle (Platform.Deployment.copy tiny)));
    Alcotest.test_case "breaking a needed function fails the oracle" `Quick
      (fun () ->
        let oracle, _ = Oracle.for_reference tiny in
        let broken = Platform.Deployment.copy tiny in
        let path = "site-packages/tinylib/_core.py" in
        let src = Minipy.Vfs.read_exn broken.Platform.Deployment.vfs path in
        (* change f0's arithmetic: output changes, oracle must notice *)
        let src' =
          Str.global_replace (Str.regexp_string "def f0(x=0):\n  return x * 2 + 1")
            "def f0(x=0):\n  return x * 3 + 1" src
        in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs path src';
        Alcotest.(check bool) "fails" false (oracle broken));
    Alcotest.test_case "removing an unused heavy passes the oracle" `Quick
      (fun () ->
        let oracle, _ = Oracle.for_reference tiny in
        let trimmed = Platform.Deployment.copy tiny in
        let path = "site-packages/tinylib/__init__.py" in
        let src = Minipy.Vfs.read_exn trimmed.Platform.Deployment.vfs path in
        let lines = String.split_on_char '\n' src in
        let kept =
          List.filter
            (fun l ->
               not (String.length l >= 14
                    && String.sub l 0 14 = "from ._heavy_0"))
            lines
        in
        assert (List.length kept < List.length lines);
        Minipy.Vfs.add_file trimmed.Platform.Deployment.vfs path
          (String.concat "\n" kept);
        Alcotest.(check bool) "passes" true (oracle trimmed));
    Alcotest.test_case "init crash observed as an error" `Quick (fun () ->
        let broken = Platform.Deployment.copy tiny in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs
          "site-packages/tinylib/__init__.py" "raise ValueError(\"boom\")\n";
        let o = Oracle.observe broken in
        List.iter
          (fun (_, out) ->
             Alcotest.(check string) "marker" "ERR:ValueError:boom" out)
          o.Oracle.per_test);
    Alcotest.test_case "handler error observed distinctly" `Quick (fun () ->
        let broken = Platform.Deployment.copy tiny in
        let src = Platform.Deployment.handler_source broken in
        let src' =
          Str.global_replace (Str.regexp_string "acc = tinylib.f0(acc)")
            "acc = tinylib.missing_fn(acc)" src
        in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs "handler.py" src';
        let o = Oracle.observe broken in
        List.iter
          (fun (_, out) ->
             Alcotest.(check bool) "mentions AttributeError" true
               (let re = Str.regexp_string "ERR:AttributeError" in
                try ignore (Str.search_forward re out 0); true
                with Not_found -> false))
          o.Oracle.per_test) ]

(* --- determinism: the premise the plain oracle rests on ------------------ *)

(* minipy and the simulator read no clock and no RNG, and [max_steps] turns
   a hang into a deterministic CRASH:timeout — so an observation is a pure
   function of the deployment. Every suite app, observed with no memo to
   answer for it: twice in this domain, then once more in pool tasks on two
   domains (one task per app, so deployments are not shared across
   domains). *)
let determinism =
  [ Alcotest.test_case "every suite app: fresh runs and pool runs agree"
      `Quick (fun () ->
        let observe d =
          Oracle.observe ~cache:(Oracle.Cache.create ~enabled:false ()) d
        in
        let apps =
          List.map
            (fun name -> (name, Workloads.Suite.deployment_of name))
            Workloads.Suite.names
        in
        let twice =
          List.map (fun (name, d) -> (name, observe d, observe d)) apps
        in
        let pooled =
          Parallel.Pool.with_pool ~domains:2 (fun pool ->
              Parallel.Pool.map pool (fun (_, d) -> observe d) apps)
        in
        let per_test = Alcotest.(list (pair string string)) in
        List.iter2
          (fun (name, o1, o2) o3 ->
             Alcotest.(check bool) (name ^ ": has test cases") true
               (o1.Oracle.per_test <> []);
             Alcotest.(check bool) (name ^ ": rerun equivalent") true
               (Oracle.equivalent o1 o2);
             Alcotest.(check bool) (name ^ ": pool run equivalent") true
               (Oracle.equivalent o1 o3);
             Alcotest.check per_test (name ^ ": rerun per_test")
               o1.Oracle.per_test o2.Oracle.per_test;
             Alcotest.check per_test (name ^ ": pool per_test")
               o1.Oracle.per_test o3.Oracle.per_test)
          twice pooled);
    Alcotest.test_case "every suite app: a warm memo answers as a fresh run"
      `Quick (fun () ->
        List.iter
          (fun name ->
             let d = Workloads.Suite.deployment_of name in
             let fresh =
               Oracle.observe ~cache:(Oracle.Cache.create ~enabled:false ()) d
             in
             let cache = Oracle.Cache.create () in
             let cold = Oracle.observe ~cache d in
             let misses = Oracle.Cache.misses cache in
             let warm = Oracle.observe ~cache d in
             Alcotest.(check int) (name ^ ": warm run misses nothing") misses
               (Oracle.Cache.misses cache);
             Alcotest.(check bool) (name ^ ": warm run hits") true
               (Oracle.Cache.hits cache > 0);
             Alcotest.(check bool) (name ^ ": cold memo equivalent") true
               (Oracle.equivalent fresh cold);
             Alcotest.(check bool) (name ^ ": warm memo equivalent") true
               (Oracle.equivalent fresh warm);
             Alcotest.(check (list (pair string string)))
               (name ^ ": warm per_test") fresh.Oracle.per_test
               warm.Oracle.per_test)
          Workloads.Suite.names) ]

let suite =
  [ ("oracle.observations", observations);
    ("oracle.determinism", determinism) ]
