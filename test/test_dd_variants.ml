(* §9 extension: seeded DD, plus the statement-granularity ablation. The
   continuous pipeline's warm start is tested in test_incremental.ml. *)

open Trim
module SS = Callgraph.Pycg.String_set

let needs needed subset = List.for_all (fun x -> List.mem x subset) needed

let seeded =
  [ Alcotest.test_case "good seed cuts queries" `Quick (fun () ->
        let items = List.init 60 Fun.id in
        let oracle = needs [ 10; 20 ] in
        let _, fresh = Dd.minimize ~oracle items in
        let kept, with_seed =
          Dd.minimize ~seed:[ 10; 20; 30 ] ~oracle items
        in
        Alcotest.(check int) "seed hit" 1 with_seed.Dd.ws_hits;
        Alcotest.(check (list int)) "same minimal set" [ 10; 20 ]
          (List.sort compare kept);
        Alcotest.(check bool)
          (Printf.sprintf "seeded %d < fresh %d" with_seed.Dd.oracle_queries
             fresh.Dd.oracle_queries)
          true
          (with_seed.Dd.oracle_queries < fresh.Dd.oracle_queries));
    Alcotest.test_case "stale seed falls back to full DD" `Quick (fun () ->
        let items = List.init 20 Fun.id in
        let oracle = needs [ 5 ] in
        let kept, st = Dd.minimize ~seed:[ 1; 2 ] ~oracle items in
        Alcotest.(check int) "no hit" 0 st.Dd.ws_hits;
        Alcotest.(check (list int)) "still correct" [ 5 ] (List.sort compare kept));
    Alcotest.test_case "empty seed behaves like plain DD" `Quick (fun () ->
        let items = List.init 12 Fun.id in
        let oracle = needs [ 2 ] in
        let plain_kept, plain = Dd.minimize ~oracle items in
        let kept, st = Dd.minimize ~seed:[] ~oracle items in
        Alcotest.(check bool) "no hit" false (st.Dd.ws_hits > 0);
        Alcotest.(check (list int)) "keep-set of the unseeded run" plain_kept
          kept;
        Alcotest.(check int) "unseeded queries + the seed's"
          (plain.Dd.oracle_queries + 1) st.Dd.oracle_queries;
        Alcotest.(check int) "one confirming query" 1 st.Dd.ws_queries);
    Alcotest.test_case "passing empty seed is the whole answer" `Quick
      (fun () ->
        let kept, st =
          Dd.minimize ~seed:[] ~oracle:(needs []) (List.init 12 Fun.id)
        in
        Alcotest.(check bool) "hit" true (st.Dd.ws_hits > 0);
        Alcotest.(check (list int)) "empty keep-set" [] kept;
        Alcotest.(check int) "no search" 0 st.Dd.iterations);
    Alcotest.test_case "fallback re-tests the failed seed as a fresh query"
      `Quick (fun () ->
        (* the seed [0; 1] is the first partition of the fallback search:
           its confirming verdict must not have entered the subset cache *)
        let items = [ 0; 1; 2; 3 ] in
        let calls = ref [] in
        let oracle subset = calls := subset :: !calls; needs [ 2 ] subset in
        let _, plain = Dd.minimize ~oracle items in
        calls := [];
        let kept, st = Dd.minimize ~seed:[ 0; 1 ] ~oracle items in
        Alcotest.(check int) "seed queried twice" 2
          (List.length (List.filter (( = ) [ 0; 1 ]) !calls));
        let ref_kept, ref_st = Dd_ref.minimize ~seed:[ 0; 1 ] ~oracle items in
        Alcotest.(check (list int)) "keep-set" ref_kept kept;
        Alcotest.(check int) "oracle_queries" ref_st.Dd.oracle_queries
          st.Dd.oracle_queries;
        Alcotest.(check int) "unseeded queries + the seed's"
          (plain.Dd.oracle_queries + 1) st.Dd.oracle_queries;
        Alcotest.(check int) "re-test is no cache hit" plain.Dd.cache_hits
          st.Dd.cache_hits) ]

let granularity =
  [ Alcotest.test_case "statement DD passes the oracle" `Quick (fun () ->
        let app = Workloads.Suite.tiny_app () in
        let oracle, _ = Oracle.for_reference app in
        let analysis = Static_analyzer.analyze app in
        let protected = Static_analyzer.protected_attrs analysis
            ~module_name:"tinylib"
        in
        let d', _ =
          Debloater.debloat_module_statements ~oracle ~protected app
            ~module_name:"tinylib"
        in
        Alcotest.(check bool) "passes" true (oracle d'));
    Alcotest.test_case "attribute granularity removes at least as much" `Quick
      (fun () ->
        (* §6.1: finer from-import handling means attribute-level DD can
           never keep more than statement-level DD on the same module *)
        let app = Workloads.Suite.tiny_app () in
        let oracle, _ = Oracle.for_reference app in
        let analysis = Static_analyzer.analyze app in
        let protected = Static_analyzer.protected_attrs analysis
            ~module_name:"tinylib"
        in
        let _, attr_r =
          Debloater.debloat_module ~oracle ~protected app ~module_name:"tinylib"
        in
        let _, stmt_r =
          Debloater.debloat_module_statements ~oracle ~protected app
            ~module_name:"tinylib"
        in
        Alcotest.(check bool)
          (Printf.sprintf "attr kept %d <= stmt kept %d" attr_r.Debloater.attrs_after
             stmt_r.Debloater.attrs_after)
          true
          (attr_r.Debloater.attrs_after <= stmt_r.Debloater.attrs_after));
    Alcotest.test_case "mixed from-import shows the difference" `Quick (fun () ->
        (* a module whose single from-import mixes one needed and several
           unneeded names: statement granularity must keep all of them *)
        let vfs = Minipy.Vfs.create () in
        Minipy.Vfs.add_file vfs "site-packages/m/_impl.py"
          "def used(x=0):\n  return x + 1\n\
           def unused_a():\n  return 0\n\
           def unused_b():\n  return 0\n";
        Minipy.Vfs.add_file vfs "site-packages/m/__init__.py"
          "from m._impl import used, unused_a, unused_b\n";
        Minipy.Vfs.add_file vfs "handler.py"
          "import m\ndef handler(event, context):\n  return m.used(1)\n";
        let app =
          Platform.Deployment.make ~name:"mixed" ~vfs ~handler_file:"handler.py"
            ~handler_name:"handler"
            ~test_cases:[ Platform.Deployment.test_case ~name:"t" "{}" ]
        in
        let oracle, _ = Oracle.for_reference app in
        let _, attr_r =
          Debloater.debloat_module ~oracle ~protected:SS.empty app
            ~module_name:"m"
        in
        let _, stmt_r =
          Debloater.debloat_module_statements ~oracle ~protected:SS.empty app
            ~module_name:"m"
        in
        Alcotest.(check int) "attribute level keeps only `used`" 1
          attr_r.Debloater.attrs_after;
        Alcotest.(check int) "statement level keeps all three" 3
          stmt_r.Debloater.attrs_after) ]

let suite =
  [ ("dd_variants.seeded", seeded);
    ("dd_variants.granularity", granularity) ]
