(* Profiler: per-module marginal time/memory via import hooks (§5.2). *)

open Trim

let find (r : Profiler.result) name =
  List.find_opt (fun mp -> mp.Profiler.mp_name = name) r.Profiler.modules

let tiny = Workloads.Suite.tiny_app ()

let cases =
  [ Alcotest.test_case "measures every imported module" `Quick (fun () ->
        let r = Profiler.profile tiny in
        let names = List.map (fun m -> m.Profiler.mp_name) r.Profiler.modules in
        List.iter
          (fun expected ->
             Alcotest.(check bool) (expected ^ " measured") true
               (List.mem expected names))
          [ "tinylib"; "tinylib._core"; "tinylib._heavy_0"; "tinylib._heavy_1";
            "tinylib._api" ]);
    Alcotest.test_case "no init error on healthy app" `Quick (fun () ->
        let r = Profiler.profile tiny in
        Alcotest.(check (option string)) "none" None r.Profiler.init_error);
    Alcotest.test_case "root inclusive covers submodules" `Quick (fun () ->
        let r = Profiler.profile tiny in
        let find n = Option.get (find r n) in
        let root = find "tinylib" in
        let core = find "tinylib._core" in
        Alcotest.(check bool) "root incl >= core incl" true
          (root.Profiler.mp_incl_ms >= core.Profiler.mp_incl_ms);
        Alcotest.(check bool) "root self < root incl" true
          (root.Profiler.mp_self_ms < root.Profiler.mp_incl_ms));
    Alcotest.test_case "totals cover the sum of root modules" `Quick (fun () ->
        let r = Profiler.profile tiny in
        let root = Option.get (find r "tinylib") in
        Alcotest.(check bool) "T >= root t" true
          (r.Profiler.total_ms >= root.Profiler.mp_incl_ms);
        Alcotest.(check bool) "M >= root m" true
          (r.Profiler.total_mb >= root.Profiler.mp_incl_mb));
    Alcotest.test_case "heavy submodules carry expected cost share" `Quick
      (fun () ->
        (* tiny app: 70% of 100ms in 2 heavies -> ~35ms each *)
        let r = Profiler.profile tiny in
        let h0 = Option.get (find r "tinylib._heavy_0") in
        Alcotest.(check bool)
          (Printf.sprintf "h0 %.1fms in [25, 45]" h0.Profiler.mp_incl_ms)
          true
          (h0.Profiler.mp_incl_ms >= 25.0 && h0.Profiler.mp_incl_ms <= 45.0));
    Alcotest.test_case "profiling is isolated (repeatable)" `Quick (fun () ->
        let r1 = Profiler.profile tiny in
        let r2 = Profiler.profile tiny in
        Alcotest.(check int) "same module count"
          (List.length r1.Profiler.modules)
          (List.length r2.Profiler.modules);
        Alcotest.(check bool) "same total (within epsilon)" true
          (Float.abs (r1.Profiler.total_ms -. r2.Profiler.total_ms) < 0.001));
    Alcotest.test_case "init crash reported" `Quick (fun () ->
        let broken = Platform.Deployment.copy tiny in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs
          "site-packages/tinylib/__init__.py" "raise ValueError(\"x\")\n";
        let r = Profiler.profile broken in
        Alcotest.(check (option string)) "err" (Some "ValueError")
          r.Profiler.init_error);
    Alcotest.test_case "simrt excluded from candidates" `Quick (fun () ->
        let r = Profiler.profile tiny in
        Alcotest.(check bool) "no simrt" true
          (List.for_all
             (fun m -> m.Profiler.mp_name <> "simrt")
             (Profiler.candidates r))) ]

let suite = [ ("profiler.measurement", cases) ]
