(* Workload generation: the 21 Table-1 apps parse, run, and match their specs. *)

(* A generated package's root [__init__] source, as installed. *)
let init_source (spec : Workloads.Libspec.t) =
  let vfs = Minipy.Vfs.create () in
  Workloads.Libspec.install spec vfs;
  Minipy.Vfs.read_exn vfs
    ("site-packages/" ^ spec.Workloads.Libspec.l_name ^ "/__init__.py")

let run_cold name =
  let d = Workloads.Suite.deployment_of name in
  let sim = Platform.Lambda_sim.create d in
  Platform.Lambda_sim.invoke sim ~now_s:0.0
    ~event:(match (Workloads.Suite.spec_of name).Workloads.Apps.tests with
            | (_, e) :: _ -> e
            | [] -> "{}")
    ()

let suite_shape =
  [ Alcotest.test_case "21 applications" `Quick (fun () ->
        Alcotest.(check int) "count" 21 (List.length Workloads.Apps.all));
    Alcotest.test_case "sources partition as in the paper" `Quick (fun () ->
        let count origin =
          List.length
            (List.filter
               (fun (s : Workloads.Apps.spec) -> String.equal s.origin origin)
               Workloads.Apps.all)
        in
        Alcotest.(check int) "FaaSLight" 8 (count "FaaSLight");
        Alcotest.(check int) "RainbowCake" 6 (count "RainbowCake");
        Alcotest.(check int) "New" 7 (count "New"));
    Alcotest.test_case "faaslight comparison subset exists" `Quick (fun () ->
        List.iter
          (fun n -> ignore (Workloads.Apps.find n))
          Workloads.Apps.faaslight_apps);
    Alcotest.test_case "names unique" `Quick (fun () ->
        let names = Workloads.Suite.names in
        Alcotest.(check int) "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq compare names))) ]

let generation =
  [ Alcotest.test_case "tiny app runs and answers" `Quick (fun () ->
        let d = Workloads.Suite.tiny_app () in
        let sim = Platform.Lambda_sim.create d in
        let r = Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" () in
        (match r.Platform.Lambda_sim.outcome with
         | Platform.Lambda_sim.Ok _ -> ()
         | Platform.Lambda_sim.Error e ->
           Alcotest.failf "handler failed: %s: %s" e.Minipy.Value.exc_class
             e.Minipy.Value.exc_msg);
        Alcotest.(check bool) "printed a result" true
          (String.length r.Platform.Lambda_sim.stdout > 0));
    Alcotest.test_case "tiny app init cost near spec" `Quick (fun () ->
        let d = Workloads.Suite.tiny_app () in
        let sim = Platform.Lambda_sim.create d in
        let r = Platform.Lambda_sim.invoke sim ~now_s:0.0 () in
        (* spec: 100 ms import budget; generator spends ~97% of it *)
        Alcotest.(check bool)
          (Printf.sprintf "init %.1f in [80, 130]" r.Platform.Lambda_sim.init_ms)
          true
          (r.Platform.Lambda_sim.init_ms >= 80.0
           && r.Platform.Lambda_sim.init_ms <= 130.0));
    Alcotest.test_case "attr budget respected" `Quick (fun () ->
        let spec =
          Workloads.Libspec.spec ~name:"x" ~import_ms:10.0 ~alloc_mb:1.0
            ~image_mb:0.0 ~attrs:40 ()
        in
        let src = init_source spec in
        let prog = Minipy.Parser.parse ~file:"<x>" src in
        let attrs = Trim.Attrs.attrs_of_program prog in
        Alcotest.(check bool)
          (Printf.sprintf "%d attrs ~ 40" (List.length attrs))
          true
          (abs (List.length attrs - 40) <= 4)) ]

let all_apps_run =
  List.map
    (fun (s : Workloads.Apps.spec) ->
       Alcotest.test_case s.Workloads.Apps.name `Slow (fun () ->
           let r = run_cold s.Workloads.Apps.name in
           (match r.Platform.Lambda_sim.outcome with
            | Platform.Lambda_sim.Ok _ -> ()
            | Platform.Lambda_sim.Error e ->
              Alcotest.failf "handler failed: %s: %s" e.Minipy.Value.exc_class
                e.Minipy.Value.exc_msg);
           (* init time within 25% of the paper's import column *)
           let expected_ms =
             (s.Workloads.Apps.paper.Workloads.Apps.p_import_s *. 1000.0)
             +. s.Workloads.Apps.extra_init_ms
           in
           let actual = r.Platform.Lambda_sim.init_ms in
           Alcotest.(check bool)
             (Printf.sprintf "init %.0fms ~ %.0fms" actual expected_ms)
             true
             (actual >= 0.7 *. expected_ms && actual <= 1.3 *. expected_ms);
           (* memory footprint within 20% of the calibrated value *)
           let mem = r.Platform.Lambda_sim.peak_memory_mb in
           let expected_mb = s.Workloads.Apps.post_init_mb in
           Alcotest.(check bool)
             (Printf.sprintf "mem %.0fMB ~ %.0fMB" mem expected_mb)
             true
             (mem >= 0.8 *. expected_mb && mem <= 1.25 *. expected_mb)))
    Workloads.Apps.all



let paper_fidelity =
  [ Alcotest.test_case "oracle sets have 1-3 test cases" `Quick (fun () ->
        List.iter
          (fun (s : Workloads.Apps.spec) ->
             let n = List.length s.Workloads.Apps.tests in
             Alcotest.(check bool)
               (Printf.sprintf "%s has %d" s.Workloads.Apps.name n)
               true (n >= 1 && n <= 3))
          Workloads.Apps.all);
    Alcotest.test_case "table-1 library names present" `Quick (fun () ->
        let libs_of name =
          List.map
            (fun l -> l.Workloads.Libspec.l_name)
            (Workloads.Apps.find name).Workloads.Apps.libs
        in
        List.iter
          (fun (app, lib) ->
             Alcotest.(check bool)
               (Printf.sprintf "%s uses %s" app lib)
               true
               (List.mem lib (libs_of app)))
          [ ("huggingface", "torch"); ("huggingface", "transformers");
            ("resnet", "torch"); ("resnet", "numpy"); ("resnet", "PIL");
            ("wine", "pandas"); ("wine", "sklearn"); ("wine", "boto3");
            ("lxml", "requests"); ("spacy", "boto3");
            ("qiskit-nature", "qiskit_nature"); ("textblob", "nltk") ]);
    Alcotest.test_case "generated handlers follow the fig-4 shape" `Quick
      (fun () ->
        List.iter
          (fun (s : Workloads.Apps.spec) ->
             let src =
               Platform.Deployment.handler_source
                 (Workloads.Codegen.deployment s)
             in
             let prog = Minipy.Parser.parse ~file:"<h>" src in
             (* imports + setup above; exactly one handler def *)
             let handlers =
               List.filter
                 (fun (st : Minipy.Ast.stmt) ->
                    match st.Minipy.Ast.sdesc with
                    | Minipy.Ast.Def { dname = "handler"; dparams; _ } ->
                      List.length dparams = 2
                    | _ -> false)
                 prog
             in
             Alcotest.(check int)
               (s.Workloads.Apps.name ^ " one handler(event, context)")
               1 (List.length handlers))
          Workloads.Apps.all);
    Alcotest.test_case "every app's event parses as an expression" `Quick
      (fun () ->
        List.iter
          (fun (s : Workloads.Apps.spec) ->
             List.iter
               (fun (_, ev) ->
                  (* as the simulator reads it: one expression statement *)
                  match Minipy.Parser.parse ~file:"<e>" (ev ^ "\n") with
                  | [ { Minipy.Ast.sdesc = Minipy.Ast.Expr_stmt _; _ } ] -> ()
                  | _ -> Alcotest.failf "%s: event %S is not one expression"
                           s.Workloads.Apps.name ev)
               s.Workloads.Apps.tests)
          Workloads.Apps.all);
    Alcotest.test_case "relative imports wire every generated package" `Quick
      (fun () ->
        let spec =
          Workloads.Libspec.spec ~name:"relcheck" ~import_ms:5.0 ~alloc_mb:1.0
            ~image_mb:0.0 ()
        in
        let src = init_source spec in
        let prog = Minipy.Parser.parse ~file:"<i>" src in
        let relative =
          List.exists
            (fun (st : Minipy.Ast.stmt) ->
               match st.Minipy.Ast.sdesc with
               | Minipy.Ast.From_import ({ Minipy.Ast.fc_level; _ }, _) ->
                 fc_level > 0
               | _ -> false)
            prog
        in
        Alcotest.(check bool) "uses relative imports" true relative) ]

let suite =
  [ ("workloads.suite_shape", suite_shape);
    ("workloads.generation", generation);
    ("workloads.all_apps_run", all_apps_run);
    ("workloads.paper_fidelity", paper_fidelity) ]
