(* Lambda simulator: cold/warm lifecycle, keep-alive, billing boundary. *)

open Platform

let tiny () = Workloads.Suite.tiny_app ()

let lifecycle =
  [ Alcotest.test_case "first invocation is cold, second warm" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let c = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check string) "cold" "cold" (Lambda_sim.start_kind_name c.Lambda_sim.kind);
        Alcotest.(check string) "warm" "warm" (Lambda_sim.start_kind_name w.Lambda_sim.kind));
    Alcotest.test_case "keep-alive expiry forces a cold start" `Quick (fun () ->
        let params = { Lambda_sim.default_params with keep_alive_s = 60.0 } in
        let sim = Lambda_sim.create ~params (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let late = Lambda_sim.invoke sim ~now_s:120.0 () in
        Alcotest.(check string) "cold again" "cold"
          (Lambda_sim.start_kind_name late.Lambda_sim.kind));
    Alcotest.test_case "request inside keep-alive is warm" `Quick (fun () ->
        let params = { Lambda_sim.default_params with keep_alive_s = 60.0 } in
        let sim = Lambda_sim.create ~params (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:59.0 () in
        Alcotest.(check string) "warm" "warm"
          (Lambda_sim.start_kind_name w.Lambda_sim.kind));
    Alcotest.test_case "evict forces cold start" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        sim.Lambda_sim.live <- None;
        let c = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check string) "cold" "cold"
          (Lambda_sim.start_kind_name c.Lambda_sim.kind)) ]

let phases =
  [ Alcotest.test_case "fig1 billing boundary" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let c = Lambda_sim.invoke sim ~now_s:0.0 () in
        (* billed = init + exec (rounded up); platform phases unbilled *)
        Alcotest.(check bool) "billed >= init+exec" true
          (c.Lambda_sim.billed_ms >= c.Lambda_sim.init_ms +. c.Lambda_sim.exec_ms -. 1e-9);
        Alcotest.(check bool) "billed < init+exec+granularity" true
          (c.Lambda_sim.billed_ms < c.Lambda_sim.init_ms +. c.Lambda_sim.exec_ms +. 1.0);
        Alcotest.(check bool) "e2e includes unbilled phases" true
          (c.Lambda_sim.e2e_ms
           >= c.Lambda_sim.billed_ms +. c.Lambda_sim.instance_init_ms -. 1.0));
    Alcotest.test_case "warm start has no init phases" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let _ = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check (float 1e-9)) "no instance init" 0.0 w.Lambda_sim.instance_init_ms;
        Alcotest.(check (float 1e-9)) "no transmission" 0.0 w.Lambda_sim.transmission_ms;
        Alcotest.(check (float 1e-9)) "no fn init" 0.0 w.Lambda_sim.init_ms;
        Alcotest.(check bool) "but executes" true (w.Lambda_sim.exec_ms > 0.0));
    Alcotest.test_case "transmission scales with image size" `Quick (fun () ->
        let d = tiny () in
        let sim = Lambda_sim.create d in
        let expected =
          Platform.Deployment.image_mb d
          /. Lambda_sim.default_params.Lambda_sim.transmission_mb_per_s *. 1000.0
        in
        Alcotest.(check (float 1e-6)) "ms" expected (Lambda_sim.transmission_ms sim));
    Alcotest.test_case "cold start costs more than warm" `Quick (fun () ->
        let sim = Lambda_sim.create (tiny ()) in
        let c = Lambda_sim.invoke sim ~now_s:0.0 () in
        let w = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check bool) "cost" true (c.Lambda_sim.cost > w.Lambda_sim.cost));
    Alcotest.test_case "handler error is captured not raised" `Quick (fun () ->
        let d = tiny () in
        let sim = Lambda_sim.create d in
        let r = Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": \"oops\"}" () in
        match r.Lambda_sim.outcome with
        | Lambda_sim.Error e ->
          Alcotest.(check string) "TypeError" "TypeError" e.Minipy.Value.exc_class
        | Lambda_sim.Ok _ -> Alcotest.fail "expected type error from str*int") ]



let init_crash =
  [ Alcotest.test_case "init crash surfaces as a function error" `Quick
      (fun () ->
        let d = tiny () in
        let broken = Platform.Deployment.copy d in
        Minipy.Vfs.add_file broken.Platform.Deployment.vfs
          "site-packages/tinylib/__init__.py" "raise OSError(\"no .so\")\n";
        let sim = Lambda_sim.create broken in
        let r = Lambda_sim.invoke sim ~now_s:0.0 () in
        (match r.Lambda_sim.outcome with
         | Lambda_sim.Error e ->
           Alcotest.(check string) "class" "OSError" e.Minipy.Value.exc_class
         | Lambda_sim.Ok _ -> Alcotest.fail "expected error");
        (* a crashed instance is not kept warm *)
        let r2 = Lambda_sim.invoke sim ~now_s:1.0 () in
        Alcotest.(check string) "cold again" "cold"
          (Lambda_sim.start_kind_name r2.Lambda_sim.kind)) ]

(* [tiny ()] with its handler replaced by [src] *)
let with_handler src =
  let d = Platform.Deployment.copy (tiny ()) in
  Minipy.Vfs.add_file d.Platform.Deployment.vfs
    d.Platform.Deployment.handler_file src;
  d

(* An event is one expression, optionally followed by newlines; anything
   else is the caller's mistake and raises instead of reaching the
   handler. *)
let event_input =
  let echo () =
    Lambda_sim.create (with_handler "def handler(event, context):\n  return event\n")
  in
  let rejects src =
    Alcotest.test_case ("trailing tokens: " ^ String.escaped src) `Quick
      (fun () ->
        match Lambda_sim.invoke (echo ()) ~now_s:0.0 ~event:src () with
        | _ -> Alcotest.fail "expected the event to be rejected"
        | exception (Invalid_argument _ | Minipy.Parser.Error _) -> ())
  in
  [ rejects "x = 3";
    rejects "1 2";
    rejects "f(1))";
    Alcotest.test_case "expression alone or before a newline" `Quick (fun () ->
        List.iter
          (fun src ->
             match (Lambda_sim.invoke (echo ()) ~now_s:0.0 ~event:src ()).Lambda_sim.outcome with
             | Lambda_sim.Ok v ->
               Alcotest.(check string) (String.escaped src) "[1, {'x': 2}]"
                 (Minipy.Value.to_repr v)
             | Lambda_sim.Error e -> Alcotest.fail e.Minipy.Value.exc_class)
          [ "[1, {\"x\": 2}]"; "[1, {\"x\": 2}]\n"; "[1,\n  {\"x\":\n 2}]\n\n" ]) ]

let stdout_slices =
  [ Alcotest.test_case "each invocation reports its own stdout" `Quick
      (fun () ->
        let sim =
          Lambda_sim.create
            (with_handler
               "def handler(event, context):\n  print(event)\n  return 0\n")
        in
        let outs =
          List.mapi
            (fun i event ->
               (Lambda_sim.invoke sim ~now_s:(float_of_int i) ~event ()).Lambda_sim.stdout)
            [ "1"; "2"; "3" ]
        in
        (* the warm invocations reuse the cold start's interpreter, whose
           buffer holds every earlier line *)
        Alcotest.(check (list string)) "slices" [ "1\n"; "2\n"; "3\n" ] outs) ]

let suite =
  [ ("platform.lifecycle", lifecycle); ("platform.phases", phases);
    ("platform.init_crash", init_crash);
    ("platform.event_input", event_input);
    ("platform.stdout", stdout_slices) ]
