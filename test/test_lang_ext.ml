(* Language extensions: slices, list comprehensions, json, and the
   intercepted cloud module. *)

open Minipy

let run ?(vfs = Vfs.create ()) src =
  let t = Interp.create vfs in
  let prog = Parser.parse ~file:"<test>" src in
  ignore (Interp.exec_main t prog);
  (t, Interp.stdout_contents t)

let check_out name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (snd (run src)))

let slices =
  [ check_out "list slice" "xs = [0, 1, 2, 3, 4]\nprint(xs[1:3])" "[1, 2]\n";
    check_out "open-ended slices" "xs = [0, 1, 2, 3]\nprint(xs[2:], xs[:2], xs[:])"
      "[2, 3] [0, 1] [0, 1, 2, 3]\n";
    check_out "negative bounds" "xs = [0, 1, 2, 3]\nprint(xs[-2:], xs[:-1])"
      "[2, 3] [0, 1, 2]\n";
    check_out "string slice" "s = \"hello\"\nprint(s[1:4], s[:2], s[-3:])"
      "ell he llo\n";
    check_out "tuple slice" "t = (1, 2, 3, 4)\nprint(t[1:3])" "(2, 3)\n";
    check_out "out of range clamps" "xs = [1, 2]\nprint(xs[1:99], xs[5:])"
      "[2] []\n";
    check_out "crossed bounds empty" "xs = [1, 2, 3]\nprint(xs[2:1])" "[]\n";
    check_out "slice then index" "xs = [9, 8, 7, 6]\nprint(xs[1:3][0])" "8\n" ]

let comprehensions =
  [ check_out "map" "print([x * 2 for x in [1, 2, 3]])" "[2, 4, 6]\n";
    check_out "filter" "print([x for x in range(10) if x % 3 == 0])"
      "[0, 3, 6, 9]\n";
    check_out "map+filter" "print([x * x for x in range(6) if x % 2 == 1])"
      "[1, 9, 25]\n";
    check_out "over string" "print([c.upper() for c in \"abc\"])"
      "['A', 'B', 'C']\n";
    check_out "tuple unpack target"
      "pairs = [(1, \"a\"), (2, \"b\")]\nprint([k for k, v in pairs])" "[1, 2]\n";
    check_out "nested in function"
      "def evens(n):\n  return [i for i in range(n) if i % 2 == 0]\nprint(evens(7))"
      "[0, 2, 4, 6]\n";
    check_out "comprehension round-trips" "" "";
    Alcotest.test_case "pretty round-trip" `Quick (fun () ->
        let src = "ys = [f(x) for x in data if x > 0]\nzs = xs[1:]\n" in
        let p1 = Parser.parse ~file:"<t>" src in
        let p2 = Parser.parse ~file:"<t>" (Pretty.program_to_string p1) in
        Alcotest.(check bool) "equal" true (Ast_ref.program_equal p1 p2)) ]

let json_tests =
  [ check_out "dumps scalars"
      "import json\nprint(json.dumps({\"a\": 1, \"b\": [True, None, 1.5]}))"
      "{\"a\": 1, \"b\": [true, null, 1.5]}\n";
    check_out "dumps string escapes"
      "import json\nprint(json.dumps(\"line\\nbreak\"))" "\"line\\nbreak\"\n";
    check_out "loads object"
      "import json\nd = json.loads(\"{\\\"k\\\": [1, 2]}\")\nprint(d[\"k\"][1])"
      "2\n";
    check_out "loads literals"
      "import json\nprint(json.loads(\"true\"), json.loads(\"null\"), json.loads(\"-3.5\"))"
      "True None -3.5\n";
    check_out "round trip"
      "import json\n\
       payload = {\"name\": \"bob\", \"tags\": [\"a\", \"b\"], \"n\": 3}\n\
       again = json.loads(json.dumps(payload))\n\
       print(again == payload)"
      "True\n";
    Alcotest.test_case "loads error is ValueError" `Quick (fun () ->
        match run "import json\njson.loads(\"{bad\")" with
        | _ -> Alcotest.fail "expected error"
        | exception Value.Py_error e ->
          Alcotest.(check string) "class" "ValueError" e.Value.exc_class);
    Alcotest.test_case "dumps rejects functions" `Quick (fun () ->
        match run "import json\ndef f():\n  pass\njson.dumps(f)" with
        | _ -> Alcotest.fail "expected error"
        | exception Value.Py_error e ->
          Alcotest.(check string) "class" "TypeError" e.Value.exc_class) ]

let cloud_tests =
  [ Alcotest.test_case "put/get round-trips within a run" `Quick (fun () ->
        let _, out =
          run
            "import cloud\n\
             cloud.put(\"s3\", \"k\", {\"v\": 7})\n\
             print(cloud.get(\"s3\", \"k\"))"
        in
        Alcotest.(check string) "value" "{'v': 7}\n" out);
    Alcotest.test_case "unseen key is deterministic" `Quick (fun () ->
        let _, o1 = run "import cloud\nprint(cloud.get(\"s3\", \"nope\"))" in
        let _, o2 = run "import cloud\nprint(cloud.get(\"s3\", \"nope\"))" in
        Alcotest.(check string) "same" o1 o2;
        Alcotest.(check string) "blob" "blob:s3/nope\n" o1);
    Alcotest.test_case "calls recorded in order" `Quick (fun () ->
        let t, _ =
          run
            "import cloud\n\
             cloud.put(\"s3\", \"a\", 1)\n\
             cloud.get(\"dynamo\", \"row\")\n\
             cloud.invoke(\"resize\", {\"w\": 2})"
        in
        Alcotest.(check (list string)) "calls"
          [ "put s3/a = 1"; "get dynamo/row"; "invoke resize({'w': 2})" ]
          (Interp.external_calls t));
    Alcotest.test_case "calls charge network time" `Quick (fun () ->
        let t, _ = run "import cloud\ncloud.put(\"s3\", \"k\", 1)" in
        Alcotest.(check bool) "time > 2ms" true (t.Interp.vtime_ms > 2.0)) ]

let oracle_external =
  [ Alcotest.test_case "oracle distinguishes changed external calls" `Quick
      (fun () ->
        let make payload =
          let vfs = Vfs.create () in
          Vfs.add_file vfs "handler.py"
            (Printf.sprintf
               "import cloud\n\
                def handler(event, context):\n\
               \  cloud.put(\"s3\", \"out\", %s)\n\
               \  return 0\n"
               payload);
          Platform.Deployment.make ~name:"x" ~vfs ~handler_file:"handler.py"
            ~handler_name:"handler"
            ~test_cases:[ Platform.Deployment.test_case ~name:"t" "{}" ]
        in
        (* same stdout and return value; only the uploaded payload differs *)
        let oracle, _ = Trim.Oracle.for_reference (make "1") in
        Alcotest.(check bool) "same passes" true (oracle (make "1"));
        Alcotest.(check bool) "different payload fails" false (oracle (make "2")));
    Alcotest.test_case "boto3-style workload records uploads" `Quick (fun () ->
        let d = Workloads.Suite.deployment_of "image-resize" in
        let sim = Platform.Lambda_sim.create d in
        let r = Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" () in
        Alcotest.(check bool) "upload recorded" true
          (List.exists
             (fun c ->
                String.length c > 3 && String.sub c 0 3 = "put")
             r.Platform.Lambda_sim.external_calls));
    Alcotest.test_case "warm invocation calls attributed per request" `Quick
      (fun () ->
        let d = Workloads.Suite.deployment_of "image-resize" in
        let sim = Platform.Lambda_sim.create d in
        let c = Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" () in
        let w = Platform.Lambda_sim.invoke sim ~now_s:1.0 ~event:"{\"x\": 1}" () in
        Alcotest.(check int) "same count per request"
          (List.length c.Platform.Lambda_sim.external_calls)
          (List.length w.Platform.Lambda_sim.external_calls));
    Alcotest.test_case "debloating preserves external calls" `Quick (fun () ->
        let d = Workloads.Suite.deployment_of "image-resize" in
        let report = Trim.Pipeline.run ~options:{ Trim.Pipeline.default_options with k = 5 } d in
        let calls dep =
          let sim = Platform.Lambda_sim.create dep in
          (Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ())
            .Platform.Lambda_sim.external_calls
        in
        Alcotest.(check (list string)) "identical" (calls d)
          (calls report.Trim.Pipeline.optimized)) ]



let dict_comprehensions =
  [ check_out "basic" "print({x: x * x for x in range(3)})"
      "{0: 0, 1: 1, 2: 4}\n";
    check_out "with condition"
      "print({w: len(w) for w in [\"a\", \"bb\", \"ccc\"] if len(w) > 1})"
      "{'bb': 2, 'ccc': 3}\n";
    check_out "tuple target"
      "pairs = [(\"a\", 1), (\"b\", 2)]\nprint({k: v * 10 for k, v in pairs})"
      "{'a': 10, 'b': 20}\n";
    check_out "invert a dict"
      "d = {\"x\": 1, \"y\": 2}\nprint({v: k for k, v in d.items()})"
      "{1: 'x', 2: 'y'}\n";
    check_out "duplicate keys keep last"
      "print({x % 2: x for x in range(4)})" "{0: 2, 1: 3}\n";
    Alcotest.test_case "dict comp round-trips" `Quick (fun () ->
        let src = "m = {k: f(k) for k in keys if k != 0}\n" in
        let p1 = Minipy.Parser.parse ~file:"<t>" src in
        let p2 =
          Minipy.Parser.parse ~file:"<t>" (Minipy.Pretty.program_to_string p1)
        in
        Alcotest.(check bool) "equal" true (Ast_ref.program_equal p1 p2)) ]

let string_methods =
  [ check_out "format positional"
      "print(\"{} + {} = {}\".format(1, 2, 3))" "1 + 2 = 3\n";
    check_out "format mixed types"
      "print(\"name={} ok={}\".format(\"bob\", True))" "name=bob ok=True\n";
    check_out "count" "print(\"banana\".count(\"an\"), \"banana\".count(\"z\"))"
      "2 0\n";
    check_out "find" "print(\"banana\".find(\"na\"), \"banana\".find(\"z\"))"
      "2 -1\n";
    Alcotest.test_case "format arity error" `Quick (fun () ->
        match run "print(\"{} {}\".format(1))" with
        | _ -> Alcotest.fail "expected IndexError"
        | exception Value.Py_error e ->
          Alcotest.(check string) "class" "IndexError" e.Value.exc_class) ]

let suite =
  [ ("lang.slices", slices);
    ("lang.comprehensions", comprehensions);
    ("lang.dict_comprehensions", dict_comprehensions);
    ("lang.string_methods", string_methods);
    ("lang.json", json_tests);
    ("lang.cloud", cloud_tests);
    ("lang.oracle_external", oracle_external) ]
