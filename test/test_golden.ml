(* Tree-walker golden corpus: the exact observable behaviour and accounting
   of a fixed program set — stdout/outcome, %.17g virtual time, heap ledger,
   step count — pinned verbatim, plus the on-disk fixtures a previous run
   wrote.

   The snapshots were captured while a bytecode VM still ran beside the
   tree-walker and agreed with it on every program here. Committed
   experiment CSVs are computed from this accounting, so a drift in any
   string is a behaviour change to explain, never a re-baseline. *)

open Minipy

type snapshot = {
  sn_out : string;        (* captured stdout + outcome marker *)
  sn_vtime : float;
  sn_heap : int;
  sn_steps : int;
}

let run_program ?(vfs = Vfs.create ()) prog =
  let t = Interp.create ~max_steps:200_000 vfs in
  let out =
    match Interp.exec_main t prog with
    | _ -> "OK:" ^ Interp.stdout_contents t
    | exception Value.Py_error e ->
      Printf.sprintf "ERR:%s:%s:%s" e.Value.exc_class e.Value.exc_msg
        (Interp.stdout_contents t)
    | exception Interp.Timeout _ -> "TIMEOUT:" ^ Interp.stdout_contents t
    | exception Interp.Return_exc v ->
      Printf.sprintf "MODULE_RETURN:%s:%s" (Value.to_repr v)
        (Interp.stdout_contents t)
    | exception Interp.Break_exc -> "MODULE_BREAK:" ^ Interp.stdout_contents t
    | exception Interp.Continue_exc ->
      "MODULE_CONTINUE:" ^ Interp.stdout_contents t
    | exception Stack_overflow -> "STACKOVERFLOW"
  in
  { sn_out = out;
    sn_vtime = t.Interp.vtime_ms;
    sn_heap = t.Interp.heap_bytes;
    sn_steps = t.Interp.steps }

let snapshot_str s =
  Printf.sprintf "%s | vtime=%.17g heap=%d steps=%d" s.sn_out s.sn_vtime
    s.sn_heap s.sn_steps

let check_golden ?vfs name source expected =
  let prog = Parser.parse ~file:"<golden>" source in
  Alcotest.(check string) name expected (snapshot_str (run_program ?vfs prog))

(* --- crafted programs ----------------------------------------------------- *)

let crafted =
  [ ( "fib (recursion)",
      "def fib(n):\n\
      \  if n < 2:\n\
      \    return n\n\
      \  return fib(n - 1) + fib(n - 2)\n\
       print(fib(12))\n",
      "OK:144\n | vtime=4.6527999999996368 heap=3146928 steps=5117" );
    ( "arith, comparisons, short-circuit",
      "x = 7\n\
       y = x * 3 - 1 / 2\n\
       print(y, x // 2, x % 3, x ** 2)\n\
       print(x > 2 and y < 100 or False)\n\
       print(None or [1] and 'tail')\n",
      "OK:20.5 3 1 49\nTrue\ntail\n | vtime=0.037999999999999992 heap=3145792 steps=43" );
    ( "augassign on name, attr-free",
      "def bump(n):\n\
      \  acc = 0\n\
      \  i = 0\n\
      \  while i < n:\n\
      \    acc += i * 2\n\
      \    i += 1\n\
      \  return acc\n\
       print(bump(25))\n",
      "OK:600\n | vtime=0.19599999999999929 heap=3146928 steps=242" );
    ( "for with break/continue",
      "total = 0\n\
       for i in range(20):\n\
      \  if i % 2 == 0:\n\
      \    continue\n\
      \  if i > 13:\n\
      \    break\n\
      \  total += i\n\
       print(total)\n",
      "OK:49\n | vtime=0.13119999999999968 heap=3145944 steps=161" );
    ( "nested loops with break",
      "hits = []\n\
       for i in range(4):\n\
      \  for j in range(4):\n\
      \    if j > i:\n\
      \      break\n\
      \    hits.append(i * 10 + j)\n\
       print(hits)\n",
      "OK:[0, 10, 11, 20, 21, 22, 30, 31, 32, 33]\n | vtime=0.15599999999999961 heap=3146304 steps=171" );
    ( "comprehensions leak their variable",
      "xs = [i * i for i in range(6) if i != 3]\n\
       d = {k: k + 1 for k in range(4) if k > 0}\n\
       print(xs, d, i, k)\n",
      "OK:[0, 1, 4, 16, 25] {1: 2, 2: 3, 3: 4} 5 3\n | vtime=0.062800000000000064 heap=3146296 steps=74" );
    ( "tuple unpack, nested",
      "a, b = 1, 2\n\
       pairs = [(1, (2, 3)), (4, (5, 6))]\n\
       for x, (y, z) in pairs:\n\
      \  print(x + y + z)\n\
       print(a, b)\n",
      "OK:6\n15\n1 2\n | vtime=0.034799999999999984 heap=3146080 steps=39" );
    ( "lambda, defaults, kwargs",
      "def greet(name, punct='!', times=1):\n\
      \  return (name + punct) * times\n\
       square = lambda v: v * v\n\
       print(greet('hi'), greet('yo', times=2, punct='?'), square(9))\n",
      "OK:hi! yo?yo? 81\n | vtime=0.032799999999999982 heap=3148339 steps=35" );
    ( "class, methods, instances",
      "class Counter:\n\
      \  def __init__(self, start):\n\
      \    self.n = start\n\
      \  def bump(self, by=1):\n\
      \    self.n += by\n\
      \    return self.n\n\
       c = Counter(10)\n\
       c.bump()\n\
       print(c.bump(5))\n",
      "OK:16\n | vtime=0.033599999999999984 heap=3149784 steps=36" );
    ( "try/except inside a function",
      "def safe_div(a, b):\n\
      \  try:\n\
      \    return a / b\n\
      \  except ZeroDivisionError as e:\n\
      \    return -1\n\
       print(safe_div(8, 2), safe_div(1, 0))\n",
      "OK:4.0 -1\n | vtime=0.023599999999999993 heap=3146928 steps=25" );
    ( "loop containing try",
      "def scan(xs):\n\
      \  out = 0\n\
      \  for x in xs:\n\
      \    try:\n\
      \      out += 10 / x\n\
      \    except ZeroDivisionError:\n\
      \      out += 100\n\
      \  return out\n\
       print(scan([1, 0, 2, 0, 5]))\n",
      "OK:217.0\n | vtime=0.040000000000000001 heap=3147024 steps=47" );
    ( "global declaration",
      "count = 0\n\
       def incr():\n\
      \  global count\n\
      \  count = count + 1\n\
       incr()\n\
       incr()\n\
       print(count)\n",
      "OK:2\n | vtime=0.021999999999999995 heap=3146928 steps=23" );
    ( "slices and subscripts",
      "xs = [0, 1, 2, 3, 4, 5]\n\
       s = 'hello world'\n\
       print(xs[1:4], xs[:3], xs[2:], s[0:5], s[-5:])\n\
       xs[2] = 99\n\
       print(xs[2], xs[-1])\n",
      "OK:[1, 2, 3] [0, 1, 2] [2, 3, 4, 5] hello world\n99 5\n | vtime=0.038399999999999997 heap=3146188 steps=45" );
    ( "dict literals, methods, membership",
      "d = {'a': 1, 'b': 2}\n\
       d['c'] = 3\n\
       print('b' in d, 'z' in d, d.get('a'), d.keys(), len(d))\n",
      "OK:True False 1 ['a', 'b', 'c'] 3\n | vtime=0.02799999999999999 heap=3146016 steps=29" );
    ( "augassign through attr and subscript",
      "class Box:\n\
      \  def __init__(self):\n\
      \    self.v = 5\n\
       b = Box()\n\
       b.v += 3\n\
       xs = [1, 2, 3]\n\
       xs[1] += 10\n\
       print(b.v, xs)\n",
      "OK:8 [1, 12, 3]\n | vtime=0.025599999999999991 heap=3148664 steps=29" );
    ( "raise and assert",
      "def must_pos(x):\n\
      \  assert x > 0, 'not positive'\n\
      \  if x > 100:\n\
      \    raise ValueError('too big')\n\
      \  return x\n\
       print(must_pos(5))\n\
       try:\n\
      \  must_pos(-1)\n\
       except AssertionError as e:\n\
      \  print('caught', e.message)\n",
      "OK:5\ncaught not positive\n | vtime=0.03199999999999998 heap=3146928 steps=34" );
    ( "uncaught error accounting",
      "print('before')\n\
       xs = [1]\n\
       print(xs[5])\n",
      "ERR:IndexError:list index out of range:before\n | vtime=0.011600000000000003 heap=3145792 steps=13" );
    ( "del and NameError",
      "x = 1\n\
       del x\n\
       print(x)\n",
      "ERR:NameError:name 'x' is not defined: | vtime=0.0056000000000000008 heap=3145728 steps=7" );
    ( "module-level return escapes exec_main",
      "print('a')\n\
       return 5\n",
      "MODULE_RETURN:5:a\n | vtime=0.006000000000000001 heap=3145728 steps=6" );
    ( "string methods and formatting",
      "s = 'The Quick Fox'\n\
       print(s.upper(), s.lower(), s.split(' '), '-'.join(['a', 'b']))\n\
       print('{} and {}'.format(1, 'two'))\n",
      "OK:THE QUICK FOX the quick fox ['The', 'Quick', 'Fox'] a-b\n1 and two\n | vtime=0.031599999999999982 heap=3146114 steps=29" ) ]

let crafted_tests =
  List.map
    (fun (name, source, expected) ->
       Alcotest.test_case name `Quick (fun () ->
           check_golden name source expected))
    crafted

(* --- imports -------------------------------------------------------------- *)

let lib_source =
  "import simrt\n\
   simrt.cpu_ms(2.0)\n\
   VERSION = 3\n\
   def helper(x):\n\
  \  return x * VERSION\n\
   class Tool:\n\
  \  def run(self, v):\n\
  \    return helper(v) + 1\n"

let with_lib () =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "mylib.py" lib_source;
  Vfs.add_file vfs "pkg/__init__.py" "from . import sub\n";
  Vfs.add_file vfs "pkg/sub.py" "LEAF = 'leaf'\n";
  vfs

let import_tests =
  [ Alcotest.test_case "imports" `Quick (fun () ->
        check_golden ~vfs:(with_lib ()) "imports"
          "import mylib\n\
           import pkg\n\
           t = mylib.Tool()\n\
           print(mylib.helper(2), t.run(5), pkg.sub.LEAF)\n"
          "OK:6 16 leaf\n | vtime=2.1355999999999953 heap=3153984 steps=48");
    Alcotest.test_case "shared parse cache: one parse, same accounting"
      `Quick (fun () ->
        (* two fresh interpreters over one cache: the second import of
           every module is a hit, and hits never reach the virtual clock
           or the byte ledger *)
        let cache = Parse_cache.create () in
        let run () =
          let t = Interp.create ~parse_cache:cache (with_lib ()) in
          ignore
            (Interp.exec_main t
               (Parser.parse ~file:"<main>"
                  "import mylib\nimport pkg\nprint(mylib.helper(2))\n"));
          Printf.sprintf "%s | vtime=%.17g heap=%d steps=%d"
            (Interp.stdout_contents t) t.Interp.vtime_ms t.Interp.heap_bytes
            t.Interp.steps
        in
        let cold = run () in
        let misses = Parse_cache.misses cache in
        let warm = run () in
        Alcotest.(check string) "warm run accounts as cold" cold warm;
        Alcotest.(check int) "no new parse on the warm run" misses
          (Parse_cache.misses cache);
        Alcotest.(check int) "every warm import hit" misses
          (Parse_cache.hits cache)) ]

(* --- generated programs --------------------------------------------------- *)

(* 300 programs drawn from the property-test generator under a fixed seed;
   one md5 over their snapshots, newline-joined in draw order, pins the
   whole set. *)
let generated_tests =
  [ Alcotest.test_case "300 seeded programs" `Quick (fun () ->
        let progs =
          QCheck2.Gen.generate ~rand:(Random.State.make [| 2025 |]) ~n:300
            Test_properties.gen_program
          |> List.filter Test_properties.program_ok
        in
        Alcotest.(check int) "programs kept" 300 (List.length progs);
        let snaps = List.map (fun p -> snapshot_str (run_program p)) progs in
        Alcotest.(check string) "md5 of snapshots"
          "fa2ef2fb2692ff49f1dc02ea5b42401e"
          (Digest.to_hex (Digest.string (String.concat "\n" snaps)))) ]

(* --- full platform records ------------------------------------------------ *)

let sim_deployment () =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "numlib.py"
    "import simrt\n\
     simrt.cpu_ms(12.0)\n\
     simrt.alloc_mb(3.0)\n\
     def dot(xs, ys):\n\
    \  acc = 0\n\
    \  for i in range(len(xs)):\n\
    \    acc += xs[i] * ys[i]\n\
    \  return acc\n";
  Vfs.add_file vfs "handler.py"
    "import numlib\n\
     def handler(event, context):\n\
    \  n = event.get('n', 4)\n\
    \  xs = [i for i in range(n)]\n\
    \  print('dot', n)\n\
    \  return numlib.dot(xs, xs)\n";
  Platform.Deployment.make ~name:"diff-sim" ~vfs ~handler_file:"handler.py"
    ~handler_name:"handler"
    ~test_cases:[ Platform.Deployment.test_case ~name:"t1" "{\"n\": 6}" ]

let record_str (r : Platform.Lambda_sim.record) =
  Printf.sprintf
    "kind=%s init=%.17g exec=%.17g billed=%.17g mem=%.17g cost=%.17g out=%S res=%s"
    (Platform.Lambda_sim.start_kind_name r.Platform.Lambda_sim.kind)
    r.Platform.Lambda_sim.init_ms r.Platform.Lambda_sim.exec_ms
    r.Platform.Lambda_sim.billed_ms r.Platform.Lambda_sim.peak_memory_mb
    r.Platform.Lambda_sim.cost r.Platform.Lambda_sim.stdout
    (match r.Platform.Lambda_sim.outcome with
     | Platform.Lambda_sim.Ok v -> "OK:" ^ Value.to_repr v
     | Platform.Lambda_sim.Error e -> "ERR:" ^ e.Value.exc_class)

let sim_tests =
  [ Alcotest.test_case "Lambda_sim cold and warm records" `Quick (fun () ->
        let sim = Platform.Lambda_sim.create (sim_deployment ()) in
        let cold =
          Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"n\": 6}" ()
        in
        let warm =
          Platform.Lambda_sim.invoke sim ~now_s:1.0 ~event:"{\"n\": 6}" ()
        in
        Alcotest.(check string) "cold record"
          "kind=cold init=12.0436 exec=75.082399999999993 billed=88 \
           mem=6.0042495727539062 cost=3.7831990000000002e-07 \
           out=\"dot 6\\n\" res=OK:55"
          (record_str cold);
        Alcotest.(check string) "warm record"
          "kind=warm init=0 exec=75.082399999999993 billed=76 \
           mem=6.0048751831054688 cost=3.5400354999999998e-07 \
           out=\"dot 6\\n\" res=OK:55"
          (record_str warm)) ]

(* --- timeout boundary ----------------------------------------------------- *)

(* The step budget at which the oracle's probe stops timing out is pinned:
   a drift in step accounting moves the boundary and changes which DD
   candidates read as CRASH:timeout. *)
let timeout_tests =
  [ Alcotest.test_case "CRASH:timeout boundary between 100 and 150 steps"
      `Quick (fun () ->
        let d = sim_deployment () in
        List.iter
          (fun max_steps ->
             let params =
               { Platform.Lambda_sim.default_params with max_steps }
             in
             let o =
               Trim.Oracle.observe ~cache:(Trim.Oracle.Cache.create ())
                 ~params d
             in
             let expected =
               if max_steps <= 100 then "CRASH:timeout" else "dot 6\nRET:55"
             in
             Alcotest.(check (list (pair string string)))
               (Printf.sprintf "%d steps" max_steps)
               [ ("t1", expected) ] o.Trim.Oracle.per_test)
          [ 1; 5; 10; 25; 50; 75; 100; 150; 200; 350; 500; 1000; 2500;
            100_000 ]) ]

(* --- on-disk fixtures ----------------------------------------------------- *)

(* [fixtures/] holds the manifest and memo store written by
   `ltrim debloat markdown -k 3 --manifest ... --memo-dir ...`. Their keys
   carry the engine tag; a warm run must still replay every module from
   them without a single oracle query. *)
let fixture_tests =
  [ Alcotest.test_case "stored manifest and memo replay warm" `Quick
      (fun () ->
        let manifest =
          match Trim.Manifest.load ~path:"fixtures/markdown.manifest" with
          | Some m -> m
          | None -> Alcotest.fail "fixture manifest did not load"
        in
        Alcotest.(check string) "engine tag" Interp.engine_tag
          manifest.Trim.Manifest.mf_backend;
        (* the store repairs and appends in place: run against a copy *)
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ltrim-golden-memo-%d" (Unix.getpid ()))
        in
        Trim.Journal.mkdir_p dir;
        let src = Filename.concat "fixtures/memo" Trim.Memo_store.file_name in
        let ic = open_in_bin src in
        let contents =
          Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
              really_input_string ic (in_channel_length ic))
        in
        Trim.Journal.write_file_atomic
          ~path:(Filename.concat dir Trim.Memo_store.file_name) contents;
        let store = Trim.Memo_store.open_ ~dir in
        Fun.protect ~finally:(fun () -> Trim.Memo_store.close store)
          (fun () ->
            Alcotest.(check int) "clean load" 0
              (Trim.Memo_store.truncated store);
            let cache = Trim.Oracle.Cache.create () in
            Trim.Oracle.Cache.attach_store cache (Some store);
            let r =
              Trim.Pipeline.run
                ~options:{ Trim.Pipeline.default_options with
                           k = 3; baseline = Some manifest;
                           oracle_cache = Some cache }
                (Workloads.Suite.deployment_of "markdown")
            in
            Alcotest.(check int) "every module replayed" 3
              (List.length r.Trim.Pipeline.replayed_modules);
            Alcotest.(check int) "modules" 3
              (List.length r.Trim.Pipeline.module_results);
            Alcotest.(check int) "zero oracle queries" 0
              r.Trim.Pipeline.total_oracle_queries;
            Alcotest.(check int) "no fresh executions" 0
              (Trim.Oracle.Cache.misses cache);
            Alcotest.(check bool) "memo store served hits" true
              (Trim.Oracle.Cache.store_hits cache > 0)));
    (* `ltrim debloat markdown -k 3 --journal DIR` wrote fixtures/journal/;
       resuming from a copy must replay every DD query from it *)
    Alcotest.test_case "stored journals resume with zero fresh queries" `Quick
      (fun () ->
        let sub = "markdown-combined-k3" in
        let src = Filename.concat "fixtures/journal" sub in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ltrim-golden-journal-%d" (Unix.getpid ()))
        in
        Array.iter
          (fun f ->
             Trim.Durable_log.write_file_atomic
               ~path:(Filename.concat (Filename.concat dir sub) f)
               (Trim.Durable_log.read_file (Filename.concat src f)))
          (Sys.readdir src);
        let run ?journal_dir () =
          Trim.Pipeline.run
            ~options:{ Trim.Pipeline.default_options with
                       k = 3; journal_dir; resume = true;
                       oracle_cache = Some (Trim.Oracle.Cache.create ()) }
            (Workloads.Suite.deployment_of "markdown")
        in
        let counter name = Obs.Metrics.counter Obs.Metrics.global name in
        let value name = Obs.Metrics.value (counter name) in
        let names =
          [ "trim.journal.truncated"; "trim.journal.appended";
            "trim.journal.replayed" ]
        in
        let before = List.map value names in
        let r = run ~journal_dir:dir () in
        let delta = List.map2 (fun n b -> value n - b) names before in
        Alcotest.(check int) "DD queries of the recorded run" 19
          r.Trim.Pipeline.total_oracle_queries;
        Alcotest.(check (list int))
          "truncated, appended (fresh queries), replayed"
          [ 0; 0; r.Trim.Pipeline.total_oracle_queries ] delta;
        let removed (r : Trim.Pipeline.report) =
          List.map
            (fun (m : Trim.Debloater.module_result) ->
               (m.Trim.Debloater.dm_module, m.Trim.Debloater.removed_attrs))
            r.Trim.Pipeline.module_results
        in
        Alcotest.(check (list (pair string (list string))))
          "same keep-sets as an unjournaled run" (removed (run ())) (removed r));
    Alcotest.test_case "engine tag is the constant treewalk" `Quick
      (fun () ->
        (* memo keys, journal digests and manifest headers written by
           earlier runs carry this string; it must never change *)
        Alcotest.(check string) "Interp" "treewalk" Interp.engine_tag;
        Alcotest.(check string) "Backend" "treewalk"
          (Backend.to_string (Backend.current ()))) ]

(* --- the front end ----------------------------------------------------------- *)

let front_end_tests =
  [ Alcotest.test_case "every corpus file parses to the pinned ASTs" `Quick
      (fun () ->
        (* (path, AST) for the 259 source files of the 21 apps' images,
           locations included; [No_sharing] makes the digest depend on the
           trees' structure only *)
        let asts =
          List.map
            (fun (path, src) -> (path, Parser.parse ~file:path src))
            (Lazy.force Test_lexer.corpus)
        in
        Alcotest.(check int) "files" 259 (List.length asts);
        Alcotest.(check string) "md5" "f45d51f149c0bb1dace2b508655bd39c"
          (Digest.to_hex
             (Digest.string (Marshal.to_string asts [ Marshal.No_sharing ]))));
    Alcotest.test_case "a lexer error anywhere wins over an earlier parse error"
      `Quick (fun () ->
        List.iter
          (fun (src, msg, line, col) ->
             let check what parse =
               match parse ~file:"<p>" src with
               | _ -> Alcotest.failf "%s %S: expected a lexer error" what src
               | exception Parser.Error (m, _) ->
                 Alcotest.failf "%s %S: parse error %S won" what src m
               | exception Lexer.Error (m, l) ->
                 Alcotest.(check (triple string int int))
                   (what ^ " " ^ String.escaped src) (msg, line, col)
                   (m, l.Loc.line, l.Loc.col)
             in
             check "parse" (fun ~file s -> ignore (Parser.parse ~file s));
             check "parse_expression" (fun ~file s ->
                 ignore (Parser.parse_expression ~file s)))
          [ ("def (:\nx = $", "unexpected character '$'", 2, 4);
            ("x = (1,\n2\n", "unclosed bracket at end of file", 3, 0);
            ("1 2\nif a:\n    b\n  c\n", "inconsistent dedent", 4, 2) ]) ]

let suite =
  [ ("golden.front_end", front_end_tests);
    ("golden.crafted", crafted_tests);
    ("golden.imports", import_tests);
    ("golden.generated", generated_tests);
    ("golden.platform", sim_tests);
    ("golden.timeout", timeout_tests);
    ("golden.fixtures", fixture_tests) ]
