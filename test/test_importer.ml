(* Import machinery: resolution, caching, packages, hooks, from-import. *)

open Minipy

let make_vfs files =
  let vfs = Vfs.create () in
  List.iter (fun (p, c) -> Vfs.add_file vfs p c) files;
  vfs

let run vfs src =
  let t = Interp.create vfs in
  let prog = Parser.parse ~file:"<main>" src in
  ignore (Interp.exec_main t prog);
  (t, Interp.stdout_contents t)

let check_out name vfs src expected =
  Alcotest.test_case name `Quick (fun () ->
      let _, out = run vfs src in
      Alcotest.(check string) name expected out)

let simple_pkg =
  make_vfs
    [ ("site-packages/mylib/__init__.py",
       "version = 7\ndef greet(name):\n  return \"hi \" + name\n");
      ("site-packages/mylib/util.py", "def double(x):\n  return x * 2\n");
      ("site-packages/mylib/sub/__init__.py", "leaf = True\n");
      ("helpers.py", "def local_helper():\n  return 99\n") ]

let resolution =
  [ Alcotest.test_case "resolve package" `Quick (fun () ->
        match Importer.resolve simple_pkg [ "mylib" ] with
        | Importer.Package p ->
          Alcotest.(check string) "path" "site-packages/mylib/__init__.py" p
        | _ -> Alcotest.fail "expected package");
    Alcotest.test_case "resolve module" `Quick (fun () ->
        match Importer.resolve simple_pkg [ "mylib"; "util" ] with
        | Importer.Module p ->
          Alcotest.(check string) "path" "site-packages/mylib/util.py" p
        | _ -> Alcotest.fail "expected module");
    Alcotest.test_case "resolve root-level module" `Quick (fun () ->
        match Importer.resolve simple_pkg [ "helpers" ] with
        | Importer.Module p -> Alcotest.(check string) "path" "helpers.py" p
        | _ -> Alcotest.fail "expected module");
    Alcotest.test_case "missing module" `Quick (fun () ->
        match Importer.resolve simple_pkg [ "nope" ] with
        | Importer.Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "prefixes" `Quick (fun () ->
        Alcotest.(check (list (list string)))
          "prefixes"
          [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "c" ] ]
          (Importer.prefixes [ "a"; "b"; "c" ])) ]

let importing =
  [ check_out "import package attr" simple_pkg
      "import mylib\nprint(mylib.version)" "7\n";
    check_out "call package function" simple_pkg
      "import mylib\nprint(mylib.greet(\"bob\"))" "hi bob\n";
    check_out "import submodule" simple_pkg
      "import mylib.util\nprint(mylib.util.double(4))" "8\n";
    check_out "import as alias" simple_pkg
      "import mylib.util as u\nprint(u.double(5))" "10\n";
    check_out "from import name" simple_pkg
      "from mylib import greet\nprint(greet(\"x\"))" "hi x\n";
    check_out "from import with alias" simple_pkg
      "from mylib import version as v\nprint(v)" "7\n";
    check_out "from import submodule" simple_pkg
      "from mylib import util\nprint(util.double(3))" "6\n";
    check_out "nested package" simple_pkg
      "import mylib.sub\nprint(mylib.sub.leaf)" "True\n";
    check_out "root-level module import" simple_pkg
      "import helpers\nprint(helpers.local_helper())" "99\n";
    check_out "submodule access via attr after parent import" simple_pkg
      "import mylib\nprint(mylib.util.double(6))" "12\n" ]

let caching =
  [ Alcotest.test_case "module body runs once" `Quick (fun () ->
        let vfs =
          make_vfs [ ("site-packages/eff/__init__.py", "print(\"side\")\nx = 1\n") ]
        in
        let _, out = run vfs "import eff\nimport eff\nfrom eff import x\nprint(x)" in
        Alcotest.(check string) "one side effect" "side\n1\n" out);
    Alcotest.test_case "fresh interpreter re-runs module" `Quick (fun () ->
        let vfs =
          make_vfs [ ("site-packages/eff/__init__.py", "print(\"side\")\n") ]
        in
        let _, out1 = run vfs "import eff" in
        let _, out2 = run vfs "import eff" in
        Alcotest.(check string) "isolated" (out1 ^ out2) "side\nside\n");
    Alcotest.test_case "circular import tolerated" `Quick (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/a/__init__.py", "import b\nx = 1\n");
              ("site-packages/b/__init__.py", "import a\ny = 2\n") ]
        in
        let _, out = run vfs "import a\nprint(a.x, a.b.y)" in
        Alcotest.(check string) "works" "1 2\n" out) ]

let hooks =
  [ Alcotest.test_case "import hooks observe module names in order" `Quick (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/outer/__init__.py", "import inner\n");
              ("site-packages/inner/__init__.py", "x = 1\n") ]
        in
        let t = Interp.create vfs in
        let events = ref [] in
        Interp.add_import_hook t
          { Interp.on_before = (fun n -> events := ("before:" ^ n) :: !events);
            on_after = (fun n -> events := ("after:" ^ n) :: !events) };
        ignore (Interp.exec_main t (Parser.parse ~file:"<m>" "import outer"));
        Alcotest.(check (list string)) "nesting order"
          [ "before:outer"; "before:inner"; "after:inner"; "after:outer" ]
          (List.rev !events));
    Alcotest.test_case "hook sees time and memory window" `Quick (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/heavy/__init__.py",
               "import simrt\nsimrt.cpu_ms(50)\nsimrt.alloc_mb(10)\n") ]
        in
        let t = Interp.create vfs in
        let t0 = ref 0.0 and m0 = ref 0 in
        let dt = ref 0.0 and dm = ref 0 in
        Interp.add_import_hook t
          { Interp.on_before =
              (fun _ -> t0 := t.Interp.vtime_ms; m0 := t.Interp.heap_bytes);
            on_after =
              (fun _ ->
                 dt := t.Interp.vtime_ms -. !t0;
                 dm := t.Interp.heap_bytes - !m0) };
        ignore (Interp.exec_main t (Parser.parse ~file:"<m>" "import heavy"));
        Alcotest.(check bool) "time >= 50ms" true (!dt >= 50.0);
        Alcotest.(check bool) "mem >= 10MB" true (!dm >= 10 * 1024 * 1024)) ]

let errors =
  [ Alcotest.test_case "missing import raises ModuleNotFoundError" `Quick (fun () ->
        match run (make_vfs []) "import ghost" with
        | _ -> Alcotest.fail "expected error"
        | exception Value.Py_error e ->
          Alcotest.(check string) "class" "ModuleNotFoundError" e.Value.exc_class);
    Alcotest.test_case "from import missing name" `Quick (fun () ->
        match run simple_pkg "from mylib import missing_thing" with
        | _ -> Alcotest.fail "expected error"
        | exception Value.Py_error e ->
          Alcotest.(check string) "class" "ImportError" e.Value.exc_class);
    Alcotest.test_case "failed module not cached" `Quick (fun () ->
        let vfs =
          make_vfs [ ("site-packages/bad/__init__.py", "raise ValueError(\"init\")\n") ]
        in
        let t = Interp.create vfs in
        let src = "try:\n  import bad\nexcept ValueError:\n  print(\"failed\")\n" in
        ignore (Interp.exec_main t (Parser.parse ~file:"<m>" src));
        Alcotest.(check bool) "not cached" false
          (Hashtbl.mem t.Interp.modules "bad"));
    Alcotest.test_case "syntax error surfaces as SyntaxError" `Quick (fun () ->
        let vfs = make_vfs [ ("site-packages/synbad/__init__.py", "def f(:\n") ] in
        match run vfs "import synbad" with
        | _ -> Alcotest.fail "expected error"
        | exception Value.Py_error e ->
          Alcotest.(check string) "class" "SyntaxError" e.Value.exc_class) ]



let relative_imports =
  [ Alcotest.test_case "from . import sibling in __init__" `Quick (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/pkg/__init__.py", "from . import util\n");
              ("site-packages/pkg/util.py", "def f():\n  return 5\n") ]
        in
        let _, out = run vfs "import pkg\nprint(pkg.util.f())" in
        Alcotest.(check string) "works" "5\n" out);
    Alcotest.test_case "from ._mod import name" `Quick (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/pkg/__init__.py", "from ._core import f0\n");
              ("site-packages/pkg/_core.py", "def f0():\n  return 9\n") ]
        in
        let _, out = run vfs "from pkg import f0\nprint(f0())" in
        Alcotest.(check string) "works" "9\n" out);
    Alcotest.test_case "plain module resolves level-1 to parent" `Quick
      (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/pkg/__init__.py", "from .a import go\n");
              ("site-packages/pkg/a.py", "from .b import base\ndef go():\n  return base() + 1\n");
              ("site-packages/pkg/b.py", "def base():\n  return 10\n") ]
        in
        let _, out = run vfs "import pkg\nprint(pkg.go())" in
        Alcotest.(check string) "works" "11\n" out);
    Alcotest.test_case "two dots reach grandparent" `Quick (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/pkg/__init__.py", "shared = 7\n");
              ("site-packages/pkg/sub/__init__.py", "from ..helpers import read_shared\n");
              ("site-packages/pkg/helpers.py",
               "import pkg\ndef read_shared():\n  return pkg.shared\n") ]
        in
        let _, out = run vfs "import pkg.sub\nprint(pkg.sub.read_shared())" in
        Alcotest.(check string) "works" "7\n" out);
    Alcotest.test_case "relative import in __main__ fails" `Quick (fun () ->
        match run (make_vfs []) "from . import thing" with
        | _ -> Alcotest.fail "expected ImportError"
        | exception Minipy.Value.Py_error e ->
          Alcotest.(check string) "class" "ImportError" e.Minipy.Value.exc_class);
    Alcotest.test_case "too many dots fails" `Quick (fun () ->
        let vfs =
          make_vfs [ ("site-packages/pkg/__init__.py", "from ... import x\n") ]
        in
        match run vfs "import pkg" with
        | _ -> Alcotest.fail "expected ImportError"
        | exception Minipy.Value.Py_error e ->
          Alcotest.(check string) "class" "ImportError" e.Minipy.Value.exc_class);
    Alcotest.test_case "relative import round-trips through pretty" `Quick
      (fun () ->
        let src = "from . import a\nfrom .b import c, d as e\nfrom ..up import f\n" in
        let p1 = Minipy.Parser.parse ~file:"<t>" src in
        let printed = Minipy.Pretty.program_to_string p1 in
        Alcotest.(check string) "canonical" src printed);
    Alcotest.test_case "pycg resolves relative with module context" `Quick
      (fun () ->
        let prog =
          Minipy.Parser.parse ~file:"<t>" "from ._core import f0, f1\n"
        in
        let r =
          Callgraph.Pycg.analyze ~current_module:"pkg" ~is_package:true prog
        in
        Alcotest.(check bool) "f0 on pkg._core" true
          (Callgraph.Pycg.String_set.mem "f0"
             (Callgraph.Pycg.String_map.find "pkg._core" r.accessed)));
    Alcotest.test_case "debloater trims relative from-imports per name" `Quick
      (fun () ->
        let vfs =
          make_vfs
            [ ("site-packages/pkg/__init__.py", "from ._core import used, unused\n");
              ("site-packages/pkg/_core.py",
               "def used():\n  return 1\ndef unused():\n  return 2\n") ]
        in
        Minipy.Vfs.add_file vfs "handler.py"
          "import pkg\ndef handler(event, context):\n  return pkg.used()\n";
        let app =
          Platform.Deployment.make ~name:"rel" ~vfs ~handler_file:"handler.py"
            ~handler_name:"handler"
            ~test_cases:[ Platform.Deployment.test_case ~name:"t" "{}" ]
        in
        let oracle, _ = Trim.Oracle.for_reference app in
        let d', r =
          Trim.Debloater.debloat_module ~oracle
            ~protected:Trim.Debloater.String_set.empty app ~module_name:"pkg"
        in
        Alcotest.(check bool) "unused removed" true
          (List.mem "unused" r.Trim.Debloater.removed_attrs);
        Alcotest.(check bool) "still passes" true (oracle d')) ]

(* The read recorder (Interp.create ?on_read): which module-level names a
   run reads, the debloater's profile seed. Each name of [rec] below is
   reached through exactly one mechanism. *)
let recorder_vfs =
  make_vfs
    [ ("site-packages/rec/__init__.py",
       "a_self = 1\n\
        b_self = a_self + 1\n\
        c_global = 10\n\
        def f_fn(x):\n  local = x + 1\n  return local + c_global\n\
        class K:\n  k_attr = 5\n  k_attr2 = k_attr + 1\n\
        \  def get(self):\n    return self.k_attr\n\
        d_from = 3\n\
        e_attr = 4\n\
        never = 0\n");
      ("site-packages/rec/sub.py", "leaf = 1\nunread = 2\n") ]

let recorder_main =
  "import rec\n\
   from rec import d_from\n\
   x = rec.e_attr\n\
   y = rec.f_fn(1)\n\
   z = rec.K().get()\n\
   s = rec.sub.leaf\n\
   n = len([d_from])\n\
   print(x, y, z, s, n)\n"

let run_recorded ?on_read () =
  let t = Interp.create ?on_read recorder_vfs in
  ignore (Interp.exec_main t (Parser.parse ~file:"<main>" recorder_main));
  t

let read_recorder =
  [ Alcotest.test_case "module-level reads are recorded, nothing else" `Quick
      (fun () ->
        let reads = Hashtbl.create 16 in
        let on_read m a = Hashtbl.replace reads (m, a) () in
        ignore (run_recorded ~on_read ());
        let of_module m =
          Hashtbl.fold (fun (m', a) () acc -> if m' = m then a :: acc else acc)
            reads []
          |> List.sort compare
        in
        (* a_self: module-level self-read; c_global: global read from a
           module function; d_from: from-import; e_attr, f_fn, K: getattr;
           sub: submodule attribute. Not reads: locals (x, local), class
           attributes (k_attr), builtins (len), unread names. *)
        Alcotest.(check (list string)) "rec"
          [ "K"; "a_self"; "c_global"; "d_from"; "e_attr"; "f_fn"; "sub" ]
          (of_module "rec");
        Alcotest.(check (list string)) "rec.sub" [ "leaf" ]
          (of_module "rec.sub"));
    Alcotest.test_case "recording moves no tick" `Quick (fun () ->
        let off = run_recorded () in
        let calls = ref 0 in
        let on = run_recorded ~on_read:(fun _ _ -> incr calls) () in
        Alcotest.(check bool) "recorder called" true (!calls > 0);
        Alcotest.(check (float 0.0)) "vtime" off.Interp.vtime_ms
          on.Interp.vtime_ms;
        Alcotest.(check int) "steps" off.Interp.steps on.Interp.steps;
        Alcotest.(check int) "heap" off.Interp.heap_bytes on.Interp.heap_bytes;
        Alcotest.(check string) "stdout" (Interp.stdout_contents off)
          (Interp.stdout_contents on)) ]

let suite =
  [ ("importer.resolution", resolution);
    ("importer.importing", importing);
    ("importer.caching", caching);
    ("importer.hooks", hooks);
    ("importer.errors", errors);
    ("importer.relative", relative_imports);
    ("importer.read_recorder", read_recorder) ]
