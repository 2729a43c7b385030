(* Attribute enumeration and module rewriting (§6.1, Figure 7). *)

open Trim

let parse src = Minipy.Parser.parse ~file:"<t>" src

let attrs src = Attrs.attrs_of_program (parse src)

let restrict src keep =
  let keep =
    List.fold_left (fun s x -> Attrs.String_set.add x s) Attrs.String_set.empty keep
  in
  Minipy.Pretty.program_to_string (Attrs.restrict (parse src) ~keep)

let fig7_module =
  "from torch.nn import Linear, MSELoss\n\
   from torch.optim import SGD\n\
   class tensor:\n\
  \  def __init__(self, data):\n\
  \    self.data = data\n\
   def add(t1, t2):\n\
  \  return t1\n\
   def view(t, dim1, dim2):\n\
  \  return t\n"

let enumeration =
  [ Alcotest.test_case "all binding kinds enumerated" `Quick (fun () ->
        Alcotest.(check (list string)) "attrs"
          [ "Linear"; "MSELoss"; "SGD"; "tensor"; "add"; "view" ]
          (attrs fig7_module));
    Alcotest.test_case "import binds root or alias" `Quick (fun () ->
        Alcotest.(check (list string)) "attrs" [ "numpy"; "t" ]
          (attrs "import numpy\nimport torch.nn as t\n"));
    Alcotest.test_case "dotted import binds root" `Quick (fun () ->
        Alcotest.(check (list string)) "attrs" [ "torch" ] (attrs "import torch.nn\n"));
    Alcotest.test_case "assign binds name" `Quick (fun () ->
        Alcotest.(check (list string)) "attrs" [ "version"; "a"; "b" ]
          (attrs "version = 3\na, b = 1, 2\n"));
    Alcotest.test_case "magic attrs excluded" `Quick (fun () ->
        Alcotest.(check (list string)) "attrs" [ "x" ]
          (attrs "__version__ = \"1.0\"\n__all__ = []\nx = 1\n"));
    Alcotest.test_case "duplicates collapse" `Quick (fun () ->
        Alcotest.(check (list string)) "attrs" [ "x"; "y" ]
          (attrs "x = 1\ny = 2\nx = 3\n"));
    Alcotest.test_case "non-binding statements contribute nothing" `Quick
      (fun () ->
        Alcotest.(check (list string)) "attrs" []
          (attrs "import simrt\nsimrt.cpu_ms(5)\nif True:\n  pass\n" |> List.tl));
    Alcotest.test_case "is_magic" `Quick (fun () ->
        Alcotest.(check bool) "__name__" true (Attrs.is_magic "__name__");
        Alcotest.(check bool) "__x__" true (Attrs.is_magic "__x__");
        Alcotest.(check bool) "_x_" false (Attrs.is_magic "_x_");
        Alcotest.(check bool) "plain" false (Attrs.is_magic "plain");
        Alcotest.(check bool) "dunder-prefix only" false (Attrs.is_magic "__init"))
  ]

let rewriting =
  [ Alcotest.test_case "fig7 debloat drops MSELoss and SGD" `Quick (fun () ->
        let out = restrict fig7_module [ "Linear"; "tensor"; "add"; "view" ] in
        Alcotest.(check string) "rewritten"
          "from torch.nn import Linear\n\
           class tensor:\n\
          \  def __init__(self, data):\n\
          \    self.data = data\n\
           def add(t1, t2):\n\
          \  return t1\n\
           def view(t, dim1, dim2):\n\
          \  return t\n"
          out);
    Alcotest.test_case "from-import filtered name by name" `Quick (fun () ->
        Alcotest.(check string) "kept b only" "from m import b\n"
          (restrict "from m import a, b, c\n" [ "b" ]));
    Alcotest.test_case "whole from-import dropped when no name kept" `Quick
      (fun () ->
        Alcotest.(check string) "empty module prints pass" "pass\n"
          (restrict "from m import a, b\n" []));
    Alcotest.test_case "plain import dropped when unbound" `Quick (fun () ->
        Alcotest.(check string) "kept" "import numpy\n"
          (restrict "import numpy\nimport torch\n" [ "numpy" ]));
    Alcotest.test_case "magic assignments always survive" `Quick (fun () ->
        Alcotest.(check string) "kept" "__version__ = \"9\"\n"
          (restrict "__version__ = \"9\"\nx = 1\n" []));
    Alcotest.test_case "expression statements always survive" `Quick (fun () ->
        Alcotest.(check string) "kept"
          "import simrt\nsimrt.cpu_ms(10)\n"
          (restrict "import simrt\nsimrt.cpu_ms(10)\nx = 2\n" [ "simrt" ]));
    Alcotest.test_case "restrict to everything is identity modulo format" `Quick
      (fun () ->
        let all = attrs fig7_module in
        let out = restrict fig7_module all in
        Alcotest.(check bool) "same program" true
          (Ast_ref.program_equal (parse fig7_module) (parse out)));
    Alcotest.test_case "restricted module still parses and runs" `Quick (fun () ->
        let vfs = Minipy.Vfs.create () in
        Minipy.Vfs.add_file vfs "site-packages/m/__init__.py"
          (restrict "def f():\n  return 41\ndef g():\n  return f() + 1\nz = 0\n"
             [ "f"; "g" ]);
        let t = Minipy.Interp.create vfs in
        ignore
          (Minipy.Interp.exec_main t
             (Minipy.Parser.parse ~file:"<m>" "from m import g\nprint(g())"));
        Alcotest.(check string) "output" "42\n" (Minipy.Interp.stdout_contents t))
  ]

let suite = [ ("attrs.enumeration", enumeration); ("attrs.rewriting", rewriting) ]
