(* Parser: statement/expression structure, errors, and locations. *)

open Minipy

let parse src = Parser.parse ~file:"<t>" src

let parses name src =
  Alcotest.test_case name `Quick (fun () -> ignore (parse src))

(* Check the parse of [src] against its canonical re-print. *)
let check_pp name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (Pretty.program_to_string (parse src)))

let fails name src =
  Alcotest.test_case name `Quick (fun () ->
      match parse src with
      | _ -> Alcotest.fail "expected parse error"
      | exception Parser.Error _ -> ()
      | exception Lexer.Error _ -> ())

let statements =
  [ check_pp "assignment" "x = 1" "x = 1\n";
    check_pp "aug assign" "x += 2" "x += 2\n";
    check_pp "import" "import torch" "import torch\n";
    check_pp "import dotted" "import torch.nn" "import torch.nn\n";
    check_pp "import as" "import numpy as np" "import numpy as np\n";
    check_pp "from import" "from torch.nn import Linear"
      "from torch.nn import Linear\n";
    check_pp "from import many" "from torch import add, view"
      "from torch import add, view\n";
    check_pp "from import as" "from torch import tensor as t"
      "from torch import tensor as t\n";
    check_pp "from import parens" "from torch import (add,\n    view)"
      "from torch import add, view\n";
    check_pp "def" "def f(x, y=1):\n  return x + y"
      "def f(x, y=1):\n  return x + y\n";
    check_pp "class" "class A(B):\n  def m(self):\n    pass"
      "class A(B):\n  def m(self):\n    pass\n";
    check_pp "empty class body" "class A:\n  pass" "class A:\n  pass\n";
    check_pp "if elif else"
      "if a:\n  x = 1\nelif b:\n  x = 2\nelse:\n  x = 3"
      "if a:\n  x = 1\nelif b:\n  x = 2\nelse:\n  x = 3\n";
    check_pp "while" "while x < 3:\n  x += 1" "while x < 3:\n  x += 1\n";
    check_pp "for" "for i in xs:\n  print(i)" "for i in xs:\n  print(i)\n";
    check_pp "for tuple target" "for k, v in d.items():\n  pass"
      "for k, v in d.items():\n  pass\n";
    check_pp "try except as"
      "try:\n  f()\nexcept ValueError as e:\n  pass"
      "try:\n  f()\nexcept ValueError as e:\n  pass\n";
    check_pp "try finally" "try:\n  f()\nfinally:\n  g()"
      "try:\n  f()\nfinally:\n  g()\n";
    check_pp "bare except" "try:\n  f()\nexcept:\n  pass"
      "try:\n  f()\nexcept:\n  pass\n";
    check_pp "raise" "raise ValueError(\"x\")" "raise ValueError(\"x\")\n";
    check_pp "global" "def f():\n  global a, b\n  a = 1"
      "def f():\n  global a, b\n  a = 1\n";
    check_pp "del" "del d[\"k\"]" "del d[\"k\"]\n";
    check_pp "assert with msg" "assert x, \"bad\"" "assert x, \"bad\"\n";
    check_pp "semicolons" "a = 1; b = 2" "a = 1\nb = 2\n";
    check_pp "tuple assign" "a, b = 1, 2" "a, b = (1, 2)\n";
    check_pp "attr target" "obj.field = 3" "obj.field = 3\n";
    check_pp "subscript target" "xs[0] = 3" "xs[0] = 3\n";
    check_pp "decorator discarded" "@decorate\ndef f():\n  pass"
      "def f():\n  pass\n";
    check_pp "return tuple" "def f():\n  return 1, 2"
      "def f():\n  return (1, 2)\n" ]

let expressions =
  [ check_pp "call kwargs" "f(1, x=2)" "f(1, x=2)\n";
    check_pp "nested call" "f(g(x))" "f(g(x))\n";
    check_pp "method chain" "a.b.c(1)" "a.b.c(1)\n";
    check_pp "subscript chain" "m[\"a\"][0]" "m[\"a\"][0]\n";
    check_pp "precedence kept" "x = 1 + 2 * 3" "x = 1 + 2 * 3\n";
    check_pp "parens preserved structurally" "x = (1 + 2) * 3" "x = (1 + 2) * 3\n";
    check_pp "unary" "x = -y + +z" "x = -y + +z\n";
    check_pp "not and or" "x = not a and b or c" "x = not a and b or c\n";
    check_pp "comparison" "b = x <= y" "b = x <= y\n";
    check_pp "in" "b = x in xs" "b = x in xs\n";
    check_pp "not in" "b = x not in xs" "b = x not in xs\n";
    check_pp "lambda" "f = lambda x, y: x + y" "f = lambda x, y: x + y\n";
    check_pp "ternary" "v = a if c else b" "v = a if c else b\n";
    check_pp "list" "xs = [1, 2, 3]" "xs = [1, 2, 3]\n";
    check_pp "empty tuple" "t = ()" "t = ()\n";
    check_pp "singleton tuple" "t = (1,)" "t = (1,)\n";
    check_pp "dict" "d = {\"a\": 1, \"b\": 2}" "d = {\"a\": 1, \"b\": 2}\n";
    check_pp "empty dict" "d = {}" "d = {}\n";
    check_pp "pow" "y = x ** 2" "y = x ** 2\n";
    check_pp "floor div" "y = x // 2" "y = x // 2\n" ]

let error_cases =
  [ fails "unclosed paren" "f(1";
    fails "bad target" "1 = x";
    fails "missing colon" "if x\n  y";
    fails "stray indent keywordless" "return return";
    fails "bad from import" "from import x" ]

let locations =
  [ Alcotest.test_case "statement locations recorded" `Quick (fun () ->
        match parse "x = 1\ny = 2\n" with
        | [ s1; s2 ] ->
          Alcotest.(check int) "line 1" 1 s1.Ast.sloc.Loc.line;
          Alcotest.(check int) "line 2" 2 s2.Ast.sloc.Loc.line
        | _ -> Alcotest.fail "expected two statements") ]

let suite =
  [ ("parser.statements", statements);
    ("parser.expressions", expressions);
    ("parser.errors", error_cases);
    ("parser.locations", locations) ]
