(* Deeper interpreter semantics: scoping, class machinery, exception edge
   cases, iteration protocols, and builtin corner cases. *)

open Minipy

let run src =
  let t = Interp.create (Vfs.create ()) in
  ignore (Interp.exec_main t (Parser.parse ~file:"<sem>" src));
  Interp.stdout_contents t

let check_out name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (run src))

let check_raises name src exc_class =
  Alcotest.test_case name `Quick (fun () ->
      match run src with
      | _ -> Alcotest.failf "%s: expected %s" name exc_class
      | exception Value.Py_error e ->
        Alcotest.(check string) name exc_class e.Value.exc_class)

let scoping =
  [ check_out "function locals shadow globals"
      "x = 1\ndef f():\n  x = 2\n  return x\nprint(f(), x)" "2 1\n";
    check_out "reading global without declaration"
      "x = 10\ndef f():\n  return x + 1\nprint(f())" "11\n";
    check_out "global declaration writes through"
      "x = 1\ndef f():\n  global x\n  x = 5\nf()\nprint(x)" "5\n";
    check_out "parameters are local"
      "x = 1\ndef f(x):\n  x = x + 1\n  return x\nprint(f(10), x)" "11 1\n";
    check_out "defaults evaluated at def time"
      "base = 10\ndef f(x=base):\n  return x\nbase = 99\nprint(f())" "10\n";
    check_out "closure sees later globals"
      "def f():\n  return later()\ndef later():\n  return 7\nprint(f())" "7\n";
    check_out "loop variable persists after loop"
      "for i in range(3):\n  pass\nprint(i)" "2\n";
    check_out "comprehension target is function-local here"
      "xs = [i * 2 for i in range(3)]\nprint(xs, i)" "[0, 2, 4] 2\n";
    check_raises "function local not visible outside"
      "def f():\n  inner = 1\nf()\nprint(inner)" "NameError" ]

let class_machinery =
  [ check_out "method resolution prefers instance attr"
      "class A:\n\
      \  def tag(self):\n\
      \    return \"method\"\n\
       a = A()\n\
       a.tag = lambda: \"attr\"\n\
       print(a.tag())"
      "attr\n";
    check_out "class attrs shared, instance attrs own"
      "class C:\n\
      \  count = 0\n\
       a = C()\n\
       b = C()\n\
       a.count = 5\n\
       print(a.count, b.count, C.count)"
      "5 0 0\n";
    check_out "multiple inheritance left to right"
      "class L:\n\
      \  def who(self):\n\
      \    return \"L\"\n\
       class R:\n\
      \  def who(self):\n\
      \    return \"R\"\n\
       class C(L, R):\n\
      \  pass\n\
       print(C().who())"
      "L\n";
    check_out "methods can call other methods via self"
      "class Acc:\n\
      \  def __init__(self):\n\
      \    self.total = 0\n\
      \  def add(self, x):\n\
      \    self.total = self.total + x\n\
      \    return self.total\n\
      \  def add_twice(self, x):\n\
      \    self.add(x)\n\
      \    return self.add(x)\n\
       print(Acc().add_twice(3))"
      "6\n";
    check_out "grandparent methods reachable"
      "class A:\n\
      \  def root(self):\n\
      \    return 1\n\
       class B(A):\n\
      \  pass\n\
       class C(B):\n\
      \  pass\n\
       print(C().root())"
      "1\n";
    check_raises "instance not callable without __call__"
      "class A:\n  pass\nA()()" "TypeError";
    check_raises "instantiating with wrong arity"
      "class A:\n  def __init__(self, x):\n    self.x = x\nA()" "TypeError" ]

let exceptions =
  [ check_out "finally ordering with return"
      "def f():\n\
      \  try:\n\
      \    return \"try\"\n\
      \  finally:\n\
      \    print(\"fin\")\n\
       print(f())"
      "fin\ntry\n";
    check_out "nested handlers pick innermost"
      "try:\n\
      \  try:\n\
      \    raise ValueError(\"inner\")\n\
      \  except ValueError:\n\
      \    print(\"inner handler\")\n\
       except ValueError:\n\
      \  print(\"outer handler\")"
      "inner handler\n";
    check_out "exception in handler propagates"
      "try:\n\
      \  try:\n\
      \    raise ValueError(\"a\")\n\
      \  except ValueError:\n\
      \    raise KeyError(\"b\")\n\
       except KeyError:\n\
      \  print(\"outer caught b\")"
      "outer caught b\n";
    check_out "loop break through try-finally"
      "for i in range(5):\n\
      \  try:\n\
      \    if i == 1:\n\
      \      break\n\
      \  finally:\n\
      \    print(\"fin\", i)\n\
       print(\"done\")"
      "fin 0\nfin 1\ndone\n";
    check_out "exception value accessible via args"
      "try:\n  raise ValueError(\"boom\")\nexcept ValueError as e:\n  print(e.args)"
      "('boom',)\n";
    check_out "raising a string wraps it"
      "try:\n  raise \"plain\"\nexcept Exception as e:\n  print(e)"
      "Exception('plain')\n";
    check_raises "finally runs then original propagates"
      "try:\n  raise KeyError(\"k\")\nfinally:\n  pass" "KeyError" ]

let iteration =
  [ check_out "for over dict yields keys"
      "d = {\"a\": 1, \"b\": 2}\nfor k in d:\n  print(k)" "a\nb\n";
    check_out "for over string yields chars"
      "for c in \"ab\":\n  print(c)" "a\nb\n";
    check_out "nested unpack in for"
      "for a, b in [(1, 2), (3, 4)]:\n  print(a + b)" "3\n7\n";
    check_out "mutating list during building"
      "xs = []\nfor i in range(3):\n  xs.append(xs[:])\nprint(xs)"
      "[[], [[]], [[], [[]]]]\n";
    check_raises "unpack arity mismatch"
      "a, b = [1, 2, 3]" "ValueError";
    check_raises "iterating a number" "for x in 5:\n  pass" "TypeError" ]

let builtins_corner =
  [ check_out "str of containers"
      "print(str([1, 2]), str({\"a\": None}))" "[1, 2] {'a': None}\n";
    check_out "int conversions"
      "print(int(\"42\"), int(3.9), int(True))" "42 3 1\n";
    check_out "bool conversions"
      "print(bool([]), bool(\"x\"), bool(0.0))" "False True False\n";
    check_out "sorted leaves original alone"
      "xs = [3, 1]\nys = sorted(xs)\nprint(xs, ys)" "[3, 1] [1, 3]\n";
    check_out "min max on strings" "print(min(\"cab\"), max(\"cab\"))" "a c\n";
    check_out "sum of floats" "print(sum([0.5, 0.25]))" "0.75\n";
    check_out "len of empty containers"
      "print(len(\"\"), len([]), len({}), len(()))" "0 0 0 0\n";
    check_out "range negative step" "print(range(5, 0, -2))" "[5, 3, 1]\n";
    check_out "hasattr on module"
      "import json\nprint(hasattr(json, \"dumps\"), hasattr(json, \"nope\"))"
      "True False\n";
    check_out "print sep and end kwargs"
      "print(1, 2, sep=\"-\", end=\"!\")\nprint(3)" "1-2!3\n";
    check_raises "int of garbage" "int(\"xyz\")" "ValueError";
    check_raises "min of empty" "min([])" "ValueError";
    check_raises "range zero step" "range(1, 2, 0)" "ValueError" ]

let int_conversion_fix =
  (* int(True) prints as True because bools are ints in display? no:
     int(True) must be 1 *)
  [ Alcotest.test_case "int(True) is 1" `Quick (fun () ->
        Alcotest.(check string) "one" "1\n" (run "print(int(True))")) ]



let chained_comparisons =
  [ check_out "ascending chain" "print(1 < 2 < 3, 1 < 3 < 2)" "True False\n";
    check_out "mixed ops" "print(1 <= 1 < 2, 3 > 2 > 2)" "True False\n";
    check_out "equality chain" "print(1 == 1 == 1, 1 == 1 == 2)" "True False\n";
    check_out "chain in condition"
      "x = 5\nif 0 < x < 10:\n  print(\"in range\")" "in range\n";
    check_out "explicit parens keep old meaning"
      "print((1 < 2) == True)" "True\n";
    Alcotest.test_case "chain round-trips" `Quick (fun () ->
        let p1 = Parser.parse ~file:"<t>" "b = 0 < x < 10\n" in
        let p2 =
          Parser.parse ~file:"<t>" (Pretty.program_to_string p1)
        in
        Alcotest.(check bool) "equal" true (Ast_ref.program_equal p1 p2)) ]

let suite =
  [ ("semantics.scoping", scoping);
    ("semantics.classes", class_machinery);
    ("semantics.exceptions", exceptions);
    ("semantics.iteration", iteration);
    ("semantics.builtins", builtins_corner);
    ("semantics.int_conversion", int_conversion_fix);
    ("semantics.chained_comparisons", chained_comparisons) ]
