(* Pretty-printer: parse . print round-trips structurally. *)

open Minipy

let parse src = Parser.parse ~file:"<t>" src

let roundtrip name src =
  Alcotest.test_case name `Quick (fun () ->
      let p1 = parse src in
      let printed = Pretty.program_to_string p1 in
      let p2 =
        try parse printed
        with e ->
          Alcotest.failf "re-parse of %S failed: %s" printed (Printexc.to_string e)
      in
      if not (Ast.program_equal p1 p2) then
        Alcotest.failf "round-trip changed structure:\n--- source\n%s\n--- printed\n%s"
          src printed)

let cases =
  [ roundtrip "module shaped like fig7"
      "from torch.nn import Linear, MSELoss\n\
       from torch.optim import SGD\n\
       class tensor:\n\
      \  def __init__(self, data):\n\
      \    self.data = data\n\
       def add(t1, t2):\n\
      \  return tensor(t1.data + t2.data)\n\
       def view(t, dim1, dim2):\n\
      \  return t\n";
    roundtrip "handler module"
      "import boto3\n\
       session = boto3.Session(key=\"a\", secret=\"b\")\n\
       def handler_name(event, context):\n\
      \  body = event[\"body\"]\n\
      \  return {\"status\": 200, \"body\": body}\n";
    roundtrip "deep nesting"
      "def f(x):\n\
      \  if x > 0:\n\
      \    for i in range(x):\n\
      \      while i > 0:\n\
      \        i -= 1\n\
      \        if i == 2:\n\
      \          break\n\
      \  return x\n";
    roundtrip "operators galore"
      "y = 1 + 2 * 3 - 4 / 5 % 6 // 7 ** 8\n\
       z = not a and (b or c) == (d != e)\n\
       w = -x ** 2\n\
       v = (a + b) * (c - d)\n";
    roundtrip "containers"
      "cfg = {\"a\": [1, 2, (3, 4)], \"b\": {\"c\": ()}}\n\
       t = (1,)\n\
       xs = [[1], [2, 3]]\n";
    roundtrip "try except finally"
      "try:\n\
      \  risky()\n\
       except ValueError as e:\n\
      \  handle(e)\n\
       except:\n\
      \  pass\n\
       finally:\n\
      \  cleanup()\n";
    roundtrip "ternary and lambda"
      "choose = lambda c, a, b: a if c else b\n\
       v = choose(True, 1, 2)\n";
    roundtrip "class with bases and attrs"
      "class Model(Base, Mixin):\n\
      \  version = 3\n\
      \  def run(self, x=1, y=2):\n\
      \    return self.version + x + y\n";
    roundtrip "del global assert"
      "def f():\n\
      \  global registry\n\
      \  registry = {}\n\
      \  del registry\n\
      \  assert True, \"never\"\n";
    roundtrip "empty collections and none"
      "a = None\nb = ()\nc = []\nd = {}\ne = True\nf = False\n" ]

let escaping =
  [ Alcotest.test_case "string escapes survive round-trip" `Quick (fun () ->
        let p1 = parse "s = \"line1\\nline2\\t\\\"quoted\\\"\"" in
        let p2 = parse (Pretty.program_to_string p1) in
        Alcotest.(check bool) "equal" true (Ast.program_equal p1 p2)) ]

(* The two places where [parse (print p)] is not [p]. Neither reaches the
   debloater's write path: [[]] is stored as [[Pass]] there, and the parser
   never produces a negative constant. *)
let edge_cases =
  [ Alcotest.test_case "empty program prints as pass, reparses as [Pass]"
      `Quick (fun () ->
        Alcotest.(check string) "printed" "pass\n" (Pretty.program_to_string []);
        Alcotest.(check bool) "reparsed" true
          (Ast.program_equal [ Ast.s Ast.Pass ]
             (parse (Pretty.program_to_string []))));
    Alcotest.test_case "hand-built negative int reparses as a negation" `Quick
      (fun () ->
        let p = [ Ast.s (Ast.Expr_stmt (Ast.e (Ast.Const (Ast.Cint (-5))))) ] in
        Alcotest.(check string) "printed" "(-5)\n" (Pretty.program_to_string p);
        Alcotest.(check bool) "reparsed" true
          (Ast.program_equal
             [ Ast.s
                 (Ast.Expr_stmt
                    (Ast.e (Ast.Unop (Ast.Neg, Ast.e (Ast.Const (Ast.Cint 5))))))
             ]
             (parse (Pretty.program_to_string p)));
        Alcotest.(check bool) "parser output of \"-5\" round-trips" true
          (let q = parse "-5\n" in
           Ast.program_equal q (parse (Pretty.program_to_string q)))) ]

let suite =
  [ ("pretty.roundtrip", cases);
    ("pretty.escaping", escaping);
    ("pretty.edge_cases", edge_cases) ]
