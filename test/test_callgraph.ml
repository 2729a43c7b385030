(* Static analyzer: import scan and PyCG-style accessed-attribute analysis. *)

module SS = Callgraph.Pycg.String_set

let parse src = Minipy.Parser.parse ~file:"<t>" src

let sorted_set s = List.sort compare (SS.elements s)

(* attributes the analysis recorded on [modname] *)
let accessed_attrs (r : Callgraph.Pycg.result) modname =
  Option.value ~default:SS.empty
    (Callgraph.Pycg.String_map.find_opt modname r.accessed)

let import_scan =
  [ Alcotest.test_case "collects plain and from imports" `Quick (fun () ->
        let prog =
          parse
            "import torch\nimport numpy as np\nfrom torch.nn import Linear, MSELoss\n"
        in
        Alcotest.(check (list string)) "roots" [ "numpy"; "torch" ]
          (Callgraph.Import_scan.root_modules prog));
    Alcotest.test_case "finds imports inside functions" `Quick (fun () ->
        let prog =
          parse "def handler(event, context):\n  import boto3\n  return boto3\n"
        in
        Alcotest.(check (list string)) "roots" [ "boto3" ]
          (Callgraph.Import_scan.root_modules prog));
    Alcotest.test_case "finds imports in try blocks" `Quick (fun () ->
        let prog =
          parse "try:\n  import fast_json\nexcept ImportError:\n  import slow_json\n"
        in
        Alcotest.(check (list string)) "roots" [ "fast_json"; "slow_json" ]
          (Callgraph.Import_scan.root_modules prog));
    Alcotest.test_case "simrt excluded from roots" `Quick (fun () ->
        let prog = parse "import simrt\nimport torch\n" in
        Alcotest.(check (list string)) "roots" [ "torch" ]
          (Callgraph.Import_scan.root_modules prog));
    Alcotest.test_case "dotted modules recorded" `Quick (fun () ->
        let prog = parse "import torch.nn\nfrom torch.optim import SGD\n" in
        Alcotest.(check (list string)) "dotted" [ "torch.nn"; "torch.optim" ]
          (Callgraph.Import_scan.dotted_modules prog)) ]

let accessed =
  [ Alcotest.test_case "direct attribute accesses" `Quick (fun () ->
        let prog = parse "import torch\nx = torch.tensor([1])\ny = torch.add(x, x)\n" in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check (list string)) "attrs" [ "add"; "tensor" ]
          (sorted_set (accessed_attrs r "torch")));
    Alcotest.test_case "submodule attribute accesses" `Quick (fun () ->
        let prog = parse "import torch\nm = torch.nn.Linear(2, 1)\n" in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check (list string)) "torch attrs" [ "nn" ]
          (sorted_set (accessed_attrs r "torch"));
        Alcotest.(check (list string)) "torch.nn attrs" [ "Linear" ]
          (sorted_set (accessed_attrs r "torch.nn")));
    Alcotest.test_case "alias tracking" `Quick (fun () ->
        let prog = parse "import numpy as np\na = np.array([1, 2])\n" in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check (list string)) "numpy attrs" [ "array" ]
          (sorted_set (accessed_attrs r "numpy")));
    Alcotest.test_case "assignment alias propagation" `Quick (fun () ->
        let prog = parse "import torch\nt = torch\nx = t.tensor([1])\n" in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check bool) "tensor accessed" true
          (SS.mem "tensor" (accessed_attrs r "torch")));
    Alcotest.test_case "from import counts as access" `Quick (fun () ->
        let prog = parse "from torch import tensor, add\n" in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check (list string)) "attrs" [ "add"; "tensor" ]
          (sorted_set (accessed_attrs r "torch")));
    Alcotest.test_case "accesses inside function bodies" `Quick (fun () ->
        let prog =
          parse "import torch\ndef handler(e, c):\n  return torch.view(e, 2, 1)\n"
        in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check bool) "view accessed" true
          (SS.mem "view" (accessed_attrs r "torch")));
    Alcotest.test_case "accessed_under unions submodules" `Quick (fun () ->
        let prog =
          parse "import torch\nm = torch.nn.Linear(1, 1)\nx = torch.tensor([1])\n"
        in
        let r = Callgraph.Pycg.analyze prog in
        Alcotest.(check (list string)) "under torch" [ "Linear"; "nn"; "tensor" ]
          (sorted_set (Callgraph.Pycg.accessed_under r "torch")));
    Alcotest.test_case "fig5 example accesses" `Quick (fun () ->
        (* the running example of §6.2: MSELoss and SGD are never accessed *)
        let prog =
          parse
            "import torch\n\
             x = torch.tensor([1.0, 2.0])\n\
             y = torch.tensor([3.0, 4.0])\n\
             z = torch.view(torch.add(x, y), 2, 1)\n\
             model = torch.nn.Linear(2, 1)\n\
             print(model(z))\n"
        in
        let r = Callgraph.Pycg.analyze prog in
        let torch_attrs = Callgraph.Pycg.accessed_under r "torch" in
        Alcotest.(check bool) "tensor" true (SS.mem "tensor" torch_attrs);
        Alcotest.(check bool) "add" true (SS.mem "add" torch_attrs);
        Alcotest.(check bool) "view" true (SS.mem "view" torch_attrs);
        Alcotest.(check bool) "Linear" true (SS.mem "Linear" torch_attrs);
        Alcotest.(check bool) "MSELoss not accessed" false (SS.mem "MSELoss" torch_attrs);
        Alcotest.(check bool) "SGD not accessed" false (SS.mem "SGD" torch_attrs)) ]

(* [referenced_names] is the question the Vulture and FaaSLight baselines
   ask of a top-level binding: does any expression anywhere name it? *)
let referenced =
  let refs src = Callgraph.Pycg.referenced_names (parse src) in
  [ Alcotest.test_case "names called in def bodies are referenced" `Quick
      (fun () ->
        let r =
          refs
            "def helper_a():\n  return 1\n\
             def helper_b():\n  return helper_a()\n\
             def unused():\n  return 2\n\
             def handler(e, c):\n  return helper_b()\n"
        in
        Alcotest.(check bool) "helper_b" true (SS.mem "helper_b" r);
        Alcotest.(check bool) "helper_a (from helper_b's body)" true
          (SS.mem "helper_a" r);
        Alcotest.(check bool) "unused only defined" false (SS.mem "unused" r);
        Alcotest.(check bool) "handler only defined" false
          (SS.mem "handler" r));
    Alcotest.test_case "a function passed as a value is referenced" `Quick
      (fun () ->
        let r =
          refs "def cb():\n  return 1\ndef handler(e, c):\n  return apply(cb)\n"
        in
        Alcotest.(check bool) "cb" true (SS.mem "cb" r));
    Alcotest.test_case "mutually recursive defs reference each other" `Quick
      (fun () ->
        let r =
          refs
            "def ping():\n  return pong()\ndef pong():\n  return ping()\n\
             def handler(e, c):\n  return 0\n"
        in
        (* no reachability: a cycle nothing enters still counts as used *)
        Alcotest.(check (list string)) "both" [ "ping"; "pong" ]
          (List.filter (fun n -> SS.mem n r) [ "handler"; "ping"; "pong" ]));
    Alcotest.test_case "defaults, bases, conditions and dead branches count"
      `Quick (fun () ->
        let r =
          refs
            "def f(x=DEFAULT):\n  return x\n\
             class C(Base):\n  pass\n\
             if FLAG:\n  y = 1\n\
             else:\n  y = 2\n\
             if False:\n  z = dead_ref()\n\
             for i in ITEMS:\n  pass\n\
             while COND:\n  pass\n"
        in
        List.iter
          (fun n -> Alcotest.(check bool) n true (SS.mem n r))
          [ "DEFAULT"; "Base"; "FLAG"; "dead_ref"; "ITEMS"; "COND" ];
        List.iter
          (fun n -> Alcotest.(check bool) (n ^ " is only bound") false (SS.mem n r))
          [ "f"; "C"; "y"; "z"; "i" ]) ]

let suite =
  [ ("callgraph.import_scan", import_scan);
    ("callgraph.accessed", accessed);
    ("callgraph.referenced_names", referenced) ]
