(* Quickstart: the paper's running example (§6.2, Figures 5-7).

   We build the simplified `torch` library and the application of Figure 5,
   then run λ-trim and watch Delta Debugging discover that torch.nn.MSELoss
   and torch.optim.SGD are redundant.

     dune exec examples/quickstart.exe *)

let torch_init =
  "from torch.nn import Linear, MSELoss\n\
   from torch.optim import SGD\n\
   import simrt\n\
   simrt.cpu_ms(40)\n\
   class tensor:\n\
  \  def __init__(self, data):\n\
  \    self.data = data\n\
   def add(t1, t2):\n\
  \  return tensor(t1.data + t2.data)\n\
   def view(t, dim1, dim2):\n\
  \  return tensor(t.data)\n"

let torch_nn =
  "import simrt\n\
   simrt.cpu_ms(80)\n\
   simrt.alloc_mb(24)\n\
   class Linear:\n\
  \  def __init__(self, n_in, n_out):\n\
  \    self.n_in = n_in\n\
  \    self.n_out = n_out\n\
  \    self.weights = None\n\
  \    self.bias = None\n\
  \  def __call__(self, x):\n\
  \    return x.data * self.n_in + self.n_out\n\
   class MSELoss:\n\
  \  def __init__(self):\n\
  \    simrt.alloc_mb(16)\n\
   mse_tables = []\n\
   simrt.alloc_mb(12)\n"

let torch_optim =
  "import simrt\n\
   simrt.cpu_ms(120)\n\
   simrt.alloc_mb(32)\n\
   class SGD:\n\
  \  def __init__(self, params, lr=0.01):\n\
  \    self.lr = lr\n"

(* Figure 5, adapted: uses tensor/add/view/Linear, never MSELoss or SGD. *)
let handler =
  "import torch\n\
   def handler(event, context):\n\
  \  x = torch.tensor([1.0, 2.0])\n\
  \  y = torch.tensor([3.0, 4.0])\n\
  \  z = torch.view(torch.add(x, y), 2, 1)\n\
  \  model = torch.nn.Linear(2, 1)\n\
  \  result = model(z)\n\
  \  print(result)\n\
  \  return {\"result\": result}\n"

let () =
  let vfs = Minipy.Vfs.create () in
  Minipy.Vfs.add_file vfs "site-packages/torch/__init__.py" torch_init;
  Minipy.Vfs.add_file vfs "site-packages/torch/nn.py" torch_nn;
  Minipy.Vfs.add_file vfs "site-packages/torch/optim.py" torch_optim;
  Minipy.Vfs.add_file vfs "handler.py" handler;
  let app =
    Platform.Deployment.make ~name:"fig5-torch" ~vfs ~handler_file:"handler.py"
      ~handler_name:"handler"
      ~test_cases:[ Platform.Deployment.test_case ~name:"t1" "{}" ]
  in

  print_endline "=== Original torch/__init__.py (Figure 7a) ===";
  print_string torch_init;

  (* Watch DD at work (Figure 6): every oracle query on torch's attributes.
     Step 1 confirms the profile seed — the candidates the test case read
     (here [simrt], read by torch's own top level) — and the search then
     stays inside it. *)
  print_endline "\n=== Delta Debugging walkthrough (Figure 6) ===";
  let oracle, _ = Trim.Oracle.for_reference app in
  let analysis = Trim.Static_analyzer.analyze app in
  let protected =
    Trim.Static_analyzer.protected_attrs analysis ~module_name:"torch"
  in
  let step_no = ref 0 in
  let optimized, result =
    Trim.Debloater.debloat_module
      ~on_step:(fun step ->
          incr step_no;
          Printf.printf "  step %2d: keep {%s} -> %s\n" !step_no
            (String.concat ", " step.Trim.Dd.step_candidate)
            (if step.Trim.Dd.step_passed then "PASS" else "fail"))
      ~oracle ~protected app ~module_name:"torch"
  in
  Printf.printf "\nProtected by PyCG (never offered to DD): %s\n"
    (String.concat ", " result.Trim.Debloater.protected);
  Printf.printf "Removed attributes: %s\n"
    (String.concat ", " result.Trim.Debloater.removed_attrs);

  print_endline "\n=== Debloated torch/__init__.py (Figure 7b) ===";
  print_string
    (Minipy.Vfs.read_exn optimized.Platform.Deployment.vfs
       "site-packages/torch/__init__.py");

  (* Deploy both and compare a cold start. *)
  print_endline "\n=== Cold start: original vs debloated ===";
  let run d =
    let sim = Platform.Lambda_sim.create d in
    Platform.Lambda_sim.invoke sim ~now_s:0.0 ()
  in
  let before = run app and after = run optimized in
  let open Platform.Lambda_sim in
  Printf.printf "original : init %6.1f ms, memory %6.1f MB, cost $%.3e\n"
    before.init_ms before.peak_memory_mb before.cost;
  Printf.printf "debloated: init %6.1f ms, memory %6.1f MB, cost $%.3e\n"
    after.init_ms after.peak_memory_mb after.cost;
  Printf.printf "stdout unchanged: %b\n"
    (String.equal before.stdout after.stdout)
