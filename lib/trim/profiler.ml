(* The serverless cost profiler (§5.2).

   λ-trim patches the import machinery: measurement hooks record virtual time
   and memory before and after each module body executes. For module x:

     t(x), m(x)  — inclusive marginal import time / memory: the full window
                   of x's execution, covering x's own submodule imports
                   ("modules and all their submodules");
     self values — the window minus child windows (reported for diagnosis).

   T and M are the totals over the whole Function Initialization phase. *)

type module_profile = {
  mp_name : string;      (* dotted module name *)
  mp_incl_ms : float;    (* t in Eq. 2 *)
  mp_incl_mb : float;    (* m in Eq. 2 *)
  mp_self_ms : float;
  mp_self_mb : float;
  mp_order : int;        (* import order, for stable reporting *)
}

type result = {
  modules : module_profile list;   (* in import order *)
  total_ms : float;                (* T: full init time *)
  total_mb : float;                (* M: full init memory *)
  init_error : string option;      (* init crash, if any *)
}

type frame = {
  f_name : string;
  t0 : float;
  m0 : int;
  mutable child_ms : float;
  mutable child_mb : int;
}

(* Profile Function Initialization of a deployment by executing the handler
   module with measurement hooks installed, in a fresh interpreter. *)
let profile (d : Platform.Deployment.t) : result =
  (* obs: the profiler's import tree is exactly what §5.2's hooks measure,
     so it doubles as the trace's per-module import breakdown *)
  let interp =
    Minipy.Interp.create ~max_steps:20_000_000 ~obs:true
      d.Platform.Deployment.vfs
  in
  let stack : frame list ref = ref [] in
  let finished : module_profile list ref = ref [] in
  let order = ref 0 in
  Minipy.Interp.add_import_hook interp
    { Minipy.Interp.on_before =
        (fun name ->
           stack :=
             { f_name = name;
               t0 = interp.Minipy.Interp.vtime_ms;
               m0 = interp.Minipy.Interp.heap_bytes;
               child_ms = 0.0;
               child_mb = 0 }
             :: !stack);
      on_after =
        (fun name ->
           match !stack with
           | frame :: rest when String.equal frame.f_name name ->
             stack := rest;
             let incl_ms = interp.Minipy.Interp.vtime_ms -. frame.t0 in
             let incl_bytes = interp.Minipy.Interp.heap_bytes - frame.m0 in
             (match rest with
              | parent :: _ ->
                parent.child_ms <- parent.child_ms +. incl_ms;
                parent.child_mb <- parent.child_mb + incl_bytes
              | [] -> ());
             incr order;
             let mb b = float_of_int b /. (1024.0 *. 1024.0) in
             finished :=
               { mp_name = name;
                 mp_incl_ms = incl_ms;
                 mp_incl_mb = mb incl_bytes;
                 mp_self_ms = incl_ms -. frame.child_ms;
                 mp_self_mb = mb (incl_bytes - frame.child_mb);
                 mp_order = !order }
               :: !finished
           | _ -> ()) };
  let t0 = interp.Minipy.Interp.vtime_ms in
  let m0 = interp.Minipy.Interp.heap_bytes in
  let init_error =
    try
      let prog = Platform.Deployment.parse_handler d in
      ignore (Minipy.Interp.exec_main interp prog);
      None
    with
    | Minipy.Value.Py_error e -> Some e.Minipy.Value.exc_class
    | Minipy.Interp.Timeout _ -> Some "Timeout"
  in
  { modules = List.rev !finished;
    total_ms = interp.Minipy.Interp.vtime_ms -. t0;
    total_mb = float_of_int (interp.Minipy.Interp.heap_bytes - m0) /. (1024.0 *. 1024.0);
    init_error }

(* Profiles of importable *candidate* modules: everything measured except the
   interpreter-provided simrt. Submodules are candidates in their own right,
   exactly as in the paper (Table 3 debloats e.g. lxml.html, wand.image). *)
let candidates (r : result) : module_profile list =
  List.filter (fun mp -> not (String.equal mp.mp_name "simrt")) r.modules
