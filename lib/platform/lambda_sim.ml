(* The serverless platform simulator: instance lifecycle, cold/warm starts,
   keep-alive, and the billing boundary of Figure 1.

   A cold start runs four phases:
     1. instance init        — platform-side VM/runtime setup (NOT billed)
     2. image transmission   — image size / network bandwidth (NOT billed)
     3. function init        — module-level code of the handler file (billed)
     4. function execution   — the handler call (billed)

   A warm start reuses a live instance and runs only phase 4. Instances
   expire after the keep-alive period; invoke with increasing [now_s]. *)

type params = {
  instance_init_ms : float;        (* phase-1 constant *)
  transmission_mb_per_s : float;   (* image download bandwidth *)
  keep_alive_s : float;
  max_steps : int;                 (* interpreter budget per invocation *)
  runtime_overhead_ms : float;     (* billed per-request runtime overhead:
                                      event marshalling, logging, response
                                      serialisation *)
}

let default_params =
  { instance_init_ms = 620.0;
    transmission_mb_per_s = 85.0;
    keep_alive_s = 15.0 *. 60.0;
    max_steps = 20_000_000;
    runtime_overhead_ms = 75.0 }

type start_kind = Cold | Warm

let start_kind_name = function Cold -> "cold" | Warm -> "warm"

type outcome =
  | Ok of Minipy.Value.value
  | Error of Minipy.Value.exc

type record = {
  kind : start_kind;
  instance_init_ms : float;     (* 0 on warm starts *)
  transmission_ms : float;      (* 0 on warm starts *)
  init_ms : float;              (* Function Initialization; 0 on warm *)
  exec_ms : float;              (* Function Execution *)
  e2e_ms : float;
  billed_ms : float;
  peak_memory_mb : float;       (* instance footprint after the call *)
  cost : float;
  outcome : outcome;
  stdout : string;
  external_calls : string list;   (* intercepted remote-service operations *)
}

type instance = {
  interp : Minipy.Interp.t;
  namespace : Minipy.Value.namespace;
  init_ms_measured : float;
  mutable expires_at : float;
}

type t = {
  deployment : Deployment.t;
  pricing : Pricing.t;
  params : params;
  obs : bool;   (* emit Fig.-1 phase spans on the installed tracer; the
                   oracle's probe sims turn this off to keep DD's thousands
                   of runs out of the trace *)
  on_read : (string -> string -> unit) option;
                (* read recorder handed to every interpreter this sim
                   creates (Minipy.Interp.create) *)
  mutable live : instance option;   (* single-concurrency pool *)
}

let create ?(pricing = Pricing.aws) ?(params = default_params) ?(obs = true)
    ?on_read deployment =
  { deployment; pricing; params; obs; on_read; live = None }

let eval_expr interp src =
  (* test-case events repeat across thousands of oracle invocations; the
     parse cache answers all but the first *)
  let prog = Minipy.Parse_cache.parse ~file:"<event>" (src ^ "\n") in
  match prog with
  | [ { Minipy.Ast.sdesc = Minipy.Ast.Expr_stmt e; _ } ] ->
    let ns = Hashtbl.create 4 in
    let m = { Minipy.Value.mname = "<event>"; mfile = "<event>"; mattrs = ns } in
    Minipy.Interp.eval interp (Minipy.Interp.module_env m) e
  | _ -> invalid_arg (Printf.sprintf "not a single expression: %S" src)

(* Run Function Initialization: execute the handler module top-level.
   [sink]/[track]/[at_ms] aim the interpreter's import spans at this
   invocation's trace lane, with vtime 0 mapped to [at_ms] (the phase's
   position in simulation time). *)
let initialize ?(sink = Obs.Span.null) ?(track = 0) ?(at_ms = 0.0) t :
    instance * float =
  let interp =
    Minipy.Interp.create ~max_steps:t.params.max_steps ?on_read:t.on_read
      t.deployment.Deployment.vfs
  in
  interp.Minipy.Interp.obs_sink <- sink;
  interp.Minipy.Interp.obs_track <- track;
  interp.Minipy.Interp.obs_offset_ms <- at_ms -. interp.Minipy.Interp.vtime_ms;
  let prog = Deployment.parse_handler t.deployment in
  let t0 = interp.Minipy.Interp.vtime_ms in
  let namespace = Minipy.Interp.exec_main interp prog in
  let init_ms = interp.Minipy.Interp.vtime_ms -. t0 in
  ({ interp; namespace; init_ms_measured = init_ms; expires_at = 0.0 }, init_ms)

let transmission_ms t =
  Deployment.image_mb t.deployment /. t.params.transmission_mb_per_s *. 1000.0

(* Invoke the deployed function at time [now_s] with oracle test case inputs
   given as minipy expression sources. *)
let invoke ?(event = "{}") ?(context = Deployment.default_context) t ~now_s () =
  (* each invocation gets its own trace lane: overlapping invocations
     (cold at sim time 0, warm at 1000 ms) would otherwise collide on one
     track and break well-nesting *)
  let sink = if t.obs then Obs.Span.installed () else Obs.Span.null in
  let track = Obs.Span.fresh_track sink in
  let base_ms = now_s *. 1000.0 in
  let inv_sp =
    Obs.Span.begin_ sink ~domain:Obs.Span.domain_virtual ~track ~cat:"platform"
      ~name:"invoke" ~ts_ms:base_ms
  in
  let reusable =
    match t.live with
    | Some inst when inst.expires_at >= now_s -> Some inst
    | _ -> t.live <- None; None
  in
  let kind, inst, instance_init_ms, trans_ms, init_ms, init_error =
    match reusable with
    | Some inst -> (Warm, inst, 0.0, 0.0, 0.0, None)
    | None ->
      (* an init-phase crash is billed for the time spent and surfaces as a
         function error, exactly as the platform reports it *)
      let trans_ms = transmission_ms t in
      (match
         initialize t ~sink ~track
           ~at_ms:(base_ms +. t.params.instance_init_ms +. trans_ms)
       with
       | inst, init_ms ->
         (Cold, inst, t.params.instance_init_ms, trans_ms, init_ms, None)
       | exception Minipy.Value.Py_error e ->
         let interp =
           Minipy.Interp.create ~max_steps:t.params.max_steps
             t.deployment.Deployment.vfs
         in
         let inst =
           { interp; namespace = Hashtbl.create 1; init_ms_measured = 0.0;
             expires_at = 0.0 }
         in
         (Cold, inst, t.params.instance_init_ms, trans_ms, 0.0, Some e))
  in
  let interp = inst.interp in
  let stdout_before = Buffer.length interp.Minipy.Interp.stdout_buf in
  let calls_before = List.length interp.Minipy.Interp.external_calls in
  let t0 = interp.Minipy.Interp.vtime_ms in
  let exec_base_ms = base_ms +. instance_init_ms +. trans_ms +. init_ms in
  (* retarget the (possibly reused) interpreter at this invocation's lane:
     lazy imports made inside the handler trace into the exec phase *)
  interp.Minipy.Interp.obs_sink <- sink;
  interp.Minipy.Interp.obs_track <- track;
  interp.Minipy.Interp.obs_offset_ms <- exec_base_ms -. t0;
  let outcome =
    match init_error with
    | Some e -> Error e
    | None ->
      (try
         let ev = eval_expr interp event in
         let ctx = eval_expr interp context in
         Ok
           (Minipy.Interp.call_in_namespace interp inst.namespace
              t.deployment.Deployment.handler_name [ ev; ctx ])
       with Minipy.Value.Py_error e -> Error e)
  in
  let exec_ms =
    interp.Minipy.Interp.vtime_ms -. t0 +. t.params.runtime_overhead_ms
  in
  let stdout =
    let b = Buffer.contents interp.Minipy.Interp.stdout_buf in
    String.sub b stdout_before (String.length b - stdout_before)
  in
  let billed_raw = init_ms +. exec_ms in
  let peak_memory_mb = Minipy.Interp.heap_mb interp in
  let billed_ms = Pricing.billed_duration_ms t.pricing billed_raw in
  let cost =
    Pricing.invocation_cost t.pricing ~duration_ms:billed_raw
      ~memory_mb:peak_memory_mb
  in
  let e2e_ms = instance_init_ms +. trans_ms +. init_ms +. exec_ms in
  (* the trace's end of this invocation: summed in the same order as the
     phase boundaries, so the exec phase never ends past its parent span by
     a rounding ulp ([base_ms +. e2e_ms] can differ in the last bit) *)
  let end_ms = exec_base_ms +. exec_ms in
  (* keep-alive timer resets after the request completes; a crashed init
     leaves no reusable instance behind *)
  (match init_error with
   | None ->
     inst.expires_at <- now_s +. (e2e_ms /. 1000.0) +. t.params.keep_alive_s;
     t.live <- Some inst
   | Some _ -> t.live <- None);
  let external_calls =
    let all = Minipy.Interp.external_calls interp in
    (* only the calls issued by this invocation (init-time calls belong to
       the cold start that made them) *)
    let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
    drop calls_before all
  in
  let record =
    { kind; instance_init_ms; transmission_ms = trans_ms; init_ms; exec_ms;
      e2e_ms; billed_ms; peak_memory_mb; cost; outcome; stdout; external_calls }
  in
  if Obs.Span.enabled sink then begin
    (* phase boundaries are all known now; emit the Fig.-1 breakdown as
       immediate spans on this invocation's lane *)
    let phase name start_ms dur_ms =
      let sp =
        Obs.Span.begin_ sink ~domain:Obs.Span.domain_virtual ~track
          ~cat:"platform" ~name ~ts_ms:start_ms
      in
      Obs.Span.end_ sp ~ts_ms:(start_ms +. dur_ms)
    in
    (match kind with
     | Cold ->
       phase "phase:instance_init" base_ms instance_init_ms;
       phase "phase:transmission" (base_ms +. instance_init_ms) trans_ms;
       phase "phase:function_init"
         (base_ms +. instance_init_ms +. trans_ms)
         init_ms
     | Warm -> ());
    phase "phase:function_exec" exec_base_ms exec_ms;
    (* built only when traced: an untraced invoke formats no attributes *)
    Obs.Span.end_ inv_sp
      ~attrs:
        [ ("kind", start_kind_name kind);
          ("billed_ms", Printf.sprintf "%.3f" billed_ms);
          ("cost_usd", Printf.sprintf "%.9f" cost);
          ("memory_mb", Printf.sprintf "%.2f" peak_memory_mb) ]
      ~ts_ms:end_ms
  end;
  record

(* Force the platform to discard the warm instance — the evaluation triggers
   cold starts this way ("we update the function description field"). *)
let evict t = t.live <- None

(* One cold start followed by one warm start; the basis for most figures. *)
let measure_cold_and_warm ?event ?context t =
  evict t;
  let cold = invoke ?event ?context t ~now_s:0.0 () in
  let warm = invoke ?event ?context t ~now_s:1.0 () in
  (cold, warm)
