(* Optimizer-family selection: the `--optimizer` families and the
   dispatcher that turns a deployment into its optimized form. *)

type variant =
  | Dd        (* λ-trim DD attribute debloating (the default family) *)
  | Lazy      (* profile-guided lazy loading: nothing removed *)
  | Combined  (* lazy loading applied over the DD-trimmed image *)
  | Off       (* identity: deploy the original *)

let to_string = function
  | Dd -> "dd"
  | Lazy -> "lazy"
  | Combined -> "combined"
  | Off -> "none"

let of_string = function
  | "dd" -> Some Dd
  | "lazy" -> Some Lazy
  | "combined" -> Some Combined
  | "none" | "off" -> Some Off
  | _ -> None

type outcome = {
  o_variant : variant;
  o_deployment : Platform.Deployment.t;  (* what gets deployed *)
  o_dd : Pipeline.report option;         (* when the family ran DD *)
  o_lazy : Lazy_loader.report option;    (* when the family lazified *)
}

let run ?options variant (d : Platform.Deployment.t) : outcome =
  match variant with
  | Off -> { o_variant = Off; o_deployment = d; o_dd = None; o_lazy = None }
  | Dd ->
    let r = Pipeline.run ?options d in
    { o_variant = Dd;
      o_deployment = r.Pipeline.optimized;
      o_dd = Some r;
      o_lazy = None }
  | Lazy ->
    let lz = Lazy_loader.optimize d in
    { o_variant = Lazy;
      o_deployment = lz.Lazy_loader.lz_optimized;
      o_dd = None;
      o_lazy = Some lz }
  | Combined ->
    let r = Pipeline.run ?options d in
    let lz = Lazy_loader.optimize r.Pipeline.optimized in
    { o_variant = Combined;
      o_deployment = lz.Lazy_loader.lz_optimized;
      o_dd = Some r;
      o_lazy = Some lz }
