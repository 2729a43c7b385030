(** Optimizer-family selection ([--optimizer dd,lazy,combined,none]) and
    dispatch. [Dd] is λ-trim's attribute debloating; [Lazy] is the
    profile-guided lazy loader ({!Lazy_loader}), which removes nothing;
    [Combined] stacks lazy loading on the DD-trimmed image; [Off] deploys
    the original untouched. *)

type variant = Dd | Lazy | Combined | Off

(** ["dd"], ["lazy"], ["combined"], ["none"]. *)
val to_string : variant -> string

val of_string : string -> variant option

type outcome = {
  o_variant : variant;
  o_deployment : Platform.Deployment.t;  (** what gets deployed *)
  o_dd : Pipeline.report option;
  o_lazy : Lazy_loader.report option;
}

(** Optimize [d] with the given family. [options] flow to {!Pipeline.run}
    for the families that run DD. *)
val run :
  ?options:Pipeline.options -> variant -> Platform.Deployment.t -> outcome
