(** Convenience access to the benchmark suite. *)

val names : string list
val deployment_of : string -> Platform.Deployment.t
val spec_of : string -> Apps.spec

(** A reduced, fast application used across the unit tests: one small
    library, a couple of removable heavies, tiny costs. Deterministic. *)
val tiny_app :
  ?name:string ->
  ?attrs:int ->
  ?removable_time_frac:float ->
  ?removable_mem_frac:float ->
  unit ->
  Platform.Deployment.t
