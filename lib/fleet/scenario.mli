(** Bridges between the single-instance platform simulator and the fleet:
    derive a [Router.deployment_profile] from measured [Lambda_sim] records
    so fleet runs are driven by the same numbers the paper's figures use. *)

(** Profile from a measured {e cold} invocation record: execution and
    Function-Initialization times, platform-side setup (instance init +
    image transmission — zero on a warm record, so pass the cold one), and
    the peak footprint. *)
val profile_of_record :
  Platform.Lambda_sim.record -> Router.deployment_profile

(** Measure a deployment (one forced cold start on [Lambda_sim]) and build
    its profile. [params] defaults to [Lambda_sim.default_params]; the event
    is the deployment's first test case when present. *)
val profile_of_deployment :
  ?params:Platform.Lambda_sim.params ->
  Platform.Deployment.t ->
  Router.deployment_profile

(** [fallback ~rate ~seed ~original ?policy ()] — the §7 re-invocation
    setup: [rate] of requests hit removed code and re-invoke the [original]
    profile on its own pool ([policy] defaults to a 600 s fixed TTL), paying
    a 50 ms wrapper setup (§8.7). *)
val fallback :
  rate:float ->
  seed:int ->
  original:Router.deployment_profile ->
  ?policy:Pool.policy ->
  unit ->
  Router.fallback
