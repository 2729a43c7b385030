(** AWS SnapStart cost model (§8.6, Figures 13-14).

    SnapStart charges caching ($/GB-s, accruing 24/7 while the function
    version exists) and restore ($/GB per cold start) on top of normal
    invocation costs. Because caching accrues around the clock, rarely-
    invoked functions spend most of their budget on C/R support. *)

type pricing = {
  cache_price_per_gb_s : float;
  restore_price_per_gb : float;
}

type costs = {
  invocation_cost : float;  (** normal compute cost over the window *)
  cache_cost : float;
  restore_cost : float;
}

(** Fraction of the total spent on SnapStart support (cache + restore). *)
val snapstart_share : costs -> float

(** Costs of running a function over a trace window with SnapStart enabled;
    the replay supplies cold/warm counts. *)
val costs_over_window :
  ?pricing:pricing ->
  lambda_pricing:Platform.Pricing.t ->
  snapshot_mb:float ->
  memory_mb:float ->
  billed_ms_cold:float ->
  billed_ms_warm:float ->
  cold_starts:int ->
  warm_starts:int ->
  window_s:float ->
  unit ->
  costs

(** VM-level snapshot size: guest OS + runtime pages on top of the process
    footprint, hence larger than a CRIU process image. *)
val snapshot_size_mb : post_init_memory_mb:float -> image_mb:float -> float
