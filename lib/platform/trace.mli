(** Invocation traces: deterministic arrival-time generators and the analytic
    cold/warm replay used by Figures 13-14. A start is cold exactly when the
    gap since the previous request's completion exceeds the keep-alive
    (single-instance model, matching the paper's serial invocations). *)

type t = {
  trace_name : string;
  arrivals_s : Float.Array.t;
      (** sorted arrival times, seconds, stored flat (one word each) *)
}

(** [make ~name l] holds [l] in the order [List.sort compare l] gives, bit
    for bit. A list already in that order is copied without a sort. *)
val make : name:string -> float list -> t

(** Number of arrivals, O(1). *)
val length : t -> int

(** Poisson arrivals with exponential inter-arrival times.
    @raise Invalid_argument unless [rate_per_s] is finite and positive and
    [duration_s] is finite and non-negative. *)
val poisson :
  seed:int -> rate_per_s:float -> duration_s:float -> name:string -> t

(** On/off bursts — the scale-out pattern §1 cites as a cold-start driver. *)
val bursty :
  seed:int ->
  burst_size:int ->
  burst_rate_per_s:float ->
  idle_gap_s:float ->
  bursts:int ->
  name:string ->
  t

val periodic : period_s:float -> count:int -> name:string -> t

type replay = {
  cold_starts : int;
  warm_starts : int;
  resident_s : float;
      (** total seconds a warm instance (or cached snapshot) stays alive *)
}

(** [replay ?exec_s t ~keep_alive_s]: every arrival is classified cold/warm;
    [exec_s] extends the keep-alive timer from request completion. *)
val replay : ?exec_s:float -> t -> keep_alive_s:float -> replay
