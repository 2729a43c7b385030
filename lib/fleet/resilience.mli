(** Resilience policies the router applies when the fault layer bites:
    bounded retries with exponential backoff and full jitter, a per-request
    end-to-end timeout budget, a circuit breaker that sheds a regressed
    trimmed deployment to the original image (§7), and cold-start hedging.

    Everything here is deterministic: jitter draws come from the request's
    {!Faults} plan, and the breaker's transitions are driven entirely by
    event times in virtual time. *)

(** Bounded retries. Retry [i] (0-based) waits
    [min max_backoff_s (base_backoff_s *. 2^i)], scaled by a uniform draw
    when [full_jitter] (AWS-style full jitter: the wait is uniform in
    [0, cap]). *)
type retry = {
  max_retries : int;
  base_backoff_s : float;
  max_backoff_s : float;
  full_jitter : bool;
}

(** 3 retries, 200 ms base, 10 s cap, full jitter. *)
val default_retry : retry

(** The backoff before retry [retry_index] (0-based); [jitter_u] is a
    uniform [0, 1) draw, ignored unless [full_jitter]. *)
val backoff_s : retry -> retry_index:int -> jitter_u:float -> float

(** Cold-start hedging: when a cold start's init fails, the recovery
    attempt is dispatched [hedge_delay_s] after the {e original} cold start
    began — speculatively, possibly before the failure is even detected —
    without consuming a retry or paying backoff. At most one hedge fires
    per request; both attempts are billed. *)
type hedge = { hedge_delay_s : float }

(** Circuit breaker on the §7 fallback path. While [Closed], completed
    trimmed invocations are sampled over a sliding window; when at least
    [min_samples] are present and the removal-error (fallback-hit) rate
    reaches [error_threshold], the breaker opens and the router sheds
    every request directly to the original image. After [cooldown_s] it
    half-opens: a single probe request tries the trimmed image again —
    success closes the breaker, failure re-opens it. *)
module Breaker : sig
  type config = {
    error_threshold : float;  (** open at this windowed error rate *)
    window : int;             (** sliding sample window size *)
    min_samples : int;        (** samples required before tripping *)
    cooldown_s : float;       (** open duration before half-opening *)
  }

  type t

  (** [obs_track] is the fleet-domain trace track on which state
      transitions are marked when a tracer is installed (default 0). *)
  val create : ?obs_track:int -> config -> t

  type state = Closed | Open | Half_open

  (** Current state as of the last observation ([admit]/[record] drive
      transitions, so an elapsed cooldown shows up only at the next
      [admit]). *)
  val state : t -> state

  type admission =
    | Admit  (** closed: serve on the trimmed image, sample the outcome *)
    | Probe  (** half-open: this request is the single trial *)
    | Shed   (** open: route directly to the original image *)

  val admit : t -> now:float -> admission

  (** Sample a completed trimmed invocation ([failed] = it hit removed
      code). Ignored unless [Closed]. *)
  val record : t -> now:float -> failed:bool -> unit

  (** Resolve the half-open probe. Ignored unless [Half_open]. *)
  val probe_result : t -> now:float -> failed:bool -> unit
end

type policy = {
  retry : retry option;          (** [None]: failures are final *)
  request_timeout_s : float;
      (** end-to-end budget: a retry that would begin later than
          [arrival + request_timeout_s] is abandoned ([infinity]: none) *)
  breaker : Breaker.config option;  (** requires a configured fallback *)
  hedge : hedge option;
}

(** No retries, no budget, no breaker, no hedging — failures are final,
    which reproduces the pre-fault simulator exactly when no faults are
    injected. *)
val none : policy

val validate : policy -> unit
