(** Seeded, deterministic fault injection for the fleet simulator.

    Every draw is a pure hash of [(seed, request, attempt, stream)] — no
    mutable generator state — so fault outcomes are independent of event
    ordering and reproducible from one seed: two runs over the same trace
    see exactly the same init failures, crashes, transient errors, and
    keep-alive churn, regardless of how retries and hedges interleave. The
    only stateful draws are the §7 fallback flags, which deliberately
    replay the original coin-flip sequence ([fallback_flags]) so that
    zero-fault runs stay bit-identical to the pre-fault simulator. *)

type config = {
  seed : int;
  init_failure_rate : float;
      (** probability a {e cold} start's Function Initialization fails;
          the instance dies and the init duration is still billed *)
  crash_rate : float;
      (** probability an invocation crashes mid-execution (uniform crash
          point over the execution window); the instance dies *)
  transient_error_rate : float;
      (** probability an invocation runs to completion but returns an
          error (billed in full); the instance survives *)
  churn_rate : float;
      (** probability the platform reclaims an instance immediately on
          release instead of granting its keep-alive (applies to both the
          primary and the fallback pool, on independent draw streams) *)
}

(** All rates zero, seed 0: injects nothing. *)
val none : config

(** Raise [Invalid_argument] unless every rate is within [0, 1]. *)
val validate : config -> unit

(** What the plan holds for one service attempt. At most one fault fires
    per attempt; init failure (cold only) shadows crash shadows transient
    error, each on an independent draw stream. *)
type fault =
  | No_fault
  | Init_failure  (** cold starts only *)
  | Crash of { after_fraction : float }
      (** dies after this fraction of Function Execution *)
  | Transient_error

(** The planned fault for attempt [attempt] (0-based) of request [req],
    served cold or warm. *)
val attempt_fault : config -> cold:bool -> req:int -> attempt:int -> fault

(** Keep-alive churn draw for the instance released by attempt [attempt]
    of request [req]; [fb] selects the fallback pool's stream. *)
val churned : config -> fb:bool -> req:int -> attempt:int -> bool

(** Uniform [0, 1) draw for retry backoff jitter (retry index [retry],
    0-based). Defined even under [none] — jitter needs no fault rates. *)
val jitter : config -> req:int -> retry:int -> float

(** The §7 removal-hit coin flips, exactly as the pre-fault router drew
    them: a [Random.State] seeded with [seed], one [float] draw per
    request in arrival order. Each call of the returned function is the
    next request's flip. *)
val fallback_flags : seed:int -> rate:float -> unit -> bool
