(** Warm-instance pool with pluggable keep-alive / eviction policies.

    The pool owns instance lifecycle and residency accounting; the router
    decides *when* to acquire, spawn, and expire (it drives virtual time).
    Warm selection is most-recently-used — the instance idle for the
    shortest time — which both matches observed FaaS platform behaviour and
    lets surplus instances age out. All choices are deterministic (ties
    broken by instance id). *)

type policy =
  | Fixed_ttl of { keep_alive_s : float }
      (** The paper's baseline: an idle instance is evicted a fixed
          [keep_alive_s] after its last request completes. *)
  | Lru of { keep_alive_s : float; max_idle : int }
      (** Capacity-capped warm pool: same TTL, but at most [max_idle]
          instances may sit idle; releasing one more immediately evicts the
          least-recently-used (longest-idle) instance. *)
  | Adaptive of { min_s : float; max_s : float; percentile : float }
      (** Histogram-based keep-alive in the spirit of Serverless in the
          Wild (Shahrad et al., ATC'20): observed idle gaps (completion to
          next reuse) feed a 1-second-bucketed histogram, and the TTL is the
          [percentile] of that histogram plus a 10% margin, clamped to
          [min_s, max_s]. Until enough gaps are observed the pool keeps the
          conservative [max_s]. *)

val policy_name : policy -> string

(** Raises [Invalid_argument] on a NaN or negative keep-alive, [min_s],
    [max_s] or [max_idle], or a percentile outside [[0, 100]]. Infinite
    keep-alives are legal, and so is [min_s > max_s] (the TTL is then
    [max_s]). *)
val validate : policy -> unit

type state = Idle | Busy

(** An instance's clock, all floats so it is stored flat (an update
    allocates nothing). *)
type times = {
  born_s : float;
  mutable busy_until : float;
  mutable idle_since : float;
  mutable expires_at : float;
  mutable timer_at : float;  (** when the outstanding timer is due *)
  mutable pending_s : float;
      (** deferred lazy-init work not yet resolved on this instance
          (ARCHITECTURE §14); 0 for eager deployments *)
}

type instance = {
  id : int;
  mutable state : state;
  mutable idle_seq : int;
      (** event-queue seq reserved by the last finite-expiry {!release} *)
  mutable timer_seq : int;  (** the outstanding keep-alive timer; [-1]: none *)
  times : times;
}

type t

val create : policy -> t

(** The MRU idle instance whose keep-alive covers [now] (latest
    [idle_since], ties to the smaller id), marked [Busy]; [None] if every
    instance is busy or expired. It comes off the top of the pool's idle
    stack in amortised O(1). [now] must not decrease between calls. *)
val acquire : t -> now:float -> instance option

(** Cold-start a fresh instance at [now], already [Busy]. *)
val spawn : t -> now:float -> instance

(** Request completion: the instance turns [Idle] until its policy expiry
    [expires_at] and goes on top of the idle stack, so [now] must not
    decrease between releases. Under [Lru], releasing one instance over
    [max_idle] immediately evicts the longest-idle one (earliest
    [idle_since], ties to the smaller id, expired or not), taken off the
    bottom of the same stack. Under [Adaptive] an acquire-after-release records the observed
    idle gap. A finite expiry draws [idle_seq] from [reserve] (the caller's
    [Events.reserve]); the result is [true] iff the caller must push a
    keep-alive timer at [(expires_at, expiry rank, idle_seq)], because no
    timer is due at or before the new expiry. *)
val release : t -> instance -> now:float -> reserve:(unit -> int) -> bool

(** Forced eviction regardless of state: a crashed or platform-reclaimed
    (keep-alive churn) instance leaves the pool immediately, counting as an
    eviction and charging residency up to [now]. Safe to call on an already
    evicted instance (no-op); its outstanding timer is dropped when it
    fires. *)
val reclaim : t -> instance -> now:float -> unit

(** The keep-alive timer [seq] fired at [now]: evicts the instance if it is
    still idle in the period the timer was armed for. [true] iff it was
    reused and is idle again, so the caller must push the timer anew at
    [(expires_at, expiry rank, idle_seq)]. Busy or evicted instances and
    displaced timers are left alone. *)
val fire : t -> instance -> seq:int -> now:float -> bool

val live_count : t -> int
val peak_live : t -> int
val evictions : t -> int

(** Instance-seconds (born to eviction) accumulated by evicted instances;
    call [drain] to charge and evict survivors at their expiry time. *)
val resident_s : t -> float

val drain : t -> unit

(** The adaptive policy's idle-gap histogram (1 s buckets, the last one
    absorbing every longer gap). [percentile h p] is the upper edge of the
    first bucket whose cumulative count reaches the [p]-th percentile
    observation: [0] when empty, [bucket_count] when none does. [create]
    allocates no buckets; the first [observe] allocates all of them. *)
module Histogram : sig
  type t

  val bucket_count : int
  val create : unit -> t
  val observe : t -> float -> unit
  val percentile : t -> float -> float
end

(** {1 Lazy-init pending ledger (ARCHITECTURE §14)}

    Lazy deployments defer part of Function Initialization to first touch.
    The router records the deferred amount on each cold instance with
    {!set_pending}; requests consume it as stubs force, and — with
    profile-driven preloading on — a warm instance resolves pending stubs
    during its keep-alive idle gap. *)

val set_pending : instance -> float -> unit
val pending_s : instance -> float

(** Subtract resolved work, clamping at zero. *)
val consume_pending : instance -> float -> unit

(** Resolve up to the just-ended idle gap [now - idle_since] worth of
    pending work; call at warm-acquire time. *)
val preload_idle : instance -> now:float -> unit
