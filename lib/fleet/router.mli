(** The fleet simulator: a request router dispatching an arrival trace over
    a pool of simulated instances in virtual time.

    Each arrival is served by a warm idle instance when one exists,
    cold-starts a new instance when under the concurrency cap, and otherwise
    waits in a bounded pending queue with a per-request timeout. Requests
    that hit debloated-away code on a λ-trim-optimized deployment re-invoke
    the {e original} image on a separate instance pool (§7's fallback), with
    its own cold/warm dynamics.

    A seeded fault layer ({!Faults}) can inject cold-start init failures,
    mid-execution crashes, transient invocation errors, and keep-alive
    churn; a {!Resilience} policy reacts with bounded retries (exponential
    backoff + full jitter), a per-request timeout budget, cold-start
    hedging, and a circuit breaker that sheds a regressed trimmed
    deployment to the original image.

    The whole simulation is deterministic: generators are seeded, the §7
    and fault draws form a per-request plan reproducible from their seeds,
    and the event queue breaks ties stably. With [Faults.none] and
    [Resilience.none] the simulator behaves bit-identically to the
    fault-free router. *)

type start_kind = Cold | Warm

(** How a request's last attempt died. *)
type failure =
  | Init_failed  (** cold-start Function Initialization failed *)
  | Crashed      (** the instance crashed mid-execution *)
  | Errored      (** the invocation completed with a transient error *)

type outcome =
  | Served of start_kind
  | Fallback_served of { trimmed : start_kind; original : start_kind }
      (** the request reached a removed attribute on the trimmed instance
          and was re-invoked on a separate original-image instance *)
  | Shed of start_kind
      (** the circuit breaker was open: the request skipped the trimmed
          image and ran directly on the original-image pool *)
  | Rejected   (** pending queue full at arrival *)
  | Timed_out  (** queued longer than [pending_timeout_s] *)
  | Failed of failure
      (** all attempts failed (retries exhausted or timeout budget spent) *)

type record = {
  req : int;            (** arrival index within the trace *)
  arrival_s : float;
  start_s : float;      (** when the {e final} attempt was assigned an
                            instance (provisioning starts here on cold) *)
  finish_s : float;
  wait_s : float;       (** [start_s - arrival_s]: queueing delay; under
                            retries also failed attempts and backoff *)
  e2e_s : float;        (** finish - arrival; includes cold latency *)
  outcome : outcome;
  billed_ms : float;    (** Eq.-1 billable duration on the primary image,
                            summed over {e all} attempts (failed inits and
                            partial crashes are billed) *)
  fb_billed_ms : float; (** billable duration on the fallback image, if any *)
  attempts : int;       (** primary service attempts started, incl. hedge *)
  hedged : bool;        (** a cold-start hedge fired for this request *)
}

(** The latency/footprint profile of one deployed image, as measured by
    [Platform.Lambda_sim] (see [Scenario.profile_of_record]). *)
type deployment_profile = {
  exec_s : float;           (** Function Execution *)
  func_init_s : float;      (** Function Initialization — billed on cold *)
  instance_init_s : float;  (** platform setup + image pull — unbilled *)
  memory_mb : float;        (** peak footprint, prices Eq. 1 *)
}

type fallback = {
  fb_rate : float;   (** fraction of requests hitting removed code *)
  fb_seed : int;     (** per-request draws are deterministic in this seed *)
  fb_profile : deployment_profile;  (** the original image *)
  fb_policy : Pool.policy;
  fb_setup_s : float;  (** wrapper overhead before re-invocation (§8.7) *)
}

(** Lazy-loading model (ARCHITECTURE §14). With a lazy deployment the
    [config.profile] carries the {e measured} lazy costs (stubbed init,
    warm exec); this record carries the deferred remainder. A cold instance
    starts with [lz_deferred_s] of unresolved init; each request forces at
    most [lz_first_touch_s] of what remains, added to its service time and
    billed duration; with [lz_preload] a warm instance resolves pending
    stubs during its keep-alive idle gap (profile-guided preloading), so
    the next warm hit finds that work already done. *)
type lazy_profile = {
  lz_deferred_s : float;
  lz_first_touch_s : float;
  lz_preload : bool;
}

type config = {
  profile : deployment_profile;
  policy : Pool.policy;
  max_instances : int;        (** concurrency cap; [max_int] = unbounded *)
  max_pending : int;          (** pending-queue bound *)
  pending_timeout_s : float;  (** [infinity] = wait forever *)
  fallback : fallback option;
  faults : Faults.config;     (** [Faults.none] = nothing ever goes wrong *)
  resilience : Resilience.policy;  (** [Resilience.none] = failures final *)
  lazy_load : lazy_profile option;  (** [None] = eager deployment *)
}

(** Unbounded concurrency, a 1024-deep pending queue, 60 s timeout, no
    fallback, no faults, no resilience, eager loading. *)
val default_config : profile:deployment_profile -> Pool.policy -> config

(** Pool/engine aggregates of a run, independent of how records were
    consumed. *)
type totals = {
  peak : int;             (** peak live primary instances *)
  resident_s : float;     (** primary-pool residency *)
  evicted : int;          (** incl. crash/churn reclaims *)
  fb_peak : int;
  fb_resident_s : float;
  total_events : int;     (** events the loop processed *)
}

(** Record mode's rows, one per arrival, stored flat: four float columns
    ([start_s], [finish_s], [billed_ms], [fb_billed_ms]), the trace's own
    arrival array (shared, not copied) and one packed [int] per row (see
    {!pack_row}). Read them back with {!record}. *)
type columns

type result = {
  columns : columns;
  peak_instances : int;
  resident_instance_s : float;
  evictions : int;        (** incl. crash/churn reclaims *)
  fb_peak_instances : int;
  fb_resident_instance_s : float;
  events_processed : int;
}

(** Event-queue backend {!run} and {!run_with} use for a trace: always
    [Events.Heap]. *)
val queue_kind_for : Platform.Trace.t -> Events.kind

(** Streaming mode: run the trace to completion, handing each finalized
    {!record} to [emit] the moment its outcome is sealed (in virtual-time
    finalization order, {e not} arrival order) without retaining it. Every
    arrival is emitted exactly once. This is the allocation-light hot path
    the sharded fleet engine drives; [Report.Stream.observe] is the usual
    consumer.

    Raises [Invalid_argument] if the fault or resilience config, a pool
    policy ({!Pool.validate}, the fallback's too) or a profile time
    (NaN or negative [exec_s], [func_init_s], [instance_init_s]) is out of
    range, or if a breaker is configured without a fallback.

    When a tracer is installed, the run's spans go on the tracks of
    namespace [track_ns], a block of track ids no other namespace shares;
    by default the next [Obs.Span.fresh_track]. A caller that names its
    own keeps them distinct from each other and from the fresh ones. *)
val run_with :
  ?track_ns:int ->
  emit:(record -> unit) ->
  config ->
  Platform.Trace.t ->
  totals

(** Record mode: {!run_with} writing each finalized request into the row
    of its arrival index in the result's {!columns}, sized by the trace.
    Every arrival fills its row exactly once. Same validation behaviour as
    {!run_with}. *)
val run : config -> Platform.Trace.t -> result

(** Number of rows: the trace's arrivals. *)
val length : result -> int

(** [record res i] rebuilds arrival [i]'s record, bit for bit the one
    {!run_with} emitted for it: [wait_s] and [e2e_s] are recomputed by the
    same subtraction.
    @raise Invalid_argument unless [0 <= i < length res]. *)
val record : result -> int -> record

(** A row's packed word: the outcome's code (one of 13) in the low 4
    bits, [hedged] in bit 4, [attempts] above. [unpack_row (pack_row o
    ~attempts ~hedged)] is [(o, attempts, hedged)] for [attempts >= 0]. *)
val pack_row : outcome -> attempts:int -> hedged:bool -> int

val unpack_row : int -> outcome * int * bool
