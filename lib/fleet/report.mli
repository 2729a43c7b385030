(** Aggregation of a fleet run into the numbers the experiments plot:
    cold/warm mix, latency percentiles, concurrency, residency, total
    Eq.-1 cost, and the resilience picture — availability, goodput, and
    retry amplification under injected faults. {!Stream} is the one
    aggregation; record-mode {!summarize} runs the same classification
    and pricing over the rows a run kept, with exact percentiles read off
    those rows. *)

type summary = {
  label : string;
  requests : int;
  served : int;        (** completed: primary, fallback, or breaker-shed *)
  cold : int;          (** cold starts on the primary image (final attempt) *)
  warm : int;
  fallbacks : int;     (** requests that re-invoked the original image *)
  fb_cold : int;       (** cold starts among original-image invocations
                           (fallback re-invocations and breaker sheds) *)
  rejected : int;
  timed_out : int;
  failed : int;        (** all attempts failed — retries/budget exhausted *)
  shed : int;          (** breaker-open requests routed to the original *)
  cold_fraction : float;   (** of primary starts (cold + warm) *)
  mean_ms : float;         (** e2e over served requests *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  mean_wait_ms : float;    (** delay before the final attempt began *)
  peak_instances : int;
  resident_instance_s : float;  (** primary + fallback pools *)
  evictions : int;
  cost_usd : float;  (** Eq. 1 over all billed durations, both images,
                         including failed/hedged/retried attempts *)
  attempts : int;    (** primary service attempts, incl. hedges *)
  retried : int;     (** requests that took more than one attempt *)
  hedged : int;      (** requests whose cold-start hedge fired *)
  availability : float;      (** served / requests; 1 on the empty trace *)
  goodput_per_s : float;     (** served per second of makespan *)
  retry_amplification : float;
      (** (primary attempts + original-image invocations) / requests;
          exactly 1 with no faults, retries, or fallback *)
}

(** Price and summarize a record-mode run. Each of [res]'s rows, in
    arrival order, goes through {!Stream}'s classification and pricing,
    and the result's engine totals are absorbed. No latency sketch is
    filled: p50/p95/p99 are read exactly off one sort of the served
    requests' e2e latencies by [Platform.Metrics], and [mean_ms]/[max_ms]
    are the running sum and max a stream keeps, bit for bit. Every other
    field is the stream's. [pricing] defaults to AWS. *)
val summarize :
  ?pricing:Platform.Pricing.t ->
  label:string ->
  Router.config ->
  Router.result ->
  summary

(** Streaming aggregation, the only code that classifies outcomes, prices
    billed durations, and derives the summary's ratios: fold records away
    as the router emits them — integer counters, running sums (cost,
    wait) and one range-grown latency {!Sketch} instead of a per-request
    record list. Only p50/p95/p99 are approximate, within
    [sqrt 1.1 - 1] (≈ 4.9% relative) of the exact percentiles
    {!summarize} reports. Accumulators merge exactly (integer bucket
    counts); merge in a canonical order so float sums are
    bit-reproducible at any shard layout. *)
module Stream : sig
  type t

  (** Pricing and memory footprints are captured from [cfg]; all
      accumulators merged together must share them. *)
  val create : ?pricing:Platform.Pricing.t -> Router.config -> t

  val observe : t -> Router.record -> unit

  (** Fold one finished run's engine totals in (peaks sum across apps —
      each app owns an independent pool). *)
  val absorb_totals : t -> Router.totals -> unit

  (** Fold [src] into [into]; [src] is unchanged. *)
  val merge_into : into:t -> t -> unit

  (** Number of app runs absorbed. *)
  val apps : t -> int

  (** Router events processed across absorbed runs. *)
  val events : t -> int

  val summary : label:string -> t -> summary
end

(** Run one trace in streaming mode: records are observed as emitted and
    never retained. Engine totals are already absorbed. [track_ns] is
    {!Router.run_with}'s. *)
val run_stream :
  ?pricing:Platform.Pricing.t ->
  ?track_ns:int ->
  Router.config ->
  Platform.Trace.t ->
  Stream.t

(** Fixed-width table row plus a matching header line. *)
val table_header : string

val table_row : summary -> string

(** CSV column names (no trailing newline). *)
val csv_header : string

val csv_row : summary -> string
