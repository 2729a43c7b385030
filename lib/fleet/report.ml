(* Fleet-run aggregation. Latency statistics cover served requests only;
   rejected, timed-out, and failed requests are counted separately (a
   dropped request has no meaningful latency, and folding zeros in would
   flatter the tail).

   [Stream] is the one aggregation: it classifies outcomes, prices billed
   durations with Eq. 1, and derives every ratio of the summary.
   [summarize] (record mode) runs that classification and pricing over
   the rows a [Router.result] holds, with p50/p95/p99 read exactly off one
   sort of the served latencies by [Platform.Metrics], which is total on
   the empty array, so a run where everything was rejected still
   summarizes. *)

type summary = {
  label : string;
  requests : int;
  served : int;
  cold : int;
  warm : int;
  fallbacks : int;
  fb_cold : int;
  rejected : int;
  timed_out : int;
  failed : int;
  shed : int;
  cold_fraction : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  mean_wait_ms : float;
  peak_instances : int;
  resident_instance_s : float;
  evictions : int;
  cost_usd : float;
  attempts : int;
  retried : int;
  hedged : int;
  availability : float;
  goodput_per_s : float;
  retry_amplification : float;
}

(* Served requests (primary, §7 fallback, or breaker-shed) are the latency
   population, both for the stream's sketch and record mode's exact
   percentiles. *)
let served (r : Router.record) =
  match r.Router.outcome with
  | Router.Served _ | Router.Fallback_served _ | Router.Shed _ -> true
  | Router.Rejected | Router.Timed_out | Router.Failed _ -> false

(* --- streaming aggregation ------------------------------------------------

   [Stream] folds each record away the moment the router emits it: integer
   counters, running sums, and a range-grown latency [Sketch] (the waits
   only ever report their mean, so they keep a running sum).
   Only its p50/p95/p99 are approximate (within [sqrt 1.1 - 1] relative).
   Merging accumulators adds integer bucket counts (exact,
   order-independent) — merge in a canonical order anyway so the float
   cost/sum fields are bit-reproducible at any shard layout. *)

module Stream = struct
  (* All-float, so stored flat: [observe] updates it without allocating. *)
  type floats = {
    mutable cost : float;
    mutable wait_sum : float;  (* served requests' waits, ms *)
    mutable first_arrival : float;
    mutable last_finish : float;
  }

  type t = {
    pricing : Platform.Pricing.t;
    memory_mb : float;
    fb_memory_mb : float;
    mutable requests : int;
    mutable cold : int;
    mutable warm : int;
    mutable fallbacks : int;
    mutable fb_cold : int;
    mutable rejected : int;
    mutable timed_out : int;
    mutable failed : int;
    mutable shed : int;
    mutable attempts : int;
    mutable retried : int;
    mutable hedged : int;
    mutable fb_invocations : int;
    lat : Sketch.t;
    fl : floats;
    (* engine totals absorbed after each run; [peak] is the sum of per-app
       peaks when streams merge (apps have independent pools) *)
    mutable peak : int;
    mutable resident_s : float;
    mutable evictions : int;
    mutable apps : int;
    mutable events : int;
  }

  let create ?(pricing = Platform.Pricing.aws) (cfg : Router.config) =
    { pricing;
      memory_mb = cfg.Router.profile.Router.memory_mb;
      fb_memory_mb =
        (match cfg.Router.fallback with
         | Some fb -> fb.Router.fb_profile.Router.memory_mb
         | None -> 0.0);
      requests = 0; cold = 0; warm = 0; fallbacks = 0; fb_cold = 0;
      rejected = 0; timed_out = 0; failed = 0; shed = 0;
      attempts = 0; retried = 0; hedged = 0; fb_invocations = 0;
      lat = Sketch.create ();
      fl =
        { cost = 0.0; wait_sum = 0.0; first_arrival = infinity;
          last_finish = neg_infinity };
      peak = 0; resident_s = 0.0; evictions = 0; apps = 0; events = 0 }

  let count_primary t = function
    | Router.Cold -> t.cold <- t.cold + 1
    | Router.Warm -> t.warm <- t.warm + 1

  let count_original t kind =
    t.fb_invocations <- t.fb_invocations + 1;
    match kind with
    | Router.Cold -> t.fb_cold <- t.fb_cold + 1
    | Router.Warm -> ()

  (* Classify, count and price [r], and with [sketch] add its latency to
     the stream's sketch. True when [r] was [served]. Both callers pass a
     constant [sketch], so each inlined copy keeps one branch. *)
  let[@inline] fold t (r : Router.record) ~sketch =
    let fl = t.fl in
    t.requests <- t.requests + 1;
    t.attempts <- t.attempts + r.Router.attempts;
    if r.Router.attempts > 1 then t.retried <- t.retried + 1;
    if r.Router.hedged then t.hedged <- t.hedged + 1;
    if r.Router.arrival_s < fl.first_arrival then
      fl.first_arrival <- r.Router.arrival_s;
    (match r.Router.outcome with
     | Router.Served kind -> count_primary t kind
     | Router.Fallback_served { trimmed; original } ->
       count_primary t trimmed;
       t.fallbacks <- t.fallbacks + 1;
       count_original t original
     | Router.Shed kind ->
       t.shed <- t.shed + 1;
       count_original t kind
     | Router.Rejected -> t.rejected <- t.rejected + 1
     | Router.Timed_out -> t.timed_out <- t.timed_out + 1
     | Router.Failed _ -> t.failed <- t.failed + 1);
    let served = served r in
    if served then begin
      if sketch then Sketch.add t.lat (r.Router.e2e_s *. 1000.0);
      fl.wait_sum <- fl.wait_sum +. Float.max 0.0 (r.Router.wait_s *. 1000.0);
      if r.Router.finish_s > fl.last_finish then
        fl.last_finish <- r.Router.finish_s
    end;
    if r.Router.billed_ms > 0.0 then
      fl.cost <-
        fl.cost
        +. Platform.Pricing.invocation_cost t.pricing
             ~duration_ms:r.Router.billed_ms ~memory_mb:t.memory_mb;
    if r.Router.fb_billed_ms > 0.0 then
      fl.cost <-
        fl.cost
        +. Platform.Pricing.invocation_cost t.pricing
             ~duration_ms:r.Router.fb_billed_ms ~memory_mb:t.fb_memory_mb;
    served

  let observe t r = ignore (fold t r ~sketch:true : bool)

  let absorb_totals t (tot : Router.totals) =
    t.peak <- t.peak + tot.Router.peak;
    t.resident_s <-
      t.resident_s +. tot.Router.resident_s +. tot.Router.fb_resident_s;
    t.evictions <- t.evictions + tot.Router.evicted;
    t.apps <- t.apps + 1;
    t.events <- t.events + tot.Router.total_events

  let merge_into ~into src =
    into.requests <- into.requests + src.requests;
    into.cold <- into.cold + src.cold;
    into.warm <- into.warm + src.warm;
    into.fallbacks <- into.fallbacks + src.fallbacks;
    into.fb_cold <- into.fb_cold + src.fb_cold;
    into.rejected <- into.rejected + src.rejected;
    into.timed_out <- into.timed_out + src.timed_out;
    into.failed <- into.failed + src.failed;
    into.shed <- into.shed + src.shed;
    into.attempts <- into.attempts + src.attempts;
    into.retried <- into.retried + src.retried;
    into.hedged <- into.hedged + src.hedged;
    into.fb_invocations <- into.fb_invocations + src.fb_invocations;
    Sketch.merge_into ~into:into.lat src.lat;
    let ifl = into.fl and sfl = src.fl in
    ifl.cost <- ifl.cost +. sfl.cost;
    ifl.wait_sum <- ifl.wait_sum +. sfl.wait_sum;
    if sfl.first_arrival < ifl.first_arrival then
      ifl.first_arrival <- sfl.first_arrival;
    if sfl.last_finish > ifl.last_finish then
      ifl.last_finish <- sfl.last_finish;
    into.peak <- into.peak + src.peak;
    into.resident_s <- into.resident_s +. src.resident_s;
    into.evictions <- into.evictions + src.evictions;
    into.apps <- into.apps + src.apps;
    into.events <- into.events + src.events

  let apps t = t.apps
  let events t = t.events

  let summary ~label t : summary =
    let served = t.cold + t.warm + t.shed in
    let primary_starts = t.cold + t.warm in
    let window = t.fl.last_finish -. t.fl.first_arrival in
    { label;
      requests = t.requests;
      served;
      cold = t.cold;
      warm = t.warm;
      fallbacks = t.fallbacks;
      fb_cold = t.fb_cold;
      rejected = t.rejected;
      timed_out = t.timed_out;
      failed = t.failed;
      shed = t.shed;
      cold_fraction =
        (if primary_starts = 0 then 0.0
         else float_of_int t.cold /. float_of_int primary_starts);
      mean_ms = Sketch.mean t.lat;
      p50_ms = Sketch.quantile t.lat ~p:50.0;
      p95_ms = Sketch.quantile t.lat ~p:95.0;
      p99_ms = Sketch.quantile t.lat ~p:99.0;
      max_ms = Sketch.max_seen t.lat;
      mean_wait_ms =
        (if served = 0 then 0.0 else t.fl.wait_sum /. float_of_int served);
      peak_instances = t.peak;
      resident_instance_s = t.resident_s;
      evictions = t.evictions;
      cost_usd = t.fl.cost;
      attempts = t.attempts;
      retried = t.retried;
      hedged = t.hedged;
      availability =
        (if t.requests = 0 then 1.0
         else float_of_int served /. float_of_int t.requests);
      goodput_per_s =
        (if served = 0 || window <= 0.0 then 0.0
         else float_of_int served /. window);
      retry_amplification =
        (if t.requests = 0 then 1.0
         else
           float_of_int (t.attempts + t.fb_invocations)
           /. float_of_int t.requests) }
end

(* Record mode: the stream's [fold] over the run's rows, in arrival
   order, with the engine totals the result carries. Every served latency
   is still in hand, so the percentiles are exact: one sort of them, read
   at three ranks. No sketch is filled; [mean_ms] and [max_ms] are the
   clamped running sum and max the stream's sketch keeps, taken in the
   same order, so they have its bits. *)
let summarize ?pricing ~label cfg (res : Router.result) : summary =
  let st = Stream.create ?pricing cfg in
  let n = Router.length res in
  let lat = Float.Array.create n in
  let served = ref 0 in
  let sum = ref 0.0 and mx = ref neg_infinity in
  for i = 0 to n - 1 do
    let r = Router.record res i in
    if Stream.fold st r ~sketch:false then begin
      let ms = r.Router.e2e_s *. 1000.0 in
      Float.Array.set lat !served ms;
      incr served;
      let v = Float.max 0.0 ms in
      sum := !sum +. v;
      if v > !mx then mx := v
    end
  done;
  Stream.absorb_totals st
    { Router.peak = res.Router.peak_instances;
      resident_s = res.Router.resident_instance_s;
      evicted = res.Router.evictions;
      fb_peak = res.Router.fb_peak_instances;
      fb_resident_s = res.Router.fb_resident_instance_s;
      total_events = res.Router.events_processed };
  let s = Stream.summary ~label st in
  let served = !served in
  let lat =
    Platform.Metrics.sort_samples
      (if served = n then lat else Float.Array.sub lat 0 served)
  in
  { s with
    mean_ms = (if served = 0 then 0.0 else !sum /. float_of_int served);
    p50_ms = Platform.Metrics.percentile_sorted 50.0 lat;
    p95_ms = Platform.Metrics.percentile_sorted 95.0 lat;
    p99_ms = Platform.Metrics.percentile_sorted 99.0 lat;
    max_ms = (if served = 0 then 0.0 else !mx) }

(* One app, streamed end to end: the router emits each record into the
   accumulator and nothing per-request survives the call. *)
let run_stream ?pricing ?track_ns cfg trace =
  let st = Stream.create ?pricing cfg in
  let totals = Router.run_with ?track_ns ~emit:(Stream.observe st) cfg trace in
  Stream.absorb_totals st totals;
  st

let table_header =
  Printf.sprintf
    "  %-26s %6s %5s %5s %4s %4s %4s %4s %4s %6s %8s %8s %8s %5s %10s %6s %10s"
    "" "req" "cold" "warm" "fb" "rej" "t/o" "fail" "shed" "cold%" "p50ms"
    "p95ms" "p99ms" "peak" "resident-s" "avail" "cost $"

let table_row s =
  Printf.sprintf
    "  %-26s %6d %5d %5d %4d %4d %4d %4d %4d %5.1f%% %8.1f %8.1f %8.1f %5d \
     %10.0f %5.1f%% %10.6f"
    s.label s.requests s.cold s.warm s.fallbacks s.rejected s.timed_out
    s.failed s.shed (100.0 *. s.cold_fraction) s.p50_ms s.p95_ms s.p99_ms
    s.peak_instances s.resident_instance_s
    (100.0 *. s.availability) s.cost_usd

let csv_header =
  "label,requests,served,cold,warm,fallbacks,fb_cold,rejected,timed_out,\
   cold_fraction,mean_ms,p50_ms,p95_ms,p99_ms,max_ms,mean_wait_ms,\
   peak_instances,resident_instance_s,evictions,cost_usd,\
   failed,shed,attempts,retried,hedged,availability,goodput_per_s,\
   retry_amplification"

let csv_row s =
  Printf.sprintf
    "%s,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%.3f,%d,\
     %.9f,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f"
    s.label s.requests s.served s.cold s.warm s.fallbacks s.fb_cold s.rejected
    s.timed_out s.cold_fraction s.mean_ms s.p50_ms s.p95_ms s.p99_ms s.max_ms
    s.mean_wait_ms s.peak_instances s.resident_instance_s s.evictions
    s.cost_usd s.failed s.shed s.attempts s.retried s.hedged s.availability
    s.goodput_per_s s.retry_amplification
