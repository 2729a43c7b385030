(* The discrete-event loop.

   Event classes are ranked so that same-instant events resolve the way the
   analytic replay does: completions (and fault detections, which free or
   kill instances) resolve before arrivals claim capacity, arrivals beat
   expiry checks (an arrival at exactly the keep-alive boundary is warm —
   [Trace.replay]'s inclusive boundary), and timeouts fire only if no
   completion at the same instant rescued the request.

   Faults are injected from a per-request plan ([Faults]): every draw is a
   pure hash of (seed, request, attempt, stream), so crash/retry/hedge
   interleavings cannot perturb each other's outcomes. With [Faults.none]
   and [Resilience.none] the simulator emits exactly the same event
   sequence as the pre-fault router — zero-fault runs are bit-identical. *)

type start_kind = Cold | Warm

let start_kind_name = function Cold -> "cold" | Warm -> "warm"

type failure = Init_failed | Crashed | Errored

let failure_name = function
  | Init_failed -> "init-failed"
  | Crashed -> "crashed"
  | Errored -> "errored"

type outcome =
  | Served of start_kind
  | Fallback_served of { trimmed : start_kind; original : start_kind }
  | Shed of start_kind
  | Rejected
  | Timed_out
  | Failed of failure

type record = {
  req : int;
  arrival_s : float;
  start_s : float;
  finish_s : float;
  wait_s : float;
  e2e_s : float;
  outcome : outcome;
  billed_ms : float;
  fb_billed_ms : float;
  attempts : int;
  hedged : bool;
}

type deployment_profile = {
  exec_s : float;
  func_init_s : float;
  instance_init_s : float;
  memory_mb : float;
}

type fallback = {
  fb_rate : float;
  fb_seed : int;
  fb_profile : deployment_profile;
  fb_policy : Pool.policy;
  fb_setup_s : float;
}

(* Lazy-loading model (ARCHITECTURE §14): [profile] describes a lazy
   deployment's measured costs (stubbed init, warm exec); the deferred
   remainder lives here. A cold instance starts with [lz_deferred_s] of
   unresolved init; each request forces at most [lz_first_touch_s] of what
   remains (added to its service time and billed duration), and with
   [lz_preload] a warm instance resolves pending stubs during its
   keep-alive idle gap in the manifest's preload order, so the next warm
   hit finds the work already done. *)
type lazy_profile = {
  lz_deferred_s : float;
  lz_first_touch_s : float;
  lz_preload : bool;
}

type config = {
  profile : deployment_profile;
  policy : Pool.policy;
  max_instances : int;
  max_pending : int;
  pending_timeout_s : float;
  fallback : fallback option;
  faults : Faults.config;
  resilience : Resilience.policy;
  lazy_load : lazy_profile option;
}

let default_config ~profile policy =
  { profile;
    policy;
    max_instances = max_int;
    max_pending = 1024;
    pending_timeout_s = 60.0;
    fallback = None;
    faults = Faults.none;
    resilience = Resilience.none;
    lazy_load = None }

type totals = {
  peak : int;
  resident_s : float;
  evicted : int;
  fb_peak : int;
  fb_resident_s : float;
  total_events : int;
}

(* Record mode's rows as flat columns, 6 words an arrival where a list of
   boxed records took 27. [wait_s] and [e2e_s] are not stored: [record]
   redoes [finalize]'s subtractions. [packed] is [-1] until the row is
   written. *)
type columns = {
  arrivals : Float.Array.t;  (* the trace's, shared *)
  start : Float.Array.t;
  finish : Float.Array.t;
  billed : Float.Array.t;
  fb_billed : Float.Array.t;
  packed : int array;
}

type result = {
  columns : columns;
  peak_instances : int;
  resident_instance_s : float;
  evictions : int;
  fb_peak_instances : int;
  fb_resident_instance_s : float;
  events_processed : int;
}

(* --- per-request state --------------------------------------------------- *)

type status = Waiting | Running | Retrying | Done

type breaker_role = Sample | Probe_req | Unsampled

(* All-float, so stored flat: the per-attempt updates write doubles in
   place instead of allocating boxes behind the write barrier. *)
type req_times = {
  mutable start : float;
  mutable acc_billed_ms : float;
  mutable touch_s : float;      (* stub-forcing time of the live attempt *)
}

type req = {
  idx : int;
  arrival : float;
      (* boxed once, when the request is read off the trace's flat array:
         the arrival push and the emitted record both share that box,
         where a flat copy in [times] would be boxed for each *)
  needs_fb : bool;
  mutable status : status;
  mutable kind : start_kind option;
  mutable attempt : int;        (* current attempt index, 0-based *)
  mutable attempts : int;       (* service attempts started (incl. hedge) *)
  mutable retries : int;        (* backoff retries consumed *)
  mutable hedged : bool;        (* a hedge has been scheduled or fired *)
  mutable hedge_inflight : bool;
  mutable shed : bool;          (* breaker routed this straight to original *)
  mutable role : breaker_role;
  mutable lane : int;           (* trace lane while the request is live *)
  mutable span : Obs.Span.h;    (* open request span (none when untraced) *)
  times : req_times;
}

(* Constant constructors are preallocated: these hand out the shared
   [Some Cold] / [Served Cold] blocks instead of allocating one per
   request. *)
let some_kind = function Cold -> Some Cold | Warm -> Some Warm
let served_as = function Cold -> Served Cold | Warm -> Served Warm

(* A start's service time and Eq.-1 billed duration, inlined so that
   their results stay unboxed. *)
let[@inline] service_s p = function
  | Cold -> p.instance_init_s +. p.func_init_s +. p.exec_s
  | Warm -> p.exec_s

let[@inline] billed_ms p = function
  | Cold -> 1000.0 *. (p.func_init_s +. p.exec_s)
  | Warm -> 1000.0 *. p.exec_s

(* Profile times are durations: a NaN or negative one would run events
   backwards or price nonsense. *)
let validate_profile name p =
  let check field v =
    if not (v >= 0.0) then
      invalid_arg
        (Printf.sprintf "Router: %s.%s must be >= 0 (got %g)" name field v)
  in
  check "exec_s" p.exec_s;
  check "func_init_s" p.func_init_s;
  check "instance_init_s" p.instance_init_s

type event =
  | Complete of req * Pool.instance
  | Fault_hit of req * int * Pool.instance * failure * float
      (* attempt at scheduling time; billed ms for the doomed attempt *)
  | Fb_complete of req * Pool.instance * start_kind
  | Arrival of req
  | Fb_arrival of req
  | Retry of req
  | Hedge of req
  | Timeout of req * int               (* attempt at scheduling time *)
  | Expire of Pool.t * Pool.instance * int  (* keep-alive timer, its seq *)

(* Trace arrivals get a rank of their own, strictly below every event the
   simulation schedules at the same instant and the same old tier (retries,
   hedges, fallback arrivals). This encodes what used to be implicit in
   pushing all arrivals up front — their sequence numbers preceded every
   runtime push, so they won (time, rank, seq) ties — and is what lets the
   loop feed arrivals lazily from a cursor instead, keeping the event queue
   at the in-flight population rather than the whole trace. *)
let rank = function
  | Complete _ | Fb_complete _ | Fault_hit _ -> 0
  | Arrival _ -> 1
  | Fb_arrival _ | Retry _ | Hedge _ -> 2
  | Timeout _ -> 3
  | Expire _ -> 4

let outcome_label = function
  | Served k -> "served-" ^ start_kind_name k
  | Fallback_served { trimmed; original } ->
    Printf.sprintf "fallback-%s-%s" (start_kind_name trimmed)
      (start_kind_name original)
  | Shed k -> "shed-" ^ start_kind_name k
  | Rejected -> "rejected"
  | Timed_out -> "timed-out"
  | Failed f -> "failed-" ^ failure_name f

(* Trace geometry (domain_fleet; simulation seconds exported as ms):
   request spans live on a small set of reused lanes (allocated at arrival,
   freed at finalize — concurrent requests get distinct lanes, so each lane
   is a disjoint sequence of request intervals), while attempt spans live on
   per-instance tracks: a hedged request's stale attempt can outlive the
   request span that spawned it, so attempts cannot share the request's
   lane without breaking well-nesting. Instance busy periods never overlap,
   which makes per-instance tracks well-nested by construction.

   Every [run] gets its own track namespace (a disjoint [run_base] stride):
   two runs in one process replay overlapping simulation-time ranges with
   colliding lane/instance numbering, so sharing tracks would interleave
   their spans. The caller may name the namespace ([?track_ns]); otherwise
   it is the next [Obs.Span.fresh_track], which depends on the order runs
   start in. *)
let run_stride = 1_000_000

(* --- the simulation ------------------------------------------------------ *)

(* Every trace runs on the heap. Arrivals are fed one at a time and each
   instance has at most one keep-alive timer outstanding (see [Pool]), so
   the queue holds only in-flight work and live instances' timers — a
   population too small for a calendar queue to pay off. *)
let queue_kind_for (_ : Platform.Trace.t) = Events.Heap

let run_with ?track_ns ~(emit : record -> unit) cfg (trace : Platform.Trace.t)
    : totals =
  Faults.validate cfg.faults;
  Resilience.validate cfg.resilience;
  Pool.validate cfg.policy;
  validate_profile "profile" cfg.profile;
  Option.iter
    (fun fb ->
       Pool.validate fb.fb_policy;
       validate_profile "fb_profile" fb.fb_profile)
    cfg.fallback;
  let sink = Obs.Span.installed () in
  let traced = Obs.Span.enabled sink in
  let run_base =
    if not traced then 0
    else
      run_stride
      * (match track_ns with
         | Some ns -> ns
         | None -> Obs.Span.fresh_track sink)
  in
  let free_lanes = ref [] in
  let next_lane = ref 0 in
  let alloc_lane () =
    match !free_lanes with
    | l :: rest ->
      free_lanes := rest;
      l
    | [] ->
      incr next_lane;
      run_base + !next_lane
  in
  (* an attempt's extent is known the moment it is scheduled: emit the span
     immediately with both endpoints *)
  let attempt_span ?(fb = false) inst ~kind ~start_s ~end_s ~r ~result =
    if traced then begin
      let track, prefix =
        if fb then (run_base + 200_000 + inst.Pool.id, "fb-attempt:")
        else (run_base + 100_000 + inst.Pool.id, "attempt:")
      in
      let sp =
        Obs.Span.begin_ sink ~domain:Obs.Span.domain_fleet ~track ~cat:"fleet"
          ~name:(prefix ^ start_kind_name kind) ~ts_ms:(start_s *. 1000.0)
      in
      Obs.Span.end_ sp
        ~attrs:
          [ ("req", string_of_int r.idx);
            ("attempt", string_of_int r.attempt);
            ("result", result) ]
        ~ts_ms:(end_s *. 1000.0)
    end
  in
  let q : event Events.t = Events.create () in
  let push ~time ev = Events.push q ~time ~rank:(rank ev) ev in
  let reserve () = Events.reserve q in
  (* push [inst]'s keep-alive timer at its idle period's expiry key *)
  let arm pool inst =
    let seq = inst.Pool.idle_seq in
    let ev = Expire (pool, inst, seq) in
    Events.push_reserved q ~time:inst.Pool.times.Pool.expires_at ~rank:(rank ev)
      ~seq ev
  in
  let pool = Pool.create cfg.policy in
  let fb_pool =
    match cfg.fallback with
    | Some fb -> Some (Pool.create fb.fb_policy)
    | None -> None
  in
  (* deterministic per-request §7 draws, in arrival order (the legacy
     sequential coin flip, part of the request's fault plan) *)
  let draws =
    match cfg.fallback with
    | None -> fun () -> false
    | Some fb -> Faults.fallback_flags ~seed:fb.fb_seed ~rate:fb.fb_rate
  in
  let breaker =
    match cfg.resilience.Resilience.breaker, cfg.fallback with
    | Some bcfg, Some _ ->
      Some (Resilience.Breaker.create ~obs_track:run_base bcfg)
    | Some _, None ->
      invalid_arg "Router: a circuit breaker requires a configured fallback"
    | None, _ -> None
  in
  (* arrivals are fed lazily, one index down the trace's (sorted) array
     per popped arrival, so the queue only ever holds the in-flight events
     plus the single next arrival — not the whole trace. Arrival rank 1
     preserves the pre-push tie order (see [rank]). *)
  let arrivals = trace.Platform.Trace.arrivals_s in
  let next_idx = ref 0 in
  let feed_arrival () =
    let idx = !next_idx in
    if idx < Float.Array.length arrivals then begin
      next_idx := idx + 1;
      let arrival = Float.Array.get arrivals idx in
      let r =
        { idx; arrival; needs_fb = draws (); status = Waiting; kind = None;
          attempt = 0; attempts = 0; retries = 0; hedged = false;
          hedge_inflight = false; shed = false; role = Unsampled; lane = 0;
          span = Obs.Span.none;
          times = { start = arrival; acc_billed_ms = 0.0; touch_s = 0.0 } }
      in
      push ~time:r.arrival (Arrival r)
    end
  in
  feed_arrival ();
  let pending : req Queue.t = Queue.create () in
  let pending_count = ref 0 in
  let events_processed = ref 0 in
  (* the single place record invariants are enforced *)
  let finalize (r : req) ~start ~finish ~outcome ~billed ~fb_billed =
    let arrival = r.arrival in
    assert (billed >= 0.0);
    assert (fb_billed >= 0.0);
    assert (finish >= start);
    assert (start >= arrival);
    r.status <- Done;
    emit
      { req = r.idx;
        arrival_s = arrival;
        start_s = start;
        finish_s = finish;
        wait_s = start -. arrival;
        e2e_s = finish -. arrival;
        outcome;
        billed_ms = billed;
        fb_billed_ms = fb_billed;
        attempts = r.attempts;
        hedged = r.hedged };
    if traced then begin
      Obs.Span.end_ r.span
        ~attrs:
          [ ("outcome", outcome_label outcome);
            ("attempts", string_of_int r.attempts);
            ("retries", string_of_int r.retries);
            ("hedged", string_of_bool r.hedged);
            ("billed_ms", Printf.sprintf "%.3f" (billed +. fb_billed)) ]
        ~ts_ms:(finish *. 1000.0);
      free_lanes := r.lane :: !free_lanes
    end
  in
  let serve (r : req) inst ~now ~kind =
    r.status <- Running;
    r.times.start <- now;
    r.kind <- some_kind kind;
    r.attempts <- r.attempts + 1;
    let attempt = r.attempt in
    (* lazy deployments (ARCHITECTURE §14): settle the instance's
       deferred-init ledger. A cold start records the full deferred amount;
       a warm start with preloading on first resolves whatever the idle gap
       covered. The attempt then forces at most [lz_first_touch_s] of the
       remainder, extending its service time and billed duration. Doomed
       attempts (init failure, crash) leave the ledger untouched — the
       instance is reclaimed anyway. *)
    let touch =
      match cfg.lazy_load with
      | None -> 0.0
      | Some lz ->
        (match kind with
         | Cold -> Pool.set_pending inst lz.lz_deferred_s
         | Warm -> if lz.lz_preload then Pool.preload_idle inst ~now);
        Float.min (Pool.pending_s inst) lz.lz_first_touch_s
    in
    r.times.touch_s <- 0.0;
    match
      Faults.attempt_fault cfg.faults ~cold:(kind = Cold) ~req:r.idx ~attempt
    with
    | Faults.No_fault ->
      Pool.consume_pending inst touch;
      r.times.touch_s <- touch;
      let finish = now +. service_s cfg.profile kind +. touch in
      inst.Pool.times.Pool.busy_until <- finish;
      attempt_span inst ~kind ~start_s:now ~end_s:finish ~r ~result:"ok";
      push ~time:finish (Complete (r, inst))
    | Faults.Init_failure ->
      (* only drawn for cold starts: init runs to its end, fails, and the
         instance dies; the init duration is billed *)
      let t_fail =
        now +. cfg.profile.instance_init_s +. cfg.profile.func_init_s
      in
      inst.Pool.times.Pool.busy_until <- t_fail;
      attempt_span inst ~kind ~start_s:now ~end_s:t_fail
        ~r ~result:(failure_name Init_failed);
      push ~time:t_fail
        (Fault_hit (r, attempt, inst, Init_failed,
                    1000.0 *. cfg.profile.func_init_s));
      (match cfg.resilience.Resilience.hedge with
       | Some h when not r.hedged ->
         (* speculative recovery: re-dispatch hedge_delay after the cold
            start began, without waiting for the failure to be detected *)
         r.hedged <- true;
         r.hedge_inflight <- true;
         push ~time:(now +. h.Resilience.hedge_delay_s) (Hedge r)
       | _ -> ())
    | Faults.Crash { after_fraction } ->
      let init_s =
        match kind with
        | Cold -> cfg.profile.instance_init_s +. cfg.profile.func_init_s
        | Warm -> 0.0
      in
      let t_crash = now +. init_s +. (after_fraction *. cfg.profile.exec_s) in
      inst.Pool.times.Pool.busy_until <- t_crash;
      let billed =
        (match kind with
         | Cold -> 1000.0 *. cfg.profile.func_init_s
         | Warm -> 0.0)
        +. (1000.0 *. after_fraction *. cfg.profile.exec_s)
      in
      attempt_span inst ~kind ~start_s:now ~end_s:t_crash
        ~r ~result:(failure_name Crashed);
      push ~time:t_crash (Fault_hit (r, attempt, inst, Crashed, billed))
    | Faults.Transient_error ->
      (* runs to completion, billed in full, but returns an error *)
      Pool.consume_pending inst touch;
      let finish = now +. service_s cfg.profile kind +. touch in
      inst.Pool.times.Pool.busy_until <- finish;
      attempt_span inst ~kind ~start_s:now ~end_s:finish
        ~r ~result:(failure_name Errored);
      push ~time:finish
        (Fault_hit (r, attempt, inst, Errored,
                    billed_ms cfg.profile kind +. (1000.0 *. touch)))
  in
  (* dispatch from the pending queue while capacity allows; stale entries
     (timed out) are dropped lazily *)
  let rec drain_pending ~now =
    match Queue.peek_opt pending with
    | None -> ()
    | Some r when r.status <> Waiting ->
      ignore (Queue.pop pending);
      drain_pending ~now
    | Some r ->
      (match Pool.acquire pool ~now with
       | Some inst ->
         ignore (Queue.pop pending);
         decr pending_count;
         serve r inst ~now ~kind:Warm;
         drain_pending ~now
       | None ->
         if Pool.live_count pool < cfg.max_instances then begin
           ignore (Queue.pop pending);
           decr pending_count;
           serve r (Pool.spawn pool ~now) ~now ~kind:Cold;
           drain_pending ~now
         end)
  in
  let breaker_record (r : req) ~now ~failed =
    match breaker with
    | None -> ()
    | Some b ->
      (match r.role with
       | Sample -> Resilience.Breaker.record b ~now ~failed
       | Probe_req -> Resilience.Breaker.probe_result b ~now ~failed
       | Unsampled -> ())
  in
  (* a probe that dies, bounces, or times out must not wedge the breaker
     half-open; its loss re-opens the breaker *)
  let resolve_probe_failure (r : req) ~now =
    match r.role with
    | Probe_req -> breaker_record r ~now ~failed:true
    | Sample | Unsampled -> ()
  in
  let dispatch_primary (r : req) ~now =
    match Pool.acquire pool ~now with
    | Some inst -> serve r inst ~now ~kind:Warm
    | None ->
      if Pool.live_count pool < cfg.max_instances then
        serve r (Pool.spawn pool ~now) ~now ~kind:Cold
      else if !pending_count < cfg.max_pending then begin
        r.status <- Waiting;
        Queue.push r pending;
        incr pending_count;
        if cfg.pending_timeout_s < infinity then
          push ~time:(now +. cfg.pending_timeout_s) (Timeout (r, r.attempt))
      end
      else begin
        resolve_probe_failure r ~now;
        finalize r ~start:now ~finish:now ~outcome:Rejected
          ~billed:r.times.acc_billed_ms ~fb_billed:0.0
      end
  in
  let dispatch (r : req) ~now =
    match breaker with
    | None -> dispatch_primary r ~now
    | Some b ->
      (match Resilience.Breaker.admit b ~now with
       | Resilience.Breaker.Admit ->
         r.role <- Sample;
         dispatch_primary r ~now
       | Resilience.Breaker.Probe ->
         r.role <- Probe_req;
         dispatch_primary r ~now
       | Resilience.Breaker.Shed ->
         (* breaker open: pay the wrapper overhead and run the original
            image directly — no trimmed execution, no removal risk *)
         let fb = Option.get cfg.fallback in
         r.role <- Unsampled;
         r.shed <- true;
         r.status <- Running;
         r.times.start <- now;
         push ~time:(now +. fb.fb_setup_s) (Fb_arrival r))
  in
  (* releasing an instance back to its pool, unless churn reclaims it *)
  let release_and_schedule pool inst ~now =
    if Pool.release pool inst ~now ~reserve then arm pool inst
  in
  let release_primary (r : req) inst ~now =
    if Faults.churned cfg.faults ~fb:false ~req:r.idx ~attempt:r.attempt then
      Pool.reclaim pool inst ~now
    else
      release_and_schedule pool inst ~now
  in
  (* a failed attempt: consume a retry if the budget and the request's
     timeout budget allow, otherwise the failure is final *)
  let fail_or_retry (r : req) ~now ~failure =
    let give_up () =
      resolve_probe_failure r ~now;
      finalize r ~start:r.times.start ~finish:now ~outcome:(Failed failure)
        ~billed:r.times.acc_billed_ms ~fb_billed:0.0
    in
    match cfg.resilience.Resilience.retry with
    | Some rp when r.retries < rp.Resilience.max_retries ->
      let jitter_u = Faults.jitter cfg.faults ~req:r.idx ~retry:r.retries in
      let wait =
        Resilience.backoff_s rp ~retry_index:r.retries ~jitter_u
      in
      let t = now +. wait in
      if t -. r.arrival > cfg.resilience.Resilience.request_timeout_s
      then
        give_up ()
      else begin
        r.retries <- r.retries + 1;
        r.status <- Retrying;
        push ~time:t (Retry r)
      end
    | _ -> give_up ()
  in
  let rec loop () =
    if Events.length q > 0 then begin
      let ev = Events.take q in
      let now = Events.last_time q in
      incr events_processed;
      (match ev with
       | Arrival r ->
         feed_arrival ();
         if traced then begin
           r.lane <- alloc_lane ();
           r.span <-
             Obs.Span.begin_ sink ~domain:Obs.Span.domain_fleet ~track:r.lane
               ~cat:"fleet"
               ~name:(Printf.sprintf "request:%d" r.idx)
               ~ts_ms:(now *. 1000.0)
         end;
         dispatch r ~now
       | Complete (r, inst) ->
         release_primary r inst ~now;
         let kind = Option.get r.kind in
         let rt = r.times in
         rt.acc_billed_ms <-
           rt.acc_billed_ms
           +. billed_ms cfg.profile kind
           +. (1000.0 *. rt.touch_s);
         breaker_record r ~now ~failed:r.needs_fb;
         (match cfg.fallback with
          | Some fb when r.needs_fb ->
            push ~time:(now +. fb.fb_setup_s) (Fb_arrival r)
          | _ ->
            finalize r ~start:rt.start ~finish:now ~outcome:(served_as kind)
              ~billed:rt.acc_billed_ms ~fb_billed:0.0);
         drain_pending ~now
       | Fault_hit (r, attempt, inst, failure, billed) ->
         (match failure with
          | Errored -> release_primary r inst ~now
          | Init_failed | Crashed -> Pool.reclaim pool inst ~now);
         r.times.acc_billed_ms <- r.times.acc_billed_ms +. billed;
         (* act only if this is still the request's live attempt (a hedge
            may already have taken over) *)
         if r.attempt = attempt && r.status = Running then begin
           if r.hedge_inflight then
             (* the hedge scheduled at serve time will re-dispatch *)
             r.status <- Retrying
           else fail_or_retry r ~now ~failure
         end;
         drain_pending ~now
       | Retry r ->
         if r.status = Retrying then begin
           if traced then
             Obs.Span.instant sink ~domain:Obs.Span.domain_fleet ~track:r.lane
               ~cat:"fleet" ~name:"retry"
               ~attrs:[ ("retry", string_of_int r.retries) ]
               ~ts_ms:(now *. 1000.0);
           r.attempt <- r.attempt + 1;
           dispatch r ~now
         end
       | Hedge r ->
         r.hedge_inflight <- false;
         if r.status = Running || r.status = Retrying then begin
           if traced then
             Obs.Span.instant sink ~domain:Obs.Span.domain_fleet ~track:r.lane
               ~cat:"fleet" ~name:"hedge" ~ts_ms:(now *. 1000.0);
           r.attempt <- r.attempt + 1;
           dispatch r ~now
         end
       | Fb_arrival r ->
         let fb = Option.get cfg.fallback in
         let fbp = Option.get fb_pool in
         let kind, inst =
           match Pool.acquire fbp ~now with
           | Some inst -> (Warm, inst)
           | None -> (Cold, Pool.spawn fbp ~now)
         in
         let finish = now +. service_s fb.fb_profile kind in
         inst.Pool.times.Pool.busy_until <- finish;
         attempt_span ~fb:true inst ~kind ~start_s:now ~end_s:finish ~r
           ~result:"ok";
         push ~time:finish (Fb_complete (r, inst, kind))
       | Fb_complete (r, inst, fb_kind) ->
         let fb = Option.get cfg.fallback in
         let fbp = Option.get fb_pool in
         if Faults.churned cfg.faults ~fb:true ~req:r.idx ~attempt:r.attempt
         then Pool.reclaim fbp inst ~now
         else release_and_schedule fbp inst ~now;
         let fb_billed = billed_ms fb.fb_profile fb_kind in
         if r.shed then
           finalize r ~start:r.times.start ~finish:now ~outcome:(Shed fb_kind)
             ~billed:r.times.acc_billed_ms ~fb_billed
         else
           let trimmed = Option.get r.kind in
           finalize r ~start:r.times.start ~finish:now
             ~outcome:(Fallback_served { trimmed; original = fb_kind })
             ~billed:r.times.acc_billed_ms ~fb_billed
       | Timeout (r, attempt) ->
         (* the attempt tag rejects stale timers: a request served and
            later re-queued by a retry must not inherit the old deadline *)
         if r.status = Waiting && r.attempt = attempt then begin
           decr pending_count;
           resolve_probe_failure r ~now;
           finalize r ~start:now ~finish:now ~outcome:Timed_out
             ~billed:r.times.acc_billed_ms ~fb_billed:0.0
         end
       | Expire (p, inst, seq) ->
         (* A timer never drains the pending queue. Between handlers no
            request waits while capacity is free: every event that frees
            capacity (completion, fault) drains, and arrivals, retries and
            hedges take free capacity before they queue. An instance idle
            until its expiry was such free capacity, so nothing waits when
            it is evicted — the per-release expiries these timers replace
            drained nothing, stale or not. *)
         if Pool.fire p inst ~seq ~now then arm p inst);
      loop ()
    end
  in
  loop ();
  (* the queue drained, so every instance has been released and expired;
     drain is a no-op safety net for infinite keep-alives *)
  Pool.drain pool;
  Option.iter Pool.drain fb_pool;
  { peak = Pool.peak_live pool;
    resident_s = Pool.resident_s pool;
    evicted = Pool.evictions pool;
    fb_peak = (match fb_pool with Some p -> Pool.peak_live p | None -> 0);
    fb_resident_s =
      (match fb_pool with Some p -> Pool.resident_s p | None -> 0.0);
    total_events = !events_processed }

(* --- record mode ---------------------------------------------------------- *)

(* The 13 outcomes, indexed by their packed code. *)
let outcomes =
  [| Served Cold; Served Warm;
     Fallback_served { trimmed = Cold; original = Cold };
     Fallback_served { trimmed = Cold; original = Warm };
     Fallback_served { trimmed = Warm; original = Cold };
     Fallback_served { trimmed = Warm; original = Warm };
     Shed Cold; Shed Warm; Rejected; Timed_out;
     Failed Init_failed; Failed Crashed; Failed Errored |]

let kind_code = function Cold -> 0 | Warm -> 1

let outcome_code = function
  | Served k -> kind_code k
  | Fallback_served { trimmed; original } ->
    2 + (2 * kind_code trimmed) + kind_code original
  | Shed k -> 6 + kind_code k
  | Rejected -> 8
  | Timed_out -> 9
  | Failed Init_failed -> 10
  | Failed Crashed -> 11
  | Failed Errored -> 12

let pack_row outcome ~attempts ~hedged =
  outcome_code outcome lor (Bool.to_int hedged lsl 4) lor (attempts lsl 5)

let unpack_row w = (outcomes.(w land 15), w lsr 5, w land 16 <> 0)

(* Record mode: every arrival finalizes exactly once with [req] equal to
   its trace index, so each row goes straight into its slot of the
   pre-sized columns — no accumulation list, no final sort. *)
let run cfg (trace : Platform.Trace.t) : result =
  let n = Platform.Trace.length trace in
  let c =
    { arrivals = trace.Platform.Trace.arrivals_s;
      start = Float.Array.create n;
      finish = Float.Array.create n;
      billed = Float.Array.create n;
      fb_billed = Float.Array.create n;
      packed = Array.make n (-1) }
  in
  let emitted = ref 0 in
  let emit r =
    let i = r.req in
    assert (c.packed.(i) = -1);
    Float.Array.set c.start i r.start_s;
    Float.Array.set c.finish i r.finish_s;
    Float.Array.set c.billed i r.billed_ms;
    Float.Array.set c.fb_billed i r.fb_billed_ms;
    c.packed.(i) <- pack_row r.outcome ~attempts:r.attempts ~hedged:r.hedged;
    incr emitted
  in
  let t = run_with ~emit cfg trace in
  assert (!emitted = n);
  { columns = c;
    peak_instances = t.peak;
    resident_instance_s = t.resident_s;
    evictions = t.evicted;
    fb_peak_instances = t.fb_peak;
    fb_resident_instance_s = t.fb_resident_s;
    events_processed = t.total_events }

let length res = Array.length res.columns.packed

let record res i =
  let c = res.columns in
  let arrival = Float.Array.get c.arrivals i in
  let start = Float.Array.get c.start i in
  let finish = Float.Array.get c.finish i in
  let w = c.packed.(i) in
  { req = i;
    arrival_s = arrival;
    start_s = start;
    finish_s = finish;
    wait_s = start -. arrival;
    e2e_s = finish -. arrival;
    outcome = outcomes.(w land 15);
    billed_ms = Float.Array.get c.billed i;
    fb_billed_ms = Float.Array.get c.fb_billed i;
    attempts = w lsr 5;
    hedged = w land 16 <> 0 }

