(* Instance pool: lifecycle, warm selection, and the three eviction
   policies. Selection scans the live table — fleets are tens to a few
   thousand instances, so O(n) scans with deterministic id tie-breaks beat
   the bookkeeping cost of an indexed structure at this scale. *)

type policy =
  | Fixed_ttl of { keep_alive_s : float }
  | Lru of { keep_alive_s : float; max_idle : int }
  | Adaptive of { min_s : float; max_s : float; percentile : float }

let policy_name = function
  | Fixed_ttl { keep_alive_s } -> Printf.sprintf "fixed-ttl-%gs" keep_alive_s
  | Lru { keep_alive_s; max_idle } ->
    Printf.sprintf "lru-%gs-cap%d" keep_alive_s max_idle
  | Adaptive { percentile; _ } -> Printf.sprintf "adaptive-p%g" percentile

type state = Idle | Busy

type instance = {
  id : int;
  born_s : float;
  mutable state : state;
  mutable busy_until : float;
  mutable idle_since : float;
  mutable expires_at : float;
  mutable idle_seq : int;
  mutable timer_seq : int;
  mutable timer_at : float;
  mutable pending_s : float;
      (* deferred lazy-init work this instance has not resolved yet
         (ARCHITECTURE §14); 0 for eager deployments *)
}

(* Idle-gap histogram for the adaptive policy: 1 s buckets, capped at one
   hour (gaps beyond that land in the last bucket — by then the clamp to
   [max_s] dominates anyway). *)
module Histogram = struct
  type t = {
    buckets : int array;
    mutable total : int;
    mutable cursor : int;  (* the bucket the last query answered *)
    mutable upto : int;    (* observations in buckets 0 .. cursor *)
  }

  let bucket_count = 3600

  let create () =
    { buckets = Array.make bucket_count 0; total = 0; cursor = 0; upto = 0 }

  let observe h gap_s =
    let i = min (bucket_count - 1) (max 0 (int_of_float gap_s)) in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.total <- h.total + 1;
    if i <= h.cursor then h.upto <- h.upto + 1

  (* Upper edge of the first bucket whose cumulative count reaches the p-th
     percentile observation. The cursor walks there from the previous
     answer instead of rescanning from bucket 0: the pool asks for one fixed
     percentile after every few observations, so successive answers sit
     close together and the walk is O(1) amortised. *)
  let percentile h p =
    if h.total = 0 then 0.0
    else begin
      let threshold =
        int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.total))
      in
      let threshold = max 1 threshold in
      while h.cursor > 0 && h.upto - h.buckets.(h.cursor) >= threshold do
        h.upto <- h.upto - h.buckets.(h.cursor);
        h.cursor <- h.cursor - 1
      done;
      while h.upto < threshold && h.cursor < bucket_count - 1 do
        h.cursor <- h.cursor + 1;
        h.upto <- h.upto + h.buckets.(h.cursor)
      done;
      if h.upto >= threshold then float_of_int (h.cursor + 1)
      else float_of_int bucket_count
    end
end

type t = {
  policy : policy;
  live : (int, instance) Hashtbl.t;
  mutable next_id : int;
  mutable peak : int;
  mutable evicted : int;
  mutable resident : float;
  hist : Histogram.t;
  mutable observations : int;
  mutable preloaded : float;
      (* total seconds of pending lazy-init work resolved during keep-alive
         idle time (see [preload_idle]) *)
  mutable idle_mru : (instance * float) list;
      (* warm-selection fast path for Fixed_ttl/Adaptive: one (instance,
         idle_since stamp) entry per idle period, most recent first.
         Release times are nondecreasing, so pushing keeps the list sorted
         by (idle_since desc, id asc) — the head valid entry is exactly
         what the O(live) [pick] scan would choose. Entries go stale in
         place (re-acquired, evicted, expired) and are dropped lazily on
         pop. Unused by [Lru], whose eviction scan needs the full table
         anyway. *)
}

let create policy =
  { policy;
    live = Hashtbl.create 64;
    next_id = 0;
    peak = 0;
    evicted = 0;
    resident = 0.0;
    hist = Histogram.create ();
    observations = 0;
    preloaded = 0.0;
    idle_mru = [] }

let live_count t = Hashtbl.length t.live
let peak_live t = t.peak
let evictions t = t.evicted
let resident_s t = t.resident

(* Warm-up threshold before the adaptive histogram is trusted. *)
let min_observations = 10

let current_keep_alive_s t =
  match t.policy with
  | Fixed_ttl { keep_alive_s } | Lru { keep_alive_s; _ } -> keep_alive_s
  | Adaptive { min_s; max_s; percentile } ->
    if t.observations < min_observations then max_s
    else
      let p = Histogram.percentile t.hist percentile in
      Float.min max_s (Float.max min_s (p *. 1.1))

let fold_live t f init =
  Hashtbl.fold (fun _ inst acc -> f acc inst) t.live init

(* Deterministic arg-best over live instances: [better a b] decides whether
   [a] beats [b]; exact ties fall back to the smaller id. *)
let pick t ~pred ~better =
  fold_live t
    (fun best inst ->
       if not (pred inst) then best
       else
         match best with
         | None -> Some inst
         | Some b ->
           if better inst b then Some inst
           else if better b inst then best
           else if inst.id < b.id then Some inst
           else best)
    None

(* Insert an idle entry keeping the (idle_since desc, id asc) order: the
   new stamp is >= every stamped entry, so it belongs at the front, behind
   any same-stamp entries with smaller ids (the leading run is almost
   always empty — equal release instants are rare). *)
let push_idle t inst =
  let stamp = inst.idle_since in
  let rec ins = function
    | ((h, hs) :: rest) as l ->
      if hs = stamp && h.id < inst.id then (h, hs) :: ins rest
      else (inst, stamp) :: l
    | [] -> [ (inst, stamp) ]
  in
  t.idle_mru <- ins t.idle_mru

(* Head valid entry of the MRU list. A stale entry — re-acquired (stamp
   mismatch or busy), evicted ([evict] poisons [expires_at]), or expired
   ([now] is nondecreasing, so it can never become valid again) — is
   dropped for good. *)
let rec pop_idle t ~now =
  match t.idle_mru with
  | [] -> None
  | (inst, stamp) :: rest ->
    if inst.state = Idle && inst.idle_since = stamp && inst.expires_at >= now
    then begin
      t.idle_mru <- rest;
      Some inst
    end
    else begin
      t.idle_mru <- rest;
      pop_idle t ~now
    end

let acquire t ~now =
  let warm =
    match t.policy with
    | Fixed_ttl _ | Adaptive _ -> pop_idle t ~now
    | Lru _ ->
      pick t
        ~pred:(fun i -> i.state = Idle && i.expires_at >= now)
        ~better:(fun a b -> a.idle_since > b.idle_since)  (* MRU *)
  in
  match warm with
  | None -> None
  | Some inst ->
    (match t.policy with
     | Adaptive _ ->
       Histogram.observe t.hist (now -. inst.idle_since);
       t.observations <- t.observations + 1
     | Fixed_ttl _ | Lru _ -> ());
    inst.state <- Busy;
    Some inst

let spawn t ~now =
  let inst =
    { id = t.next_id;
      born_s = now;
      state = Busy;
      busy_until = now;
      idle_since = now;
      expires_at = infinity;
      idle_seq = -1;
      timer_seq = -1;
      timer_at = infinity;
      pending_s = 0.0 }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.live inst.id inst;
  t.peak <- max t.peak (Hashtbl.length t.live);
  inst

let evict t inst ~now =
  Hashtbl.remove t.live inst.id;
  (* ids are never reused, so poisoning the expiry is enough to invalidate
     any idle_mru entry still pointing here *)
  inst.expires_at <- neg_infinity;
  t.evicted <- t.evicted + 1;
  t.resident <- t.resident +. (now -. inst.born_s)

(* Keep-alive timers, at most one outstanding per instance. An idle
   period's expiry is keyed (expires_at, expiry rank, idle_seq): [release]
   reserves [idle_seq] from the event queue, so the key is the one a timer
   pushed at release time would carry, but a timer is pushed only when none
   is due at or before the new expiry. When the registered timer fires, an
   instance still idle in the period it was armed for is evicted, at the
   same key; one reused and idle again is re-armed at its current key,
   which is no earlier (the timer was due by [expires_at], and [idle_seq]
   is newer); a busy one arms afresh on its next release. A timer displaced
   by an earlier expiry (an adaptive keep-alive can shrink) no longer
   matches [timer_seq] and is ignored. *)

let arm inst =
  inst.timer_seq <- inst.idle_seq;
  inst.timer_at <- inst.expires_at

let release t inst ~now ~reserve =
  inst.state <- Idle;
  inst.idle_since <- now;
  inst.expires_at <- now +. current_keep_alive_s t;
  (match t.policy with
   | Lru { max_idle; _ } ->
     let idle_count =
       fold_live t (fun n i -> if i.state = Idle then n + 1 else n) 0
     in
     if idle_count > max_idle then begin
       match
         pick t
           ~pred:(fun i -> i.state = Idle)
           ~better:(fun a b -> a.idle_since < b.idle_since)  (* LRU *)
       with
       | Some victim -> evict t victim ~now
       | None -> ()
     end
   | Fixed_ttl _ | Adaptive _ -> push_idle t inst);
  if inst.expires_at = infinity then false
  else begin
    inst.idle_seq <- reserve ();
    let covered = inst.timer_seq >= 0 && inst.timer_at <= inst.expires_at in
    if not covered then arm inst;
    not covered
  end

let reclaim t inst ~now = if Hashtbl.mem t.live inst.id then evict t inst ~now

let fire t inst ~seq ~now =
  seq = inst.timer_seq
  && begin
    inst.timer_seq <- -1;
    (* [evict] sets [expires_at] to neg_infinity, and an infinite
       keep-alive never expires *)
    if inst.state = Busy || not (Float.is_finite inst.expires_at) then false
    else if inst.idle_seq = seq then begin
      evict t inst ~now;
      false
    end
    else begin
      arm inst;
      true
    end
  end

(* --- lazy-init pending ledger (ARCHITECTURE §14) ------------------------ *)

let set_pending inst s = inst.pending_s <- s
let pending_s inst = inst.pending_s

let consume_pending inst s =
  inst.pending_s <- Float.max 0.0 (inst.pending_s -. s)

(* Profile-driven preloading: a warm instance spends its keep-alive idle
   gap resolving pending stubs in the manifest's preload order, so the
   acquiring request finds (part of) the deferred work already done. Called
   at warm-acquire time, when the just-ended idle gap [now - idle_since] is
   known. *)
let preload_idle t inst ~now =
  let gap = Float.max 0.0 (now -. inst.idle_since) in
  let resolved = Float.min gap inst.pending_s in
  if resolved > 0.0 then begin
    inst.pending_s <- inst.pending_s -. resolved;
    t.preloaded <- t.preloaded +. resolved
  end

let preloaded_s t = t.preloaded

let drain t =
  let survivors = fold_live t (fun acc i -> i :: acc) [] in
  List.iter
    (fun (i : instance) ->
       let until =
         if i.state = Busy then Float.max i.busy_until i.born_s
         else i.expires_at
       in
       evict t i ~now:until)
    survivors
