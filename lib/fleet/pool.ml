(* Instance pool: lifecycle, warm selection, and the three eviction
   policies. Every policy selects from one idle stack ordered by release
   time: the warm pick comes off its top, [Lru]'s eviction victim off its
   bottom, both with deterministic id tie-breaks. *)

type policy =
  | Fixed_ttl of { keep_alive_s : float }
  | Lru of { keep_alive_s : float; max_idle : int }
  | Adaptive of { min_s : float; max_s : float; percentile : float }

let policy_name = function
  | Fixed_ttl { keep_alive_s } -> Printf.sprintf "fixed-ttl-%gs" keep_alive_s
  | Lru { keep_alive_s; max_idle } ->
    Printf.sprintf "lru-%gs-cap%d" keep_alive_s max_idle
  | Adaptive { percentile; _ } -> Printf.sprintf "adaptive-p%g" percentile

(* The CLI checks its own flags; this is the check every library caller
   gets too. [min_s > max_s] stays legal: the clamp then answers [max_s]
   ([ltrim fleet --policy adaptive --keep-alive 30] builds one). *)
let validate policy =
  let duration name v =
    if not (v >= 0.0) then
      invalid_arg
        (Printf.sprintf "Pool: %s must be >= 0 or infinity (got %g)" name v)
  in
  match policy with
  | Fixed_ttl { keep_alive_s } -> duration "keep_alive_s" keep_alive_s
  | Lru { keep_alive_s; max_idle } ->
    duration "keep_alive_s" keep_alive_s;
    if max_idle < 0 then
      invalid_arg (Printf.sprintf "Pool: max_idle must be >= 0 (got %d)" max_idle)
  | Adaptive { min_s; max_s; percentile } ->
    duration "min_s" min_s;
    duration "max_s" max_s;
    if not (percentile >= 0.0 && percentile <= 100.0) then
      invalid_arg
        (Printf.sprintf "Pool: percentile must be in [0, 100] (got %g)"
           percentile)

type state = Idle | Busy

(* All-float, so OCaml stores it flat: updating a field writes a double in
   place instead of allocating a box and paying the write barrier. *)
type times = {
  born_s : float;
  mutable busy_until : float;
  mutable idle_since : float;
  mutable expires_at : float;
  mutable timer_at : float;
  mutable pending_s : float;
      (* deferred lazy-init work this instance has not resolved yet
         (ARCHITECTURE §14); 0 for eager deployments *)
}

type instance = {
  id : int;
  mutable state : state;
  mutable idle_seq : int;
  mutable timer_seq : int;
  times : times;
}

(* Idle-gap histogram for the adaptive policy: 1 s buckets, capped at one
   hour (gaps beyond that land in the last bucket — by then the clamp to
   [max_s] dominates anyway). The buckets are allocated on the first
   observation, so a pool that never observes (fixed-TTL, LRU) allocates
   none. *)
module Histogram = struct
  type t = {
    mutable buckets : int array;  (* empty until the first observation *)
    mutable total : int;
    mutable cursor : int;  (* the bucket the last query answered *)
    mutable upto : int;    (* observations in buckets 0 .. cursor *)
  }

  let bucket_count = 3600

  let create () = { buckets = [||]; total = 0; cursor = 0; upto = 0 }

  let[@inline] observe h gap_s =
    let i = min (bucket_count - 1) (max 0 (int_of_float gap_s)) in
    if h.total = 0 then h.buckets <- Array.make bucket_count 0;
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.total <- h.total + 1;
    if i <= h.cursor then h.upto <- h.upto + 1

  (* Upper edge of the first bucket whose cumulative count reaches the p-th
     percentile observation. The cursor walks there from the previous
     answer instead of rescanning from bucket 0: the pool asks for one fixed
     percentile after every few observations, so successive answers sit
     close together and the walk is O(1) amortised. *)
  let[@inline] percentile h p =
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

(* Single float field, so stored flat: the cached TTL is read and written
   without a box. *)
type keep_alive = { mutable ka_s : float }

type t = {
  policy : policy;
  live : (int, instance) Hashtbl.t;
  mutable next_id : int;
  mutable peak : int;
  mutable evicted : int;
  mutable idle : int;  (* live instances in state [Idle] *)
  mutable resident : float;
  hist : Histogram.t;  (* read and filled by [Adaptive] only *)
  mutable observations : int;
  ka : keep_alive;
  mutable ka_stale : bool;
      (* [Adaptive] only: [ka] is recomputed on the first release after an
         observation, and answers every release until the next one *)
  mutable mru : instance array;
  mutable mru_since : Float.Array.t;
  mutable mru_len : int;
  mutable mru_bot : int;
      (* the idle stack: (instance, idle_since stamp) entries in
         [mru_bot, mru_len), one per idle period, the most recent on top
         (index [mru_len - 1]). Release times are nondecreasing, so pushing
         keeps it sorted by (idle_since desc, id asc) from the top: the top
         valid entry is the MRU instance, and the valid entry with the
         smallest id in the bottom stamp run is the LRU one. Entries go
         stale in place (re-acquired, evicted) and are dropped lazily, off
         the top by [pop_idle] and off the bottom by [lru_victim]. Slots
         outside the range keep whatever they last held until
         overwritten. *)
}

let create policy =
  { policy;
    live = Hashtbl.create 64;
    next_id = 0;
    peak = 0;
    evicted = 0;
    idle = 0;
    resident = 0.0;
    hist = Histogram.create ();
    observations = 0;
    ka = { ka_s = 0.0 };
    ka_stale = true;
    mru = [||];
    mru_since = Float.Array.create 0;
    mru_len = 0;
    mru_bot = 0 }

let live_count t = Hashtbl.length t.live
let peak_live t = t.peak
let evictions t = t.evicted
let resident_s t = t.resident

(* Warm-up threshold before the adaptive histogram is trusted. *)
let min_observations = 10

let refresh_keep_alive t ~min_s ~max_s ~percentile =
  t.ka.ka_s <-
    (if t.observations < min_observations then max_s
     else
       let p = Histogram.percentile t.hist percentile in
       Float.min max_s (Float.max min_s (p *. 1.1)));
  t.ka_stale <- false

(* Inlined, so [release] reads the cached TTL unboxed. *)
let[@inline] current_keep_alive_s t =
  match t.policy with
  | Fixed_ttl { keep_alive_s } | Lru { keep_alive_s; _ } -> keep_alive_s
  | Adaptive { min_s; max_s; percentile } ->
    if t.ka_stale then refresh_keep_alive t ~min_s ~max_s ~percentile;
    t.ka.ka_s

(* An entry that still stands for its instance's idle period: idle since
   the entry's stamp (not re-acquired) and not evicted ([evict] poisons
   [expires_at]; ids are never reused, so an entry cannot resurrect). *)
let[@inline] valid t j =
  let inst = t.mru.(j) in
  inst.state = Idle
  && inst.times.idle_since = Float.Array.get t.mru_since j
  && inst.times.expires_at > neg_infinity

(* Push an idle entry keeping the (idle_since desc, id asc) order from the
   top: the new stamp is >= every stamped entry, so it belongs on top,
   under any same-stamp entries with smaller ids (that run is almost
   always empty — equal release instants are rare). A full buffer first
   slides the live range down over the dropped bottom, and doubles only if
   that frees less than half of it. *)
let push_idle t inst =
  let stamp = inst.times.idle_since in
  if t.mru_len = Array.length t.mru then begin
    let n = t.mru_len - t.mru_bot in
    let cap = Array.length t.mru in
    let mru, since =
      if 2 * n < cap then (t.mru, t.mru_since)
      else
        let cap = max 16 (2 * cap) in
        (Array.make cap inst, Float.Array.make cap 0.0)
    in
    Array.blit t.mru t.mru_bot mru 0 n;
    Float.Array.blit t.mru_since t.mru_bot since 0 n;
    t.mru <- mru;
    t.mru_since <- since;
    t.mru_bot <- 0;
    t.mru_len <- n
  end;
  let len = t.mru_len in
  let j = ref len in
  while
    !j > t.mru_bot
    && Float.Array.get t.mru_since (!j - 1) = stamp
    && t.mru.(!j - 1).id < inst.id
  do
    t.mru.(!j) <- t.mru.(!j - 1);
    Float.Array.set t.mru_since !j (Float.Array.get t.mru_since (!j - 1));
    decr j
  done;
  t.mru.(!j) <- inst;
  Float.Array.set t.mru_since !j stamp;
  t.mru_len <- len + 1

(* Top valid entry of the idle stack whose keep-alive covers [now]; stale
   entries above it are dropped for good. An expired valid entry ([now] is
   nondecreasing, so it never revives) is dropped too, except under [Lru]:
   there it is still idle, so still an eviction candidate, and with a
   fixed TTL every entry below it has expired as well. *)
let rec pop_idle t ~now =
  if t.mru_len = t.mru_bot then None
  else begin
    let top = t.mru_len - 1 in
    if not (valid t top) then begin
      t.mru_len <- top;
      pop_idle t ~now
    end
    else begin
      let inst = t.mru.(top) in
      if inst.times.expires_at >= now then begin
        t.mru_len <- top;
        Some inst
      end
      else
        match t.policy with
        | Lru _ -> None
        | Fixed_ttl _ | Adaptive _ ->
          t.mru_len <- top;
          pop_idle t ~now
    end
  end

(* The longest-idle instance (min idle_since, tie -> min id): the smallest
   id among the valid entries of the bottom stamp run. Stale entries below
   that run are dropped for good. *)
let lru_victim t =
  while t.mru_bot < t.mru_len && not (valid t t.mru_bot) do
    t.mru_bot <- t.mru_bot + 1
  done;
  if t.mru_bot = t.mru_len then None
  else begin
    let stamp = Float.Array.get t.mru_since t.mru_bot in
    let best = ref t.mru.(t.mru_bot) in
    let j = ref (t.mru_bot + 1) in
    while !j < t.mru_len && Float.Array.get t.mru_since !j = stamp do
      if valid t !j && t.mru.(!j).id < !best.id then best := t.mru.(!j);
      incr j
    done;
    Some !best
  end

let acquire t ~now =
  let warm = pop_idle t ~now in
  (match warm with
   | None -> ()
   | Some inst ->
     (match t.policy with
      | Adaptive _ ->
        Histogram.observe t.hist (now -. inst.times.idle_since);
        t.observations <- t.observations + 1;
        t.ka_stale <- true
      | Fixed_ttl _ | Lru _ -> ());
     t.idle <- t.idle - 1;
     inst.state <- Busy);
  warm

let spawn t ~now =
  let inst =
    { id = t.next_id;
      state = Busy;
      idle_seq = -1;
      timer_seq = -1;
      times =
        { born_s = now;
          busy_until = now;
          idle_since = now;
          expires_at = infinity;
          timer_at = infinity;
          pending_s = 0.0 } }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.live inst.id inst;
  t.peak <- max t.peak (Hashtbl.length t.live);
  inst

let evict t inst ~now =
  Hashtbl.remove t.live inst.id;
  if inst.state = Idle then t.idle <- t.idle - 1;
  (* ids are never reused, so poisoning the expiry is enough to invalidate
     any idle-stack entry still pointing here *)
  inst.times.expires_at <- neg_infinity;
  t.evicted <- t.evicted + 1;
  t.resident <- t.resident +. (now -. inst.times.born_s)

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
  inst.times.timer_at <- inst.times.expires_at

let release t inst ~now ~reserve =
  let c = inst.times in
  inst.state <- Idle;
  c.idle_since <- now;
  c.expires_at <- now +. current_keep_alive_s t;
  t.idle <- t.idle + 1;
  push_idle t inst;
  (match t.policy with
   | Lru { max_idle; _ } when t.idle > max_idle ->
     Option.iter (fun victim -> evict t victim ~now) (lru_victim t)
   | Lru _ | Fixed_ttl _ | Adaptive _ -> ());
  if c.expires_at = infinity then false
  else begin
    inst.idle_seq <- reserve ();
    let covered = inst.timer_seq >= 0 && c.timer_at <= c.expires_at in
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
    if inst.state = Busy || not (Float.is_finite inst.times.expires_at) then
      false
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

let set_pending inst s = inst.times.pending_s <- s
let pending_s inst = inst.times.pending_s

let consume_pending inst s =
  inst.times.pending_s <- Float.max 0.0 (inst.times.pending_s -. s)

(* Profile-driven preloading: a warm instance spends its keep-alive idle
   gap resolving pending stubs in the manifest's preload order, so the
   acquiring request finds (part of) the deferred work already done. Called
   at warm-acquire time, when the just-ended idle gap [now - idle_since] is
   known. *)
let preload_idle inst ~now =
  let c = inst.times in
  let gap = Float.max 0.0 (now -. c.idle_since) in
  let resolved = Float.min gap c.pending_s in
  c.pending_s <- c.pending_s -. resolved

let drain t =
  let survivors = Hashtbl.fold (fun _ i acc -> i :: acc) t.live [] in
  List.iter
    (fun (i : instance) ->
       let c = i.times in
       let until =
         if i.state = Busy then Float.max c.busy_until c.born_s
         else c.expires_at
       in
       evict t i ~now:until)
    survivors
