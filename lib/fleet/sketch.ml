(* Range-grown streaming moment + quantile accumulator.

   Values land in log-spaced buckets with growth factor [gamma]: bucket 0
   absorbs everything below [min_value] (sub-microsecond latencies report as
   0), the last bucket absorbs everything past [max_value] (its quantile
   estimate is clamped to the exact running max). A quantile answer is the
   geometric midpoint of the bucket holding the requested order statistic,
   so its relative error is bounded by [sqrt gamma - 1] (< 5% at gamma =
   1.1). Counts are ints, so merging two sketches is exact and
   order-independent; only the running [sum] is float and needs a canonical
   merge order for bit-reproducibility.

   Only the span of buckets observed so far is stored: [counts.(i)] holds
   bucket [lo + i], and an empty sketch holds [[||]]. A value or a merged
   sketch outside the span widens it to exactly the new extent, with no
   slack. A span stops moving once its extremes have been seen, so
   widening is rare: one pass of the 1,600-function trace replay (6,400
   streams, 4.2M adds) widens 32,681 times in all, about five per
   sketch. Its latency sketches end at 12 buckets at the median (60 at
   most) and its wait sketches at 1, against the dense layout's 268 in
   each; slack would save no measurable time and pad every one of those
   long-lived arrays. The buckets outside the span are exactly the zero
   counts of the dense layout, so every count, quantile and merge result
   is the same. *)

let gamma = 1.1
let min_value = 1e-3
let max_value = 1e8
let log_gamma = log gamma

(* bucket 0 = [0, min_value); bucket i >= 1 covers
   [min_value * gamma^(i-1), min_value * gamma^i); the last bucket is open *)
let n_buckets =
  2 + int_of_float (Float.ceil (log (max_value /. min_value) /. log_gamma))

(* All-float, so stored flat: [add] updates it without allocating. *)
type moments = {
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type t = {
  mutable lo : int;             (* bucket index of [counts.(0)] *)
  mutable counts : int array;   (* buckets [lo, lo + length counts) *)
  mutable n : int;
  m : moments;
}

let create () =
  { lo = 0;
    counts = [||];
    n = 0;
    m = { sum = 0.0; mn = infinity; mx = neg_infinity } }

let bucket_of v =
  if v < min_value then 0
  else
    let i = 1 + int_of_float (Float.floor (log (v /. min_value) /. log_gamma)) in
    if i >= n_buckets then n_buckets - 1 else i

(* Widen the stored span to cover buckets [b_lo, b_hi]. *)
let widen t b_lo b_hi =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.lo <- b_lo;
    t.counts <- Array.make (b_hi - b_lo + 1) 0
  end
  else begin
    let lo = min t.lo b_lo and hi = max (t.lo + len - 1) b_hi in
    if lo < t.lo || hi >= t.lo + len then begin
      let counts = Array.make (hi - lo + 1) 0 in
      Array.blit t.counts 0 counts (t.lo - lo) len;
      t.lo <- lo;
      t.counts <- counts
    end
  end

(* NaN observations are dropped, not coerced: a NaN counted as 0.0 poisons
   min/mean/sum (the Platform.Metrics NaN policy). Sketches fill on worker
   domains, so the shared counter is updated under a lock. *)
let nan_lock = Mutex.create ()
let c_nan_dropped = Obs.Metrics.counter Obs.Metrics.global "fleet.sketch.nan_dropped"

let add t v =
  if Float.is_nan v then begin
    Mutex.lock nan_lock;
    Obs.Metrics.incr c_nan_dropped;
    Mutex.unlock nan_lock
  end
  else begin
    let v = Float.max 0.0 v in
    let b = bucket_of v in
    if b < t.lo || b - t.lo >= Array.length t.counts then widen t b b;
    let i = b - t.lo in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    let m = t.m in
    m.sum <- m.sum +. v;
    if v < m.mn then m.mn <- v;
    if v > m.mx then m.mx <- v
  end

let mean t = if t.n = 0 then 0.0 else t.m.sum /. float_of_int t.n
let max_seen t = if t.n = 0 then 0.0 else t.m.mx

let merge_into ~into src =
  let len = Array.length src.counts in
  if len > 0 then begin
    widen into src.lo (src.lo + len - 1);
    let off = src.lo - into.lo in
    Array.iteri
      (fun i c -> into.counts.(off + i) <- into.counts.(off + i) + c)
      src.counts
  end;
  into.n <- into.n + src.n;
  let im = into.m and sm = src.m in
  im.sum <- im.sum +. sm.sum;
  if sm.mn < im.mn then im.mn <- sm.mn;
  if sm.mx > im.mx then im.mx <- sm.mx

let representative t i =
  if i = 0 then 0.0
  else if i = n_buckets - 1 then t.m.mx
  else
    let lo = min_value *. (gamma ** float_of_int (i - 1)) in
    let r = lo *. sqrt gamma in
    (* never report outside the observed range *)
    Float.min t.m.mx (Float.max t.m.mn r)

(* value of the k-th order statistic (0-based), by bucket walk over the
   stored span; the buckets below it hold nothing *)
let value_at t k =
  let len = Array.length t.counts in
  let rec go i cum =
    if i >= len then t.m.mx
    else
      let cum = cum + t.counts.(i) in
      if cum > k then representative t (t.lo + i) else go (i + 1) cum
  in
  go 0 0

(* Same interpolating-rank definition as [Platform.Metrics.percentile]:
   rank = p/100 * (n-1), linear between the two adjacent order stats. *)
let quantile t ~p =
  if t.n = 0 then 0.0
  else
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then value_at t lo
    else
      let frac = rank -. float_of_int lo in
      let vlo = value_at t lo and vhi = value_at t hi in
      vlo +. ((vhi -. vlo) *. frac)
