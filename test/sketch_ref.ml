(* Reference sketch for the equivalence property: the dense layout that
   [Fleet.Sketch] must reproduce bit for bit. Every one of the
   [n_buckets] counts is stored from the start; bucketing, the moment
   updates and the quantile rank rule are the library's. It shares no
   code with the library, and drops NaN without counting it. *)

let gamma = 1.1
let min_value = 1e-3
let max_value = 1e8
let log_gamma = log gamma

(* The documented accuracy of a quantile answer: relative [sqrt gamma - 1]
   plus an absolute floor of [min_value] for sub-floor values. *)
let rel_error = sqrt gamma -. 1.0
let abs_error = min_value

let n_buckets =
  2 + int_of_float (Float.ceil (log (max_value /. min_value) /. log_gamma))

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let create () =
  { counts = Array.make n_buckets 0; n = 0; sum = 0.0; mn = infinity;
    mx = neg_infinity }

let bucket_of v =
  if v < min_value then 0
  else
    let i = 1 + int_of_float (Float.floor (log (v /. min_value) /. log_gamma)) in
    if i >= n_buckets then n_buckets - 1 else i

let add t v =
  if not (Float.is_nan v) then begin
    let v = Float.max 0.0 v in
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v
  end

let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let max_seen t = if t.n = 0 then 0.0 else t.mx

let merge_into ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.mn < into.mn then into.mn <- src.mn;
  if src.mx > into.mx then into.mx <- src.mx

let representative t i =
  if i = 0 then 0.0
  else if i = n_buckets - 1 then t.mx
  else
    let lo = min_value *. (gamma ** float_of_int (i - 1)) in
    let r = lo *. sqrt gamma in
    Float.min t.mx (Float.max t.mn r)

let value_at t k =
  let rec go i cum =
    if i >= n_buckets then t.mx
    else
      let cum = cum + t.counts.(i) in
      if cum > k then representative t i else go (i + 1) cum
  in
  go 0 0

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
