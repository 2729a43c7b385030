(* Invocation traces: arrival-time generation and analytic cold/warm replay.

   The replay does not need to execute application code: given sorted arrival
   times and a keep-alive window, a start is cold exactly when the gap since
   the previous request's completion exceeds the keep-alive (single-instance
   model — λ-trim's evaluation invokes serially). *)

type t = {
  trace_name : string;
  arrivals_s : Float.Array.t;   (* sorted arrival times, seconds *)
}

(* In [compare] order already? Then a stable sort would return it
   unchanged, so it is skipped. The generators below emit nondecreasing
   times for any valid parameters. *)
let is_sorted a =
  let rec go i =
    i >= Float.Array.length a
    || (compare (Float.Array.get a (i - 1)) (Float.Array.get a i) <= 0
        && go (i + 1))
  in
  go 1

(* Takes ownership of [a]. [Float.Array.stable_sort] orders exactly as
   [List.sort compare] does: both are stable, so they agree even on the
   elements [compare] calls equal (0.0 and -0.0, NaNs). *)
let of_array ~name a =
  if not (is_sorted a) then Float.Array.stable_sort compare a;
  { trace_name = name; arrivals_s = a }

let make ~name arrivals_s = of_array ~name (Float.Array.of_list arrivals_s)

let length t = Float.Array.length t.arrivals_s

(* --- generators (all deterministic given the seed) ---------------------- *)

(* The generators append to a flat buffer that doubles when full and is
   trimmed to length at the end. *)
type buf = {
  mutable a : Float.Array.t;
  mutable len : int;
}

let create_buf cap = { a = Float.Array.create (max 16 cap); len = 0 }

let[@inline] append b v =
  if b.len = Float.Array.length b.a then begin
    let a = Float.Array.create (2 * b.len) in
    Float.Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  Float.Array.unsafe_set b.a b.len v;
  b.len <- b.len + 1

let contents ~name b =
  of_array ~name
    (if b.len = Float.Array.length b.a then b.a
     else Float.Array.sub b.a 0 b.len)

(* exponential inter-arrival time *)
let[@inline] exp_gap rng rate_per_s =
  -.log (1.0 -. Random.State.float rng 1.0) /. rate_per_s

let poisson ~seed ~rate_per_s ~duration_s ~name =
  (* a zero, negative, infinite or NaN rate, or an infinite or NaN horizon,
     would never end the loop below *)
  if not (Float.is_finite rate_per_s && rate_per_s > 0.0) then
    invalid_arg
      (Printf.sprintf "Trace.poisson: rate_per_s = %g is not finite and > 0"
         rate_per_s);
  if not (Float.is_finite duration_s && duration_s >= 0.0) then
    invalid_arg
      (Printf.sprintf "Trace.poisson: duration_s = %g is not finite and >= 0"
         duration_s);
  let rng = Random.State.make [| seed |] in
  (* sized for the expected count plus four standard deviations, so the
     buffer almost never doubles *)
  let expected = Float.min 1e6 (rate_per_s *. duration_s) in
  let b = create_buf (int_of_float (expected +. (4.0 *. sqrt expected))) in
  let now = ref 0.0 and more = ref true in
  while !more do
    now := !now +. exp_gap rng rate_per_s;
    if !now > duration_s then more := false else append b !now
  done;
  contents ~name b

(* Bursty on/off arrivals: bursts of [burst_size] requests at [burst_rate],
   separated by idle gaps of mean [idle_gap_s] — the scale-out pattern §1
   cites as a cold-start driver. *)
let bursty ~seed ~burst_size ~burst_rate_per_s ~idle_gap_s ~bursts ~name =
  let rng = Random.State.make [| seed |] in
  let b = create_buf (max 0 bursts * max 0 burst_size) in
  let now = ref 0.0 in
  for _ = 1 to bursts do
    for _ = 1 to burst_size do
      now := !now +. exp_gap rng burst_rate_per_s;
      append b !now
    done;
    now := !now +. (idle_gap_s *. (0.5 +. Random.State.float rng 1.0))
  done;
  contents ~name b

let periodic ~period_s ~count ~name =
  of_array ~name (Float.Array.init count (fun i -> float_of_int i *. period_s))

(* --- analytic replay ----------------------------------------------------- *)

type replay = {
  cold_starts : int;
  warm_starts : int;
  (* total seconds during which a warm instance is kept alive (cache time for
     SnapStart-style storage costs, resident time for keep-alive costs) *)
  resident_s : float;
}

(* [exec_s] approximates the per-request busy time used to extend the
   keep-alive timer from request completion. *)
let replay ?(exec_s = 0.0) t ~keep_alive_s : replay =
  let cold = ref 0 and warm = ref 0 in
  let resident = ref 0.0 and expires = ref neg_infinity in
  for i = 0 to length t - 1 do
    let arrival = Float.Array.get t.arrivals_s i in
    let new_expires = arrival +. exec_s +. keep_alive_s in
    if arrival <= !expires then begin
      incr warm;
      resident := !resident +. (new_expires -. !expires)
    end
    else begin
      incr cold;
      resident := !resident +. (new_expires -. arrival)
    end;
    expires := new_expires
  done;
  { cold_starts = !cold; warm_starts = !warm; resident_s = !resident }
