(* Invocation traces: arrival-time generation and analytic cold/warm replay.

   The replay does not need to execute application code: given sorted arrival
   times and a keep-alive window, a start is cold exactly when the gap since
   the previous request's completion exceeds the keep-alive (single-instance
   model — λ-trim's evaluation invokes serially). *)

type t = {
  trace_name : string;
  arrivals_s : float list;   (* sorted arrival times, seconds *)
}

(* Every generator below already emits sorted arrivals, so the sort is
   skipped when the input is in [compare] order: [List.sort] is stable, so
   it would return the same list. *)
let rec is_sorted = function
  | a :: (b :: _ as rest) -> compare (a : float) b <= 0 && is_sorted rest
  | [ _ ] | [] -> true

let make ~name arrivals_s =
  { trace_name = name;
    arrivals_s =
      (if is_sorted arrivals_s then arrivals_s
       else List.sort compare arrivals_s) }

let length t = List.length t.arrivals_s

let duration_s t =
  match List.rev t.arrivals_s with last :: _ -> last | [] -> 0.0

(* --- generators (all deterministic given the seed) ---------------------- *)

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
  let rec go acc now =
    (* exponential inter-arrival times *)
    let gap = -.log (1.0 -. Random.State.float rng 1.0) /. rate_per_s in
    let now = now +. gap in
    if now > duration_s then List.rev acc else go (now :: acc) now
  in
  make ~name (go [] 0.0)

(* Bursty on/off arrivals: bursts of [burst_size] requests at [burst_rate],
   separated by idle gaps of mean [idle_gap_s] — the scale-out pattern §1
   cites as a cold-start driver. *)
let bursty ~seed ~burst_size ~burst_rate_per_s ~idle_gap_s ~bursts ~name =
  let rng = Random.State.make [| seed |] in
  let rec gen_bursts acc now b =
    if b >= bursts then List.rev acc
    else
      let rec gen_burst acc now i =
        if i >= burst_size then (acc, now)
        else
          let gap = -.log (1.0 -. Random.State.float rng 1.0) /. burst_rate_per_s in
          let now = now +. gap in
          gen_burst (now :: acc) now (i + 1)
      in
      let acc, now = gen_burst acc now 0 in
      let idle = idle_gap_s *. (0.5 +. Random.State.float rng 1.0) in
      gen_bursts acc (now +. idle) (b + 1)
  in
  make ~name (gen_bursts [] 0.0 0)

let periodic ~period_s ~count ~name =
  make ~name (List.init count (fun i -> float_of_int i *. period_s))

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
  let rec go cold warm resident expires = function
    | [] -> { cold_starts = cold; warm_starts = warm; resident_s = resident }
    | arrival :: rest ->
      let is_warm = arrival <= expires in
      let completion = arrival +. exec_s in
      let new_expires = completion +. keep_alive_s in
      let resident =
        if is_warm then resident +. (new_expires -. expires)
        else resident +. (new_expires -. arrival)
      in
      if is_warm then go cold (warm + 1) resident new_expires rest
      else go (cold + 1) warm resident new_expires rest
  in
  go 0 0 0.0 neg_infinity t.arrivals_s

let cold_fraction r =
  let total = r.cold_starts + r.warm_starts in
  if total = 0 then 0.0 else float_of_int r.cold_starts /. float_of_int total
