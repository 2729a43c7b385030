(* Stateless fault draws: each uniform variate is splitmix64 applied to a
   mix of (seed, req, attempt, stream tag). Statelessness is the load-bearing
   property — retries and hedges reorder events, and a sequential generator
   would make fault outcomes depend on that order. The §7 fallback flags are
   the one exception: they replay the original sequential coin-flip so the
   zero-fault simulator stays bit-identical to its pre-fault behaviour. *)

type config = {
  seed : int;
  init_failure_rate : float;
  crash_rate : float;
  transient_error_rate : float;
  churn_rate : float;
}

let none =
  { seed = 0;
    init_failure_rate = 0.0;
    crash_rate = 0.0;
    transient_error_rate = 0.0;
    churn_rate = 0.0 }

let is_none c =
  c.init_failure_rate = 0.0 && c.crash_rate = 0.0
  && c.transient_error_rate = 0.0 && c.churn_rate = 0.0

let validate c =
  let check name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Faults: %s must be in [0, 1] (got %g)" name r)
  in
  check "init_failure_rate" c.init_failure_rate;
  check "crash_rate" c.crash_rate;
  check "transient_error_rate" c.transient_error_rate;
  check "churn_rate" c.churn_rate

type fault =
  | No_fault
  | Init_failure
  | Crash of { after_fraction : float }
  | Transient_error

(* --- the hash ------------------------------------------------------------- *)

let splitmix64 z =
  let open Int64 in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Independent draw streams, one tag per decision. *)
let tag_init = 1
let tag_crash = 2
let tag_crash_point = 3
let tag_transient = 4
let tag_churn = 5
let tag_fb_churn = 6
let tag_jitter = 7

(* Uniform [0, 1): chain the inputs through splitmix64 and keep 53 bits. *)
let uniform ~seed ~req ~attempt ~tag =
  let mix acc x = splitmix64 (Int64.logxor acc (Int64.of_int x)) in
  let h = mix (mix (mix (splitmix64 (Int64.of_int seed)) req) attempt) tag in
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

let attempt_fault c ~cold ~req ~attempt =
  if is_none c then No_fault
  else
    let u tag = uniform ~seed:c.seed ~req ~attempt ~tag in
    if cold && c.init_failure_rate > 0.0 && u tag_init < c.init_failure_rate
    then Init_failure
    else if c.crash_rate > 0.0 && u tag_crash < c.crash_rate then
      Crash { after_fraction = u tag_crash_point }
    else if
      c.transient_error_rate > 0.0 && u tag_transient < c.transient_error_rate
    then Transient_error
    else No_fault

let churned c ~fb ~req ~attempt =
  c.churn_rate > 0.0
  && uniform ~seed:c.seed ~req ~attempt
       ~tag:(if fb then tag_fb_churn else tag_churn)
     < c.churn_rate

let jitter c ~req ~retry =
  uniform ~seed:c.seed ~req ~attempt:retry ~tag:tag_jitter

(* --- legacy §7 draws ------------------------------------------------------ *)

let fallback_flags ~seed ~rate =
  let rng = Random.State.make [| seed |] in
  fun () -> Random.State.float rng 1.0 < rate
