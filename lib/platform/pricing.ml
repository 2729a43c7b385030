(* Serverless pricing models (§2.1, Eq. 1).

   C = Configured Memory × Billed Duration × Unit Price

   AWS bills in 1 ms increments, GCP rounds up to 100 ms, Azure to 1 s.
   Memory is configurable from a floor (128 MB on AWS) and should be set to
   the application's peak footprint plus headroom (§2.2.2 uses the measured
   maximum as the lower bound, which we reproduce). *)

type provider = Aws | Gcp | Azure

type t = {
  provider : provider;
  unit_price_per_gb_s : float;   (* $ per GB-second *)
  per_request_fee : float;       (* $ per invocation *)
  billing_granularity_ms : float;
  min_memory_mb : float;
  max_memory_mb : float;
}

(* $0.0000162109 per GB-s: the rate §2.2.2 uses for its cost figures. *)
let aws =
  { provider = Aws;
    unit_price_per_gb_s = 0.0000162109;
    per_request_fee = 0.0000002;
    billing_granularity_ms = 1.0;
    min_memory_mb = 128.0;
    max_memory_mb = 10240.0 }

let gcp =
  { provider = Gcp;
    unit_price_per_gb_s = 0.0000165;
    per_request_fee = 0.0000004;
    billing_granularity_ms = 100.0;
    min_memory_mb = 128.0;
    max_memory_mb = 32768.0 }

let azure =
  { provider = Azure;
    unit_price_per_gb_s = 0.000016;
    per_request_fee = 0.0000002;
    billing_granularity_ms = 1000.0;
    min_memory_mb = 128.0;
    max_memory_mb = 1536.0 }

let provider_name = function Aws -> "aws" | Gcp -> "gcp" | Azure -> "azure"

(* Round a raw duration up to the billing granularity.

   Durations arrive as sums of many small float charges, so a run that is
   exactly on a tick boundary can land at e.g. 1000.0000000002 ms and a
   naive ceil would bill a whole extra tick (a 100% overcharge at Azure's
   1 s granularity). Snap quotients within one part in 10^9 of an integer
   tick count before rounding up. *)
let billed_duration_ms t raw_ms =
  if raw_ms <= 0.0 then 0.0
  else
    let g = t.billing_granularity_ms in
    let q = raw_ms /. g in
    let nearest = Float.round q in
    let ticks =
      if Float.abs (q -. nearest) <= 1e-9 *. Float.max 1.0 (Float.abs q)
      then nearest
      else Float.ceil q
    in
    ticks *. g

(* The memory configuration implied by a measured peak footprint: the peak
   rounded up to a whole MB, clamped to the provider's floor and ceiling. *)
let configured_memory_mb t peak_mb =
  let rounded = Float.ceil peak_mb in
  Float.min t.max_memory_mb (Float.max t.min_memory_mb rounded)

(* Eq. 1. [duration_ms] is the raw billed duration before granularity
   rounding; [memory_mb] the measured peak footprint. *)
let invocation_cost t ~duration_ms ~memory_mb =
  let billed_ms = billed_duration_ms t duration_ms in
  let mem_gb = configured_memory_mb t memory_mb /. 1024.0 in
  (mem_gb *. (billed_ms /. 1000.0) *. t.unit_price_per_gb_s) +. t.per_request_fee
