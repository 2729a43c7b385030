(** Serverless pricing models (§2.1, Eq. 1):

    {v C = Configured Memory × Billed Duration × Unit Price v}

    AWS bills in 1 ms increments; GCP rounds up to 100 ms; Azure to 1 s.
    Memory is configured from a floor (128 MB on AWS) up to a cap, and §2.2.2
    uses the measured peak footprint as the configuration lower bound. *)

type provider = Aws | Gcp | Azure

type t = {
  provider : provider;
  unit_price_per_gb_s : float;
  per_request_fee : float;
  billing_granularity_ms : float;
  min_memory_mb : float;
  max_memory_mb : float;
}

(** $0.0000162109 per GB-s — the rate §2.2.2 prices its figures at. *)
val aws : t

val gcp : t
val azure : t
val provider_name : provider -> string

(** Round a raw duration up to the provider's billing granularity.
    Epsilon-safe on exact boundaries: a duration within one part in 10^9 of
    a whole number of ticks (float error accumulated from summed charges)
    bills that tick count, not an extra one. *)
val billed_duration_ms : t -> float -> float

(** Eq. 1 for one invocation, from the raw duration and peak footprint. *)
val invocation_cost : t -> duration_ms:float -> memory_mb:float -> float
