(** Streaming quantile/moment sketch for the fleet's streaming
    aggregation mode.

    Log-spaced buckets (growth factor 1.1, 268 of them covering
    1e-3..1e8, stored only over the span the sketch has observed) give
    quantiles with relative error at most [sqrt 1.1 - 1] (≈ 4.9%) plus an
    absolute floor of 1e-3 for values under 1e-3; the mean and max are
    exact. Merging adds integer bucket counts, so the merged quantiles are
    independent of merge order; the float running sum under the mean is
    the only merge-order-sensitive field (merge in a canonical order when
    bit-reproducibility matters). *)

type t

val create : unit -> t

(** Record one value. Negative inputs clamp to 0; NaN is dropped (it would
    poison min/mean/sum) and counted in the [Obs.Metrics.global] counter
    [fleet.sketch.nan_dropped]. *)
val add : t -> float -> unit

(** Fold [src] into [into]; [src] is unchanged. *)
val merge_into : into:t -> t -> unit

(** Exact moments; both return 0 on an empty sketch. *)
val mean : t -> float

val max_seen : t -> float

(** [quantile t ~p] for [p] in [0, 100], interpolating between order
    statistics with the same rank rule as [Platform.Metrics.percentile].
    Error bound: [(sqrt 1.1 - 1) * exact + 1e-3]. *)
val quantile : t -> p:float -> float
