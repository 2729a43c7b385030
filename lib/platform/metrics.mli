(** Summary statistics for experiment reporting.

    Every function here is total: on the empty list, [mean] and
    [percentile] (and its [median] convenience) return [0.0] rather than
    raising, so report code can aggregate sparse buckets (e.g. a fleet run
    where no request timed out) without guarding.

    NaN policy: the order statistics ([percentile]/[median]) sort with
    [Float.compare] and drop NaN inputs, counting each drop in the
    [platform.metrics.nan_dropped] counter of {!Obs.Metrics.global} so
    polluted data is visible rather than rank-poisoning. *)

(** [0.0] on the empty list. *)
val mean : float list -> float

(** Linear-interpolated percentile; [percentile 50.0] is the median.
    [0.0] on the empty list. *)
val percentile : float -> float list -> float

val median : float list -> float

(** Sort once, read many percentiles. [sort_samples a] drops [a]'s NaNs
    (counted as above) and returns the rest in ascending order. It reuses
    [a] as its buffer: the result may be [a] itself, and [a] is clobbered
    either way. *)
val sort_samples : Float.Array.t -> Float.Array.t

(** [percentile_sorted p (sort_samples a)] is [percentile p] of [a]'s
    elements, bit for bit: the rank rule both share. [0.0] on the empty
    array. *)
val percentile_sorted : float -> Float.Array.t -> float

(** Relative improvement in percent; positive = [after] is smaller. *)
val improvement_pct : before:float -> after:float -> float

val speedup : before:float -> after:float -> float
