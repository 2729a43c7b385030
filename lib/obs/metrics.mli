(** Named counters / gauges / histograms.

    A registry is the single aggregation point for process statistics:
    caches register their hit/miss counters here, the verdict journal, memo
    store and worker pool their event counts. A count that must be one
    run's own is not a delta of a shared counter, which concurrent runs
    move too: the oracle memo gives each pipeline run a view with counters
    of its own ([Trim.Oracle.Cache.view]), and [Dd.stats] is a per-search
    record.

    Instruments are handed out once ({!counter} is get-or-create) and then
    incremented directly, so hot paths never pay a lookup. Not internally
    locked: share instruments across threads only under external
    synchronization (the caches increment under their own mutexes). *)

type counter
type gauge
type histogram

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registry

val create : unit -> registry

(** The default registry, shared by every layer not handed an explicit
    one. *)
val global : registry

(** Get-or-create by name.
    @raise Invalid_argument if the name is bound to another kind. *)
val counter : registry -> string -> counter

val gauge : registry -> string -> gauge
val histogram : registry -> string -> histogram

val incr : ?by:int -> counter -> unit
val value : counter -> int
val counter_name : counter -> string

val set : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

(** O(1): histograms keep moment summaries (count/sum/min/max), not
    samples. *)
val observe : histogram -> float -> unit

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_name : histogram -> string

(** 0.0 on an empty histogram. *)
val histogram_min : histogram -> float

val histogram_max : histogram -> float
val histogram_mean : histogram -> float

(** Zero every instrument; handles already handed out stay valid. *)
val reset : registry -> unit

(** Fold over instruments in name order — the exporters' stable order. *)
val fold : registry -> ('a -> instrument -> 'a) -> 'a -> 'a
