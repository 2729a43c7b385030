(** Named counters.

    A registry is the single aggregation point for process statistics:
    caches register their hit/miss counters here, the verdict journal, memo
    store and worker pool their event counts. A count that must be one
    run's own is not a delta of a shared counter, which concurrent runs
    move too: the oracle memo gives each pipeline run a view with counters
    of its own ([Trim.Oracle.Cache.view]), and [Dd.stats] is a per-search
    record.

    Counters are handed out once ({!counter} is get-or-create) and then
    incremented directly, so hot paths never pay a lookup. Not internally
    locked: share counters across threads only under external
    synchronization (the caches increment under their own mutexes). *)

type counter

type registry

val create : unit -> registry

(** The default registry, shared by every layer not handed an explicit
    one. *)
val global : registry

(** Get-or-create by name. *)
val counter : registry -> string -> counter

val incr : ?by:int -> counter -> unit
val value : counter -> int
val counter_name : counter -> string

(** Fold over counters in name order — the exporter's stable order. *)
val fold : registry -> ('a -> counter -> 'a) -> 'a -> 'a
