(** Sharded fleet engine: replay many independent apps (function/tenant
    workloads) across the [Parallel.Pool] work pool and merge their
    streaming accumulators into per-group reports.

    Determinism contract: each app's simulation is self-contained (its
    trace is materialized inside whichever shard runs it, from the app's
    own seeded thunk), and the reduction folds per-app accumulators in
    global app order — never per-shard completion order. Shard assignment
    decides only where an app runs, so the merged report is bit-identical
    at any shard count and any pool size. This is what CI byte-diffs for
    the trace-replay CSV at [--jobs 1] vs [--jobs 4] (1 shard vs 4). *)

(** One (label, router config) pair replayed over an app's trace. Variants
    of one app share the materialized trace. *)
type variant = {
  v_group : string;  (** aggregation key, e.g. ["fixed-ttl/trimmed"] *)
  v_cfg : Router.config;
}

type app = {
  app_id : int;
      (** names the app's trace tracks when tracing is on: non-negative,
          and distinct across one [run]'s apps *)
  app_trace : unit -> Platform.Trace.t;
      (** called inside the owning shard; must be deterministic *)
  app_variants : variant list;
}

(** Per-group merged report. [peak_instances] in the summary is the sum of
    per-app peaks (apps own independent pools). *)
type group = {
  g_label : string;
  g_apps : int;       (** app runs folded into this group *)
  g_summary : Report.summary;
}

(** Effective shard count: [?shards] if given, else
    [Parallel.Pool.jobs ()].
    @raise Invalid_argument on a non-positive explicit count. *)
val shard_count : ?shards:int -> unit -> int

(** Replay every app under each of its variants and merge per group, in
    the order groups first appear in app order. Work is split into
    contiguous app blocks, one per shard, mapped over the configured pool.
    Feeds the [fleet.sharded.*] metrics family and, when tracing is on,
    one wall-clock span per shard. Each run's fleet spans go on tracks
    named by its app id and variant index, so they are the same at any
    shard count. *)
val run : ?pricing:Platform.Pricing.t -> ?shards:int -> app list -> group list
