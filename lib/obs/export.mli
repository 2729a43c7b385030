(** Exporters for recorded spans and metrics.

    Deterministic by construction: identical runs export identical bytes
    (fixed float precision, name-sorted metrics, begin-ordered events) —
    the golden trace test depends on it. *)

(** Chrome trace-event JSON, loadable in [chrome://tracing] or Perfetto.
    Spans become ["X"] (complete) events, instants ["i"] events; clock
    domains map to pids (with [process_name] metadata), tracks to tids.
    [?metrics] embeds a registry snapshot under [otherData.metrics]. *)
val chrome_json : ?metrics:Metrics.registry -> Span.sink -> string

(** Per (clock, cat, name) span aggregate:
    [clock,cat,name,count,total_ms,mean_ms,max_ms,self_ms]. [total_ms]
    counts nested time once per enclosing row; [self_ms] is the sum of
    {!Span.walk}'s self times, so over all rows of a clock it adds up to
    that clock's root spans. *)
val summary_csv : Span.sink -> string

(** Registry snapshot: [name,kind,count_or_value,sum,min,max]. *)
val metrics_csv : Metrics.registry -> string

(** Wall-clock self time by layer: when any span has a layer in [known],
    one row per name in [known] (zero when no span has it), in that order;
    then every other layer seen, largest first; [[]] when the sink holds
    no wall-clock span. A span's layer is its ["layer"] attribute, else
    its category. The values sum to the {!Span.domain_wall} root spans'
    durations. *)
val layers : ?known:string list -> Span.sink -> (string * float) list

(** {!layers} as a printable table with a total row; [""] when it is
    empty. *)
val layer_table : ?known:string list -> Span.sink -> string

(** Write [contents] to [path] atomically: a temporary file in the same
    directory, then a rename. *)
val to_file : path:string -> string -> unit
