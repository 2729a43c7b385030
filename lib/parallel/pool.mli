(** Fixed-size [Domain]-based work pool with a deterministic reduction
    contract.

    [create ~domains:n] builds a pool whose total parallelism is [n]: it
    spawns [n - 1] worker domains and the calling domain participates in
    every {!map} (it executes queued tasks while waiting for its job), so
    [n = 1] degrades to purely sequential execution through the same code
    path — no worker domains, no cross-domain communication.

    Determinism contract: {!map} always combines results in submission
    order. Scheduling decides only {e when} each task runs,
    never what the combined value is, so callers that are themselves
    deterministic produce scheduling-independent output.

    Exception contract: if tasks raise, every task of the job still settles
    (no cancellation — later results are not lost), then the exception of
    the {e lowest-indexed} failing task is re-raised in the submitter, with
    its backtrace. This keeps failure behaviour scheduling-independent too.

    Nested submission is safe: a task may itself call {!map} on the same
    pool. The inner job's submitter executes queued tasks (its own or other
    jobs') while waiting, so progress never depends on a free worker.

    Observability: the pool feeds a [parallel.pool.*] metrics family in
    [Obs.Metrics.global] — [tasks] (executed), [steals] (tasks executed by
    a worker domain rather than the submitting one), [waits] (times a
    domain blocked for lack of runnable work) and [jobs] (map calls). Each
    worker domain claims a private wall-clock span lane when it starts
    ({!Obs.Span.claim_wall_lane}), so the spans of concurrently running
    tasks never share a track, and a trace shows each worker's busy time. *)

type t

(** [create ~domains] spawns [domains - 1] workers.
    @raise Invalid_argument if [domains < 1]. *)
val create : domains:int -> t

(** Total parallelism (the [~domains] given to {!create}). *)
val size : t -> int

(** [map t f xs] applies [f] to every element of [xs] on the pool and
    returns the results in the order of [xs]. See the determinism and
    exception contracts above. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Graceful teardown: lets queued tasks drain, then joins the workers.
    Idempotent. Submitting to a shut-down pool raises [Invalid_argument].
    Must not be called while a {!map} is in flight. *)
val shutdown : t -> unit

(** [with_pool ~domains f] = create, run [f pool], always shutdown. *)
val with_pool : domains:int -> (t -> 'a) -> 'a

(** {1 Worker identity}

    Each worker domain gets a pool-wide slot in [1 .. size-1] and its own
    wall-clock span lane. Any other domain, such as the main one, has no
    slot and records on the main lane. A task records on the lane of the
    domain that runs it, which for a submitter helping to drain its own
    job is the submitter's. *)

(** The executing domain's worker slot, if it is a pool worker. *)
val current_worker : unit -> int option

(** {1 The process-wide configured pool}

    The CLI's [--jobs N] installs one shared pool here; the app-level
    fan-outs (the experiment registry, [ltrim redebloat], the sharded
    fleet) read it. Configure from the main domain only, before fanning
    out. *)

(** [configure ~jobs] replaces the configured pool: shuts the previous one
    down, installs a fresh [jobs]-domain pool ([jobs > 1]) or none
    ([jobs = 1]). Registers an [at_exit] teardown once.
    @raise Invalid_argument if [jobs < 1]. *)
val configure : jobs:int -> unit

(** Parallelism of the configured pool; [1] when none is installed. *)
val jobs : unit -> int

(** [map_default f xs] runs on the configured pool, or as [List.map f xs]
    when none is installed. Same ordering/exception contract either way. *)
val map_default : ('a -> 'b) -> 'a list -> 'b list
