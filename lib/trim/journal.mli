(** Durable DD decision journal: an append-only, per-record-checksummed log
    of (subset key → oracle verdict) records, one file per module search.
    A [k] completion mark left by older journals is accepted on replay and
    ignored.

    The file is a {!Durable_log}; its crash model and lock apply. Records
    are flushed before control returns to DD. Reopening with [resume]
    replays the valid prefix into a lookup table, drops any invalid
    suffix, and lets {!Dd.minimize} answer queries from the table —
    reproducing the uninterrupted run's keep-set and counters bit for bit.
    A header run-digest binds the file to one search (base image, module,
    candidate list, engine tag); a mismatched header discards the journal
    rather than replaying stale verdicts.

    Metrics (in [Obs.Metrics.global]): [trim.journal.appended],
    [trim.journal.replayed], [trim.journal.truncated]. *)

type t

(** [open_ ~resume ~path ~run_digest ()] opens or creates the journal.
    With [resume = false] (default) — or when the existing header does not
    match [run_digest] — the file is reset to a bare header.
    @raise Durable_log.Locked if another process has the file open. *)
val open_ : ?resume:bool -> path:string -> run_digest:string -> unit -> t

(** Replayed verdict for a subset key, if one was recorded. *)
val find : t -> string -> bool option

(** Append one verdict; the record is durable (flushed) before returning.
    The chaos harness is notified after the flush — {!Chaos.Killed} out of
    this call means the record is already on disk.
    @raise Invalid_argument if [key] contains ['|'] or a newline. *)
val append : t -> key:string -> bool -> unit

(** Replay-table answers served since [open_]. *)
val replayed : t -> int

(** Invalid suffix records dropped when the file was opened. *)
val truncated : t -> int

(** Records currently in the file (replayed + appended). *)
val records : t -> int

val close : t -> unit

(** {!Durable_log.mkdir_p} and {!Durable_log.write_file_atomic}, kept
    for e2ebench/, which reads them here. *)

val mkdir_p : string -> unit
val write_file_atomic : path:string -> string -> unit

(** {1 Per-search spec and process-wide configuration} *)

(** What the pipeline hands the debloater: where this run's journals live
    and whether to replay existing ones. *)
type spec = { journal_dir : string; journal_resume : bool }

(** Process-wide default spec, used by [Pipeline.run] when its options
    carry no journal directory — the CLI sets it so experiment runs
    (whose pipeline options the registry builds internally) journal too.
    [configure ~dir:None ~resume:_] clears it. *)
val configure : dir:string option -> resume:bool -> unit

val configured : unit -> spec option
