(** Persistent on-disk oracle memo: a content-addressed, append-only,
    per-record checksummed observation store shared across process
    restarts, app revisions, and applications.

    Keys are {!Oracle.test_key} digests — md5 over everything a canonical
    output can depend on (engine tag, optimizer variant, effective image
    digest, entry point, test-case inputs) — so a key either denotes
    exactly one observation or is absent; there is nothing to invalidate
    across revisions. The file is a {!Durable_log} with header
    [ltrim-memo/1] and records [o|seq|key|escaped value|md5]: on open only
    the valid record prefix is replayed, never a torn or corrupt tail.

    A store is attached beneath the in-memory {!Oracle.Cache} with
    {!Oracle.Cache.attach_store} (CLI: [--memo-dir DIR]); the cache
    promotes store hits into memory and writes fresh observations
    through. *)

type t

(** Basename of the store file inside its directory,
    [observations.memo]. *)
val file_name : string

(** [open_ ~dir] opens (creating [dir] and the file as needed) the store
    at [dir]/[file_name] and holds its lock until {!close}. An existing
    file is replayed: the valid record prefix populates the table; an
    invalid suffix is dropped, counted in {!truncated}, and cut from the
    file. A file with a foreign or torn header is started over empty.
    @raise Durable_log.Locked if another process has the store open. *)
val open_ : dir:string -> t

(** Lookup by exact key. *)
val find : t -> string -> string option

(** [add t ~key value] durably records one observation: the record is
    checksummed and flushed before returning. Idempotent — a key already
    present is not re-appended (first write wins; keys are
    content-addressed so any later value would be identical anyway).
    Raises [Invalid_argument] if [key] contains ['|'] or newlines, or if
    the store is closed. *)
val add : t -> key:string -> string -> unit

(** Number of distinct observations currently held. *)
val size : t -> int

(** Records replayed from disk by {!open_}. *)
val loaded : t -> int

(** Records appended since {!open_}. *)
val appended : t -> int

(** Invalid trailing lines discarded by {!open_}. *)
val truncated : t -> int

(** Flush and close the file, releasing its lock. Reads keep working;
    further {!add}s raise. *)
val close : t -> unit

(** Escape an observation payload for single-line storage:
    ['\\'] → ["\\\\"], ['\n'] → ["\\n"], ['\r'] → ["\\r"],
    ['|'] → ["\\p"]. Exposed for tests. *)
val escape : string -> string

(** Inverse of {!escape}; [None] on any malformed escape sequence so a
    corrupt record can never decode to a wrong observation. Exposed for
    tests. *)
val unescape : string -> string option
