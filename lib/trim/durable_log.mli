(** The one on-disk record format under {!Journal}, {!Memo_store} and
    {!Manifest}, and the append-only log the first two are built on.

    {b Sealed records.} A record is one line of ['|']-separated fields
    followed by the md5 of everything before the last ['|']:
    [f1|…|fn|md5(f1|…|fn)]. Fields never hold ['|'], ['\n'] or ['\r'].

    {b Logs.} A log file is a header line, then records
    [kind|seq|fields…|md5] whose [seq] counts up from 0. Opening a log
    replays the longest prefix of records that are sealed, carry the next
    [seq] and pass the caller's [replay]; every line after that prefix is
    dropped and counted in {!truncated}. A file whose header differs from
    the expected one starts over empty. The file is then repaired in place:
    cut after the prefix, with a newline added if its last line lacked one.
    A replayed record is therefore exactly one that was appended, in order.

    {b Crash model.} Each append is flushed to the kernel before it returns,
    so a record survives a kill of the process. Nothing calls [fsync]: after
    a power loss any suffix of a log may be lost or torn, which replay
    tolerates as above. Whole files ({!write_file_atomic}, used by the
    manifest) are written to a temp file and renamed over the target; a
    manifest that loses its contents fails to parse and the run goes cold.

    {b Concurrent writers.} {!open_} takes an exclusive POSIX lock on the
    log before it reads or repairs it, and {!close} releases it. A second
    process opening the same log gets {!Locked}. POSIX locks belong to the
    process, so two opens of one log inside one process do not exclude each
    other, and closing any other descriptor of the file drops the lock; no
    caller does either. A [t] is not thread-safe: clients serialise calls
    under their own mutex. *)

(** Raised by {!open_} with the log's path when another process holds it. *)
exception Locked of string

(** {1 Sealed records} *)

(** [seal ~invalid [f1; …; fn]] is the record line [f1|…|fn|md5], no
    newline.
    @raise Invalid_argument [invalid] if a field holds a reserved byte. *)
val seal : invalid:string -> string list -> string

(** The fields of a sealed line, [None] if its checksum does not match. *)
val unseal : string -> string list option

(** {1 Append-only logs} *)

type t

(** [open_ ~path ~header ~invalid ~replay ()] locks and opens the log at
    [path], creating it and its directory as needed. Unless [fresh], each
    record of the valid prefix goes to [replay kind fields], which returns
    [false] to reject it and end the prefix there. [invalid] is the
    [Invalid_argument] message for an appended field with a reserved byte.
    @raise Locked if another process has the log open. *)
val open_ :
  ?fresh:bool -> path:string -> header:string -> invalid:string ->
  replay:(string -> string list -> bool) -> unit -> t

(** [append t kind fields] writes record [kind|seq|fields…|md5] with the
    next [seq] and flushes it.
    @raise Invalid_argument if a field holds a reserved byte or [t] is
    closed. *)
val append : t -> string -> string list -> unit

(** Records in the file: replayed plus appended. *)
val records : t -> int

(** Lines dropped after the valid prefix by {!open_}. *)
val truncated : t -> int

(** Flush, close and release the lock. Idempotent. *)
val close : t -> unit

(** {1 Whole files} *)

val mkdir_p : string -> unit

(** Write [contents] to a temp file in [path]'s directory, creating it as
    needed, then rename it over [path]: readers see the old file or the
    new one, never a mix. *)
val write_file_atomic : path:string -> string -> unit

(** The whole file; the channel is closed on every path. *)
val read_file : string -> string
