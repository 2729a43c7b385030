(** Fault injection aimed at the debloating pipeline itself: a simulated
    crash after the N-th durable journal record, and a journal-corruption
    helper. *)

(** Simulated crash, raised by {!note_journal_append} once the armed budget
    is exhausted. The [killed_after]-th record is already durable on disk
    when this propagates (the crash model is power loss immediately after a
    successful write). *)
exception Killed of { killed_after : int }

(** {1 Simulated kill-after-record-N}

    Process-wide: armed once (CLI or test), then the journal reports every
    durable record via {!note_journal_append}, which raises {!Killed} when
    the budget runs out. *)

(** Arm the crash: the [n]-th subsequently recorded journal append raises.
    @raise Invalid_argument if [n < 1]. *)
val arm_kill_after : int -> unit

(** Disarm and reset the counter (also called implicitly when the kill
    fires). Always disarm in a [Fun.protect] finally when arming in-process. *)
val disarm : unit -> unit

(** Remaining budget, when armed. *)
val armed : unit -> int option

(** Called by {!Journal.append} after each record is flushed.
    @raise Killed when the armed budget is exhausted. *)
val note_journal_append : unit -> unit

(** Arm the kill from [LTRIM_CHAOS_KILL_AFTER=N]; unset or empty leaves
    the harness as it is.
    @raise Invalid_argument on a value that is not an int [>= 1]. *)
val arm_from_env : unit -> unit

(** {1 Journal corruption} *)

(** Overwrite the last non-empty line of [path] with ['X']s in place —
    a checksum-invalid record replay must drop. Returns [false] when the
    file has no line to corrupt. *)
val corrupt_last_record : string -> bool
