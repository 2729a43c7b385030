(** Content-addressed parse cache: a [digest → Ast.program] store consulted
    by every interpreter instead of re-parsing unchanged module sources.

    Keys combine the file name with the content digest (AST locations embed
    the file name). ASTs are immutable shared values; the store is guarded by
    a mutex, and parsing runs outside the lock. Parse failures propagate and
    are never cached. {!write_program} stores the AST of text it prints
    without parsing it. Hits are invisible to the virtual clock and byte
    ledger: the interpreter's import-resolve charge is independent of how
    the AST was obtained. *)

type t

(** Hit/miss counts live in an {!Obs.Metrics} registry (default: a fresh
    private one; pass [~registry:Obs.Metrics.global] to aggregate with the
    rest of the run) under [<prefix>.hits] / [<prefix>.misses]. *)
val create :
  ?enabled:bool -> ?registry:Obs.Metrics.registry -> ?prefix:string -> unit -> t

(** The default store shared by every interpreter not handed an explicit
    cache ({!Interp.create}'s [?parse_cache]). *)
val global : t

(** A disabled cache parses unconditionally and counts nothing. *)
val set_enabled : t -> bool -> unit

val enabled : t -> bool

val hits : t -> int
val misses : t -> int

(** Number of distinct (file, digest) entries currently stored. *)
val size : t -> int

(** Drop all entries and reset the hit/miss counters. *)
val clear : t -> unit

(** [parse ?cache ~file source] returns the cached AST for this
    (file, content) pair, parsing on a miss.
    @raise Parser.Error or [Lexer.Error] exactly as {!Parser.parse} would. *)
val parse : ?cache:t -> file:string -> string -> Ast.program

(** [parse_vfs ?cache vfs path] is {!parse} for a vfs-backed file, reusing
    the vfs's memoized content digest.
    @raise Invalid_argument when the path is absent. *)
val parse_vfs : ?cache:t -> Vfs.t -> string -> Ast.program

(** [write_program ?cache vfs path prog] writes [Pretty.program_to_string
    prog] to [path] and seeds [cache] with the AST {!Parser.parse} returns
    for that text: [prog] itself (equal up to locations, which only parse
    errors read), or [[Pass]] when [prog] is empty. Seeding counts as
    neither a hit nor a miss; a disabled cache only writes the file. *)
val write_program : ?cache:t -> Vfs.t -> string -> Ast.program -> unit
