(** Span tracing on explicit timelines.

    Every operation but {!wall} takes an explicit timestamp, so each layer
    records against its natural timeline. Timelines that cannot be
    compared live in separate {e domains} (exported as Chrome trace pids):
    the interpreter/platform virtual clock, host wall-clock (the debloating
    pipeline has no virtual timeline), and fleet simulation time. Within a
    domain, spans are laid out on {e tracks} (tids) and must be well-nested
    per track — {!well_nested} checks the invariant.

    Disabled tracing is measurement-neutral by construction: with the
    {!null} sink, {!begin_} returns the preallocated {!none} handle,
    {!wall} calls its body directly, and every other operation is a single
    pattern match. *)

type attr = string * string

type kind = Complete | Instant

type span = {
  sp_name : string;
  sp_cat : string;  (** instrumented layer: minipy, platform, dd, oracle, … *)
  sp_domain : int;  (** clock domain; Chrome pid *)
  sp_track : int;   (** lane within the domain; Chrome tid *)
  sp_start_ms : float;
  mutable sp_dur_ms : float;  (** -1 while open; 0 for instants *)
  mutable sp_attrs : attr list;
  sp_kind : kind;
  sp_seq : int;  (** begin order, for stable export *)
}

(** Sink contract: a sink observes each span exactly once, when it
    completes ({!end_} / {!instant}); open spans are never exported. *)
type sink

(** The no-op sink. *)
val null : sink

(** A sink that accumulates completed spans (read them with {!spans}). *)
val recorder : unit -> sink

(** A pluggable sink: [on_complete] observes each completed span; nothing is
    retained. *)
val custom : on_complete:(span -> unit) -> sink

val enabled : sink -> bool

(** Completed spans in begin order ([[]] for null/custom sinks). *)
val spans : sink -> span list

(** Allocate a fresh track id (per sink, starting at 1; 0 on null). *)
val fresh_track : sink -> int

(** {1 Clock domains} *)

val domain_virtual : int
val domain_wall : int
val domain_fleet : int
val domain_name : int -> string

(** Milliseconds of host wall-clock since a lazily-captured process epoch —
    the single clock for {!domain_wall} spans. Relative time keeps exported
    microsecond timestamps well inside double precision; epoch-absolute
    stamps would round to ≈0.25 µs and scramble span nesting. *)
val wall_ms : unit -> float

(** {1 The global tracer}

    One process-wide sink, installed by the CLI's [--trace] (or a test) and
    consulted by every instrumented layer. Defaults to {!null}. *)

val install : sink -> unit
val installed : unit -> sink

(** {1 Span lifecycle} *)

(** Handle to an open span. [none] on a disabled sink. *)
type h

val none : h

val begin_ :
  sink ->
  domain:int ->
  track:int ->
  cat:string ->
  name:string ->
  ts_ms:float ->
  h

(** No-op on {!none}. Attributes are appended in call order. *)
val add_attr : h -> string -> string -> unit

(** Complete the span: duration is [ts_ms - start], clamped to 0 (wall
    clocks are not guaranteed monotone). *)
val end_ : ?attrs:attr list -> h -> ts_ms:float -> unit

(** A zero-duration point event (breaker transitions, retries). *)
val instant :
  ?attrs:attr list ->
  sink ->
  domain:int ->
  track:int ->
  cat:string ->
  name:string ->
  ts_ms:float ->
  unit

(** [with_span sink … ~clock f] wraps [f] in a span, reading [clock] at
    entry and exit (exception-safe). On the null sink, calls [f] directly
    without touching [clock]. *)
val with_span :
  sink ->
  domain:int ->
  track:int ->
  cat:string ->
  name:string ->
  clock:(unit -> float) ->
  (unit -> 'a) ->
  'a

(** {1 Wall-clock lanes}

    The one rule for where a {!domain_wall} span goes: on the lane of the
    domain executing it. The main domain records on lane 1; a domain that
    has called {!claim_wall_lane} (every parallel-pool worker does, when it
    starts) records on its own. A domain runs one thing at a time, so each
    lane nests by construction at any worker count. *)

(** Give the calling domain a private wall-clock lane (16, 17, … in claim
    order). *)
val claim_wall_lane : unit -> unit

(** [wall ~cat ~name f] wraps [f] in a {!domain_wall} span on the calling
    domain's lane, timed by {!wall_ms}; [attrs] sees [f]'s result (an
    exception ends the span without them). On the null sink, calls [f]
    directly: no clock read, no lane lookup. *)
val wall :
  ?attrs:('a -> attr list) -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** {1 The lane walk}

    One pre-order walk per (domain, track): spans ordered by start, longer
    first on a tied start, then in begin order; each span's parent is the
    innermost earlier span that has not ended by its start. Instants get a
    depth but never parent anything. *)

type node = private {
  n_span : span;
  n_depth : int;  (** open ancestors on the lane *)
  mutable n_self_ms : float;
      (** duration minus the children's; on a well-nested lane these sum
          to the root spans' durations *)
}

type lane = {
  l_domain : int;
  l_track : int;
  l_nodes : node list;  (** pre-order *)
  l_overlap : (span * span) option;
      (** the first (parent, span) pair that neither nests nor is
          disjoint; depths and self times mean nothing on such a lane *)
}

(** Every (domain, track) lane of [spans], in (domain, track) order. *)
val walk : span list -> lane list

(** {1 Invariant checking (tests, CI)} *)

(** First pair of completed spans on the same (domain, track) that neither
    nest nor are disjoint, if any. *)
val nesting_violation : span list -> (span * span) option

val well_nested : span list -> bool
