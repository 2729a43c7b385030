(** Deterministic discrete-event queue ordered by
    (virtual time, rank, insertion sequence).

    Ties on time are broken first by [rank] — a caller-assigned event class,
    e.g. "completions before arrivals before expiries" — and then by
    insertion order (FIFO), so two runs over the same schedule pop events in
    exactly the same order. This stability is what makes the fleet simulator
    reproducible and is property-tested in [test_fleet.ml].

    Two backends implement the same contract with bit-identical pop order:
    a binary min-heap (the default, and the only one the simulator uses) and
    a calendar queue, kept as an independent reference the heap's pop order
    is property-tested against. *)

type 'a t

(** Queue backend. [Calendar] holds [n_buckets] slots of [width] virtual
    seconds each; events land in [floor(time / width)] mod [n_buckets]. *)
type kind =
  | Heap
  | Calendar of { width : float; n_buckets : int }

(** [create ()] is a heap; pass [~kind] to select a backend. *)
val create : ?kind:kind -> unit -> 'a t

val length : 'a t -> int

(** [push q ~time ~rank x] schedules [x] at virtual time [time]. Among
    events with equal time, lower [rank] pops first; equal (time, rank)
    pairs pop in insertion order. [time] may be infinite but not NaN, and
    [rank] must lie in [[-2^22, 2^22)]; anything else raises
    [Invalid_argument]. Pushing onto the heap backend allocates nothing
    once its arrays have grown to the queue's peak length. *)
val push : 'a t -> time:float -> rank:int -> 'a -> unit

(** Take the insertion sequence number the next [push] would get, without
    pushing anything. *)
val reserve : 'a t -> int

(** [push_reserved q ~time ~rank ~seq x] schedules [x] with a sequence
    number obtained from [reserve]: it pops exactly where it would have,
    had it been [push]ed at reservation time. Push each reserved number at
    most once. Raises [Invalid_argument] as {!push} does. *)
val push_reserved : 'a t -> time:float -> rank:int -> seq:int -> 'a -> unit

(** Remove the earliest event and return its payload; its time is then
    {!last_time}. It builds no tuple or option. Raises [Invalid_argument]
    on an empty queue. A drained queue retains no popped payload, except
    that the heap backend keeps the first payload ever pushed as the filler
    of its vacated slots. *)
val take : 'a t -> 'a

(** The time of the event the last {!take} removed ([nan] before the
    first). *)
val last_time : 'a t -> float
