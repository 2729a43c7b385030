(** The correctness oracle (§5.3).

    A candidate program passes iff, for every test case in the oracle
    specification, it reproduces the original's observable output: captured
    stdout, the handler's return value (or raised exception), and the
    sequence of intercepted external-service calls. Each test case runs in a
    fresh interpreter — the per-process module isolation of §7.

    Observations are memoized by (image digest, test case): the simulated
    platform is deterministic, so identical effective images yield identical
    canonical outputs. Memoized answers are the same values the interpreter
    would produce, so virtual measurements are unaffected. *)

type observation = {
  per_test : (string * string) list;
      (** test-case name → canonical output string *)
}

(** The observation memo. Thread-safe; a disabled cache always re-runs. *)
module Cache : sig
  type t

  (** Hit/miss counts live in an {!Obs.Metrics} registry (default: a fresh
      private one) under [<prefix>.hits] / [<prefix>.misses]; the {!global}
      memo registers as [oracle.memo.*] in [Obs.Metrics.global]. *)
  val create :
    ?enabled:bool -> ?registry:Obs.Metrics.registry -> ?prefix:string ->
    unit -> t

  (** The default memo shared by {!observe} and {!for_reference} callers
      that do not inject their own — this is what lets continuous re-runs
      and baseline comparisons reuse earlier answers. *)
  val global : t

  val set_enabled : t -> bool -> unit
  val enabled : t -> bool
  val hits : t -> int
  val misses : t -> int

  (** Hits answered by the attached persistent store (a subset of
      {!hits}); [<prefix>.store_hits]. *)
  val store_hits : t -> int

  (** In-memory entries dropped by the capacity bound;
      [<prefix>.evicted]. *)
  val evicted : t -> int

  (** Number of memoized (image, test case) observations and read
      profiles ({!module_reads}) held in memory. *)
  val size : t -> int

  (** Bound the in-memory table. [None] (the default) is unbounded; with
      [Some cap], inserting into a full table evicts the oldest in-memory
      entries (FIFO). An attached persistent store is unaffected by
      eviction — evicted keys re-promote from it on their next miss.
      @raise Invalid_argument if [cap < 1]. *)
  val set_capacity : t -> int option -> unit

  val capacity : t -> int option

  (** Attach (or with [None] detach) a persistent {!Memo_store} beneath
      this cache: misses consult the store and promote hits into memory
      (counted as a hit plus [<prefix>.store_hits]); fresh observations
      write through durably. Off by default. *)
  val attach_store : t -> Memo_store.t option -> unit

  val backing : t -> Memo_store.t option

  (** Drop all in-memory entries and reset the hit/miss/store-hit/evicted
      counters. The attached persistent store (if any) keeps its
      contents. *)
  val clear : t -> unit
end

(** Canonical output of one invocation record: stdout, then [RET:]/[ERR:],
    then [CALLS:] when external calls were made. *)
val canonical_of_record : Platform.Lambda_sim.record -> string

(** Observe a deployment across its test cases, consulting [cache] (default
    {!Cache.global}) per (image digest, test case). Init-time crashes
    appear as [INITERR:<class>]; interpreter timeouts as [CRASH:timeout].
    [params] overrides the probe simulator's parameters (e.g. a small
    [max_steps] to provoke timeouts); runs with a custom budget memoize
    under a distinct key. *)
val observe :
  ?cache:Cache.t -> ?params:Platform.Lambda_sim.params ->
  Platform.Deployment.t -> observation

val equivalent : observation -> observation -> bool

(** [module_reads d ~module_name] returns the attributes of [module_name]
    that [d]'s test cases read, sorted and deduplicated: each test case
    runs in a fresh interpreter with the read recorder on
    ({!Minipy.Interp.create}). Profiles are memoized in [cache] (default
    {!Cache.global}) per test case and module, under keys of their own
    that never collide with an observation; a hit returns what a fresh
    run would record, so the answer does not depend on cache state. A
    disabled cache always re-runs. *)
val module_reads :
  ?cache:Cache.t -> Platform.Deployment.t -> module_name:string -> string list

(** [for_reference d] runs [d] once and returns the DD oracle (candidates
    pass iff they reproduce the reference observation) plus the reference. *)
val for_reference :
  ?cache:Cache.t ->
  ?params:Platform.Lambda_sim.params ->
  Platform.Deployment.t ->
  (Platform.Deployment.t -> bool) * observation

(** {1 Hardened oracle}

    A wrapper defending the observation memo against flaky or hung
    executions: fresh keys are confirmed by a second execution (and decided
    by a [2·retries + 1] quorum on disagreement), the first memo hit per
    key is re-verified once, divergent tests land in a quarantine list
    classified flaky vs genuinely behaviour-changing, and an optional
    wall-clock watchdog turns an over-budget execution into an ordinary
    [CRASH:watchdog-timeout] observation. The memoized baseline always
    stays authoritative, so a hardened search remains deterministic; the
    quarantine report tells the operator what diverged.

    Metrics (in [Obs.Metrics.global]): [oracle.quorum.retries]
    (disagreement-triggered re-executions — zero on a deterministic
    suite), [oracle.quorum.quarantined], [oracle.watchdog.trips]. *)
module Hardened : sig
  type classification = Flaky | Behavior_changed

  val classification_name : classification -> string

  type quarantine_entry = {
    q_test : string;
    q_class : classification;
    q_events : int;           (** divergent quorums observed *)
    q_executions : int;       (** executions those quorums consumed *)
    q_outputs : string list;  (** distinct outputs, first-seen order *)
  }

  type config = {
    retries : int;            (** k: a quorum is [2k + 1] total attempts *)
    verify_hits : bool;       (** re-execute the first memo hit per key *)
    watchdog_ms : float option;  (** per-execution wall budget, off = None *)
    clock : unit -> float;    (** wall-clock source (injectable in tests) *)
    inject : Chaos.injector option;  (** fault injection for chaos runs *)
  }

  (** retries = 1, verify_hits = true, no watchdog, wall clock, no
      injection. *)
  val default_config : config

  type t

  (** @raise Invalid_argument if [retries < 0]. [retries = 0] disables
      quorums and verification (watchdog still applies). *)
  val create : ?cache:Cache.t -> config -> t

  val observe :
    t -> ?params:Platform.Lambda_sim.params -> Platform.Deployment.t ->
    observation

  val for_reference :
    t -> ?params:Platform.Lambda_sim.params -> Platform.Deployment.t ->
    (Platform.Deployment.t -> bool) * observation

  (** Number of quarantined tests. *)
  val quarantined : t -> int

  (** Quarantine entries sorted by test name. *)
  val report : t -> quarantine_entry list

  (** CSV rendering of {!report}:
      [test,class,events,executions,distinct_outputs]. *)
  val report_csv : t -> string
end
