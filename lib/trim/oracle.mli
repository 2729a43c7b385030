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

  (** A root memo. Hit/miss counts live in an {!Obs.Metrics} registry
      (default: a fresh private one) under [<prefix>.hits] /
      [<prefix>.misses]; the {!global} memo registers as [oracle.memo.*] in
      [Obs.Metrics.global]. *)
  val create :
    ?enabled:bool -> ?registry:Obs.Metrics.registry -> ?prefix:string ->
    unit -> t

  (** The default memo shared by {!observe} and {!for_reference} callers
      that do not inject their own — this is what lets continuous re-runs
      and baseline comparisons reuse earlier answers. *)
  val global : t

  (** [view parent] is one run's handle on [parent]'s memo: it shares the
      entries, lock, persistent store and [enabled] flag, and owns its hit,
      miss and store-hit counts and its kept reads ({!module_reads}). Every
      lookup through it counts in the view and in [parent] (and so on up),
      so a view's counts are its run's own traffic whatever other views of
      the same memo do meanwhile. *)
  val view : t -> t

  val set_enabled : t -> bool -> unit
  val enabled : t -> bool
  val hits : t -> int
  val misses : t -> int

  (** Hits answered by the attached persistent store (a subset of
      {!hits}); [<prefix>.store_hits]. *)
  val store_hits : t -> int

  (** Number of memoized (image, test case) observations and read
      profiles ({!module_reads}) held in memory. *)
  val size : t -> int

  (** Attach (or with [None] detach) a persistent {!Memo_store} beneath
      this cache: misses consult the store and promote hits into memory
      (counted as a hit plus [<prefix>.store_hits]); fresh observations
      write through durably. Off by default. *)
  val attach_store : t -> Memo_store.t option -> unit

  (** Drop all in-memory entries (every view of the memo sees them go)
      and this handle's kept reads, and reset this handle's
      hit/miss/store-hit counters. The attached persistent store (if any)
      keeps its contents. *)
  val clear : t -> unit
end

(** The optimizer variant's part of a memo key, journal run digest or
    module search digest: [[]] for an eager image (its keys stay the
    historical ones), otherwise [[Minipy.Interp.lazy_config_of_vfs]] of
    the image, so a lazy image never shares a key with its eager twin. *)
val variant_key_part : Platform.Deployment.t -> string list

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
    that [d]'s test cases read, sorted and deduplicated. Per test case the
    answer comes from, in order: the reads [cache] kept from the last
    passing fresh query of a {!for_reference} predicate on it (when [d] is
    that query's image, as the base of the module after a DD search is);
    the memo; a fresh interpreter with the read recorder on
    ({!Minipy.Interp.create}). Profiles are memoized in [cache] (default
    {!Cache.global}) per test case and module, under keys of their own
    that never collide with an observation, and a kept-reads answer is
    stored there too but counts as neither a hit nor a miss. Every source
    returns what a fresh run would record, so the answer does not depend
    on cache state. A disabled cache always re-runs. *)
val module_reads :
  ?cache:Cache.t -> Platform.Deployment.t -> module_name:string -> string list

(** [for_reference d] runs [d] once and returns the DD oracle (candidates
    pass iff they reproduce the reference observation) plus the reference.
    The predicate's verdict is [equivalent (observe candidate) expected],
    but it runs the candidate's test cases in order and stops at the first
    mismatch, so a failing query runs and memoizes only the test cases up
    to it. Fresh runs record every module's reads: the reference's, and
    each passing query's, replace [cache]'s kept reads for
    {!module_reads}; the call itself starts them afresh. *)
val for_reference :
  ?cache:Cache.t ->
  ?params:Platform.Lambda_sim.params ->
  Platform.Deployment.t ->
  (Platform.Deployment.t -> bool) * observation
