(** Delta Debugging — Algorithm 1 of the paper, with the §9 seeding
    extension folded into the same search.

    Given a list of program components and an oracle over component subsets,
    [minimize] returns a 1-minimal subset that still satisfies the oracle:
    the subset passes, and removing any single component makes it fail.
    Oracle queries are memoized across granularity changes. *)

type stats = {
  mutable oracle_queries : int;
      (** issued queries: distinct subsets the search tested, plus the
          seed's confirming query *)
  mutable cache_hits : int;      (** repeated subsets answered from cache *)
  mutable iterations : int;      (** granularity rounds of the main loop *)
  mutable ws_queries : int;
      (** seed confirmation queries (0 or 1): the pre-step testing a
          previous keep-set before searching *)
  mutable ws_hits : int;
      (** seed confirmations that passed (0 or 1), skipping the
          coarse-granularity descent entirely *)
}

type 'a step = {
  step_candidate : 'a list;  (** the subset under test *)
  step_passed : bool;        (** the oracle's verdict *)
}

(** [partitions items n] splits [items] into at most [n] contiguous,
    non-empty partitions of near-equal size, covering [items] exactly. *)
val partitions : 'a list -> int -> 'a list list

(** [complement ~of_ part] is [of_] without the elements of [part]. *)
val complement : of_:'a list -> 'a list -> 'a list

(** [minimize ~oracle items] runs Algorithm 1. Assumes [oracle items = true]
    (the full program passes its own test cases — §5's precondition).
    Unlike crash minimisation, the empty subset is a legal result: a
    singleton is tested against [[]] before being returned.

    [on_step] observes every issued query in order — the Figure-6
    walkthrough of [examples/quickstart.ml].

    With [journal], every verdict is recorded durably before the search can
    observe it, and a resumed run (a journal opened with [resume] on the
    same run digest) replays recorded verdicts instead of re-querying —
    keep-set and all counters are bit-identical to the uninterrupted run.

    With [seed] (§9 continuous pipeline), a pre-step tests the seed's
    members of [items] (by value, in the seed's order) with one confirming
    query that does not enter the subset cache. On a pass the search runs
    inside the seed ([ws_hits = 1]); otherwise over all of [items]. A seed
    naming every item is not tested. With [journal] the confirming verdict
    is recorded under a key of its own and replayed on resume; the
    journal's run digest must cover the seed (as
    {!Debloater.journal_run_digest} does). *)
val minimize :
  ?on_step:('a step -> unit) ->
  ?journal:Journal.t ->
  ?seed:'a list ->
  oracle:('a list -> bool) ->
  'a list ->
  'a list * stats

(** [is_one_minimal ~oracle subset]: [subset] passes and no single-element
    removal does. The property tests check [minimize]'s output with this. *)
val is_one_minimal : oracle:('a list -> bool) -> 'a list -> bool
