(* Delta Debugging — Algorithm 1 of the paper (the ddmin variant of Zeller &
   Hildebrandt adapted for debloating by Heo et al.).

   Given a component list A and an oracle O over component subsets, find a
   1-minimal passing subset A-star of A:

     n ← 2
     repeat
       split A into n partitions a_1 … a_n
       if ∃i. O(a_i) = T          then (A, n) ← (a_i, 2)
       else if ∃i. O(A \ a_i) = T then (A, n) ← (A \ a_i, n − 1)
       else                            n ← 2n
     until n > |A|

   1-minimality: removing any single component from the result makes the
   oracle return F (checked by the property tests). Oracle queries are
   memoized — DD revisits subsets across granularity changes. The search
   runs over component *indices*; items are mapped back at the boundary. *)

type stats = {
  mutable oracle_queries : int;     (* distinct subsets actually tested *)
  mutable cache_hits : int;
  mutable iterations : int;         (* granularity rounds *)
  (* observation-memo traffic underneath the subset cache: queries answered
     by Oracle.Cache instead of fresh interpreters. Filled in by the
     debloater (DD itself only sees an opaque subset oracle). *)
  mutable oracle_cache_hits : int;
  mutable oracle_cache_misses : int;
  (* seeding pre-step: confirming queries spent testing a previous
     keep-set, and how many of them passed (a hit skips the whole
     coarse-granularity descent) *)
  mutable ws_queries : int;
  mutable ws_hits : int;
  mutable speculative : int;        (* evaluations the commit walk never used *)
  mutable rounds : int;             (* critical path in worker batches *)
  mutable max_batch : int;          (* widest issued batch (<= workers) *)
}

type 'a step = {
  step_candidate : 'a list;   (* subset under test *)
  step_passed : bool;
}

(* Split [items] into [n] contiguous partitions of near-equal size. *)
let partitions items n =
  let len = List.length items in
  let arr = Array.of_list items in
  let base = len / n and extra = len mod n in
  let rec go i start acc =
    if i >= n then List.rev acc
    else
      let size = base + (if i < extra then 1 else 0) in
      let part = Array.to_list (Array.sub arr start size) in
      go (i + 1) (start + size) (part :: acc)
  in
  List.filter (fun p -> p <> []) (go 0 0 [])

let complement ~of_:all part = List.filter (fun x -> not (List.mem x part)) all

(* Answer a fresh subset query: replay the journal when it already holds a
   verdict for this key, otherwise ask the oracle and record the verdict
   durably before it becomes visible to the search. Counters treat both
   paths identically — a resumed run's stats equal the uninterrupted
   run's. *)
let journaled_query ~journal ~oracle ~key subset =
  match journal with
  | None -> oracle subset
  | Some j ->
    (match Journal.find j key with
     | Some verdict -> verdict
     | None ->
       let verdict = oracle subset in
       Journal.append j ~key verdict;
       verdict)

let journal_keepset ~journal result =
  match journal with
  | None -> ()
  | Some j ->
    Journal.append_keepset j
      (String.concat "," (List.map string_of_int result))

(* The one search. Algorithm 1 runs as a sequence of *phases* — the
   candidates one granularity step tests, first pass wins — and each phase
   is settled by a commit walk that visits its candidates in partition
   order against a [committed] table. That table always equals the plain
   ddmin's subset cache: a candidate the walk reaches is either a committed
   hit ([cache_hits]) or an issue ([oracle_queries], reported to
   [on_step]), and the walk stops at the first pass.

   A pool only changes where an issued verdict comes from. Without one (or
   with a single domain) the walk asks the oracle the moment it reaches a
   candidate: plain ddmin. With a pool of size > 1 (§9: "multiple sets of
   attributes of the same module in parallel"), the phase's unknown
   candidates are first evaluated concurrently into a [speculative] table —
   speculatively, because the walk stops at the first pass — and the walk
   moves verdicts from there into [committed] one at a time. A verdict the
   walk never reached stays speculative; if a later phase reaches that
   subset, committing it counts as an issue (the sequential search would
   have queried right there) that costs no oracle time anymore. So the
   keep-set, [oracle_queries], [cache_hits] and [iterations] do not depend
   on the pool or on scheduling; the surplus evaluations are [speculative],
   the price of the wall-clock win (they also pre-warm the observation
   memo). [rounds] models the critical path: each phase contributes
   ⌈issued/workers⌉, workers being the pool size (1 without a pool).

   With [journal], every execution (speculative included — a resumed run
   re-speculates the same batches) is recorded durably before the search
   observes it: lazy queries as they happen, a speculated batch in
   submission order from the orchestrating thread, so record order — and
   any chaos kill point — is scheduling-independent. A resumed run replays
   recorded verdicts instead of re-querying; keep-set and every counter
   equal the uninterrupted run's.

   With [seed] (§9 continuous pipeline; Heo et al.'s learned prediction) a
   pre-step tests the predicted keep-set: one confirming query, counted in
   [oracle_queries] and [ws_queries] but kept out of the subset cache, so a
   fallback walk that reaches the same subset queries it again. On a pass
   the walk starts from the seed, skipping the coarse descent, and the
   result is 1-minimal inside it; otherwise the walk starts from the full
   list. A seed naming every item predicts nothing and is not tested. The
   seed is matched against [items] by value and keeps its own order. Its
   verdict is journaled under a [seed:] key of its own, so a resumed run
   replays it; the caller's journal run digest must cover the seed. *)
let minimize ?(on_step = fun (_ : 'a step) -> ()) ?pool ?journal ?seed
    ~oracle items =
  let pool =
    match pool with
    | Some p when Parallel.Pool.size p > 1 -> Some p
    | _ -> None
  in
  let workers = match pool with Some p -> Parallel.Pool.size p | None -> 1 in
  let stats =
    { oracle_queries = 0; cache_hits = 0; iterations = 0;
      oracle_cache_hits = 0; oracle_cache_misses = 0;
      ws_queries = 0; ws_hits = 0; speculative = 0; rounds = 0;
      max_batch = 0 }
  in
  let issue subset verdict =
    stats.oracle_queries <- stats.oracle_queries + 1;
    on_step { step_candidate = subset; step_passed = verdict }
  in
  let close_phase issued =
    if issued > 0 then begin
      stats.rounds <- stats.rounds + ((issued + workers - 1) / workers);
      stats.max_batch <- max stats.max_batch (min issued workers)
    end
  in
  let universe =
    match seed with
    | None -> items
    | Some seed ->
      let seed = List.filter (fun x -> List.mem x items) seed in
      if List.sort_uniq compare seed = List.sort_uniq compare items then items
      else begin
        (* journaled under its own key: the seed's positions in [items] *)
        let position x =
          string_of_int (Option.get (List.find_index (( = ) x) items))
        in
        let key = "seed:" ^ String.concat "," (List.map position seed) in
        let passed = journaled_query ~journal ~oracle ~key seed in
        issue seed passed;
        close_phase 1;
        stats.ws_queries <- 1;
        if passed then (stats.ws_hits <- 1; seed) else items
      end
  in
  let arr = Array.of_list universe in
  let to_items idxs = List.map (fun i -> arr.(i)) idxs in
  let key idxs = String.concat "," (List.map string_of_int idxs) in
  let committed : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let speculative : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let speculate p phase =
    let needed =
      List.filter
        (fun idxs ->
           let k = key idxs in
           not (Hashtbl.mem committed k || Hashtbl.mem speculative k))
        phase
    in
    stats.speculative <- stats.speculative + List.length needed;
    let replayed, fresh =
      List.partition_map
        (fun idxs ->
           match Option.bind journal (fun j -> Journal.find j (key idxs)) with
           | Some verdict -> Left (idxs, verdict)
           | None -> Right idxs)
        needed
    in
    let verdicts =
      Parallel.Pool.map p (fun idxs -> oracle (to_items idxs)) fresh
    in
    (* durable before visible: journal fresh verdicts in submission order *)
    List.iter2
      (fun idxs verdict ->
         let k = key idxs in
         Option.iter (fun j -> Journal.append j ~key:k verdict) journal;
         Hashtbl.replace speculative k verdict)
      fresh verdicts;
    List.iter
      (fun (idxs, verdict) -> Hashtbl.replace speculative (key idxs) verdict)
      replayed
  in
  let test_phase phase =
    Option.iter (fun p -> speculate p phase) pool;
    let issued = ref 0 in
    let commit idxs =
      let k = key idxs in
      match Hashtbl.find_opt committed k with
      | Some verdict ->
        stats.cache_hits <- stats.cache_hits + 1;
        verdict
      | None ->
        let subset = to_items idxs in
        let verdict =
          match Hashtbl.find_opt speculative k with
          | Some verdict ->
            Hashtbl.remove speculative k;
            stats.speculative <- stats.speculative - 1;
            verdict
          | None -> journaled_query ~journal ~oracle ~key:k subset
        in
        Hashtbl.replace committed k verdict;
        incr issued;
        issue subset verdict;
        verdict
    in
    let winner = List.find_opt commit phase in
    close_phase !issued;
    winner
  in
  let rec loop current n =
    stats.iterations <- stats.iterations + 1;
    let len = List.length current in
    (* unlike crash-minimisation, debloating admits an empty keep-set: a
       singleton is only 1-minimal if the empty set fails *)
    if len <= 1 then
      (if len = 1 && test_phase [ [] ] <> None then [] else current)
    else begin
      let parts = partitions current n in
      match test_phase parts with
      | Some winner -> loop winner 2
      | None ->
        (* complements coincide with partitions at n = 2; skip re-testing *)
        let complements =
          if n = 2 then []
          else List.map (fun p -> complement ~of_:current p) parts
        in
        (match test_phase complements with
         | Some winner -> loop winner (max 2 (n - 1))
         | None ->
           if n >= len then current
           else loop current (min (2 * n) len))
    end
  in
  let all_idxs = List.init (Array.length arr) Fun.id in
  let result = if universe = [] then [] else loop all_idxs 2 in
  journal_keepset ~journal result;
  (to_items result, stats)

(* Check 1-minimality of [subset] under [oracle]: the subset passes and no
   single-element removal does. Exposed for tests and EXPERIMENTS.md.

   Removal is positional: filtering on the element value would drop every
   duplicate at once (and OCaml's [!=] on immediate ints compares like [=],
   so [5; 5] minus one 5 came out as [] — testing a 2-element removal and
   misreporting minimality). *)
let is_one_minimal ~oracle subset =
  oracle subset
  && List.for_all
       (fun i -> not (oracle (List.filteri (fun j _ -> j <> i) subset)))
       (List.init (List.length subset) Fun.id)
