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
  (* seeding pre-step: confirming queries spent testing a previous
     keep-set, and how many of them passed (a hit skips the whole
     coarse-granularity descent) *)
  mutable ws_queries : int;
  mutable ws_hits : int;
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

(* The one search. Algorithm 1 runs as a sequence of *phases* — the
   candidates one granularity step tests, first pass wins. A subset cache
   answers candidates the search already tested ([cache_hits]); every other
   candidate is an issued query ([oracle_queries], reported to [on_step]).

   With [journal], every verdict is recorded durably before the search
   observes it. A resumed run replays recorded verdicts instead of
   re-querying; keep-set and every counter equal the uninterrupted run's.

   With [seed] (§9 continuous pipeline; Heo et al.'s learned prediction) a
   pre-step tests the predicted keep-set: one confirming query, counted in
   [oracle_queries] and [ws_queries] but kept out of the subset cache, so a
   fallback search that reaches the same subset queries it again. On a pass
   the search starts from the seed, skipping the coarse descent, and the
   result is 1-minimal inside it; otherwise the search starts from the full
   list. A seed naming every item predicts nothing and is not tested. The
   seed is matched against [items] by value and keeps its own order. Its
   verdict is journaled under a [seed:] key of its own, so a resumed run
   replays it; the caller's journal run digest must cover the seed. *)
let minimize ?(on_step = fun (_ : 'a step) -> ()) ?journal ?seed ~oracle
    items =
  let stats =
    { oracle_queries = 0; cache_hits = 0; iterations = 0; ws_queries = 0;
      ws_hits = 0 }
  in
  let issue subset verdict =
    stats.oracle_queries <- stats.oracle_queries + 1;
    on_step { step_candidate = subset; step_passed = verdict }
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
        stats.ws_queries <- 1;
        if passed then (stats.ws_hits <- 1; seed) else items
      end
  in
  let arr = Array.of_list universe in
  let to_items idxs = List.map (fun i -> arr.(i)) idxs in
  let key idxs = String.concat "," (List.map string_of_int idxs) in
  let cache : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let test idxs =
    let k = key idxs in
    match Hashtbl.find_opt cache k with
    | Some verdict ->
      stats.cache_hits <- stats.cache_hits + 1;
      verdict
    | None ->
      let subset = to_items idxs in
      let verdict = journaled_query ~journal ~oracle ~key:k subset in
      Hashtbl.replace cache k verdict;
      issue subset verdict;
      verdict
  in
  let test_phase phase = List.find_opt test phase in
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
  let result =
    if universe = [] then [] else loop (List.init (Array.length arr) Fun.id) 2
  in
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
