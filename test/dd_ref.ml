(* Reference Delta Debugging for the equivalence properties: the plain
   sequential ddmin (Algorithm 1) that [Trim.Dd.minimize], the library's
   one search, must reproduce with or without a seed. It shares no code
   with the engine: one subset cache, every candidate evaluated the moment
   the search reaches it, first pass wins. [is_one_minimal] is the
   1-minimality oracle the DD properties check results with.

   [seed] replays the continuous pipeline's warm start as two separate
   searches: one confirming query on the seed, then ddmin over the seed
   (pass) or over every item (fail), each with a fresh cache. *)

open Trim

(* Split [items] into [n] contiguous partitions of near-equal size, empty
   ones dropped. *)
let partitions items n =
  let len = List.length items in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i >= n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let part = List.filteri (fun j _ -> j < size) rest in
      go (i + 1) (List.filteri (fun j _ -> j >= size) rest) (part :: acc)
  in
  List.filter (fun p -> p <> []) (go 0 items [])

let complement ~of_:all part = List.filter (fun x -> not (List.mem x part)) all

let ddmin ~on_step ~(stats : Dd.stats) ~oracle items =
  let arr = Array.of_list items in
  let to_items idxs = List.map (fun i -> arr.(i)) idxs in
  let cache : (int list, bool) Hashtbl.t = Hashtbl.create 64 in
  let test idxs =
    match Hashtbl.find_opt cache idxs with
    | Some r ->
      stats.Dd.cache_hits <- stats.Dd.cache_hits + 1;
      r
    | None ->
      stats.Dd.oracle_queries <- stats.Dd.oracle_queries + 1;
      let subset = to_items idxs in
      let r = oracle subset in
      Hashtbl.replace cache idxs r;
      on_step subset r;
      r
  in
  let phase candidates = List.find_opt test candidates in
  let rec loop current n =
    stats.Dd.iterations <- stats.Dd.iterations + 1;
    let len = List.length current in
    if len <= 1 then (if len = 1 && phase [ [] ] <> None then [] else current)
    else begin
      let parts = partitions current n in
      match phase parts with
      | Some winner -> loop winner 2
      | None ->
        let complements =
          if n = 2 then []
          else List.map (fun p -> complement ~of_:current p) parts
        in
        (match phase complements with
         | Some winner -> loop winner (max 2 (n - 1))
         | None -> if n >= len then current else loop current (min (2 * n) len))
    end
  in
  if items = [] then []
  else to_items (loop (List.init (Array.length arr) Fun.id) 2)

let minimize ?(on_step = fun _ _ -> ()) ?seed ~oracle items =
  let stats =
    { Dd.oracle_queries = 0; cache_hits = 0; iterations = 0; ws_queries = 0;
      ws_hits = 0 }
  in
  let search = ddmin ~on_step ~stats ~oracle in
  let kept =
    match seed with
    | None -> search items
    | Some seed ->
      let seed = List.filter (fun x -> List.mem x items) seed in
      if List.sort_uniq compare seed = List.sort_uniq compare items then
        search items
      else begin
        let passed = oracle seed in
        on_step seed passed;
        stats.Dd.oracle_queries <- 1;
        stats.Dd.ws_queries <- 1;
        if passed then begin
          stats.Dd.ws_hits <- 1;
          search seed
        end
        else search items
      end
  in
  (kept, stats)

(* Check 1-minimality of [subset] under [oracle]: the subset passes and no
   single-element removal does.

   Removal is positional: filtering on the element value would drop every
   duplicate at once (and OCaml's [!=] on immediate ints compares like [=],
   so [5; 5] minus one 5 came out as [] — testing a 2-element removal and
   misreporting minimality). *)
let is_one_minimal ~oracle subset =
  oracle subset
  && List.for_all
       (fun i -> not (oracle (List.filteri (fun j _ -> j <> i) subset)))
       (List.init (List.length subset) Fun.id)
