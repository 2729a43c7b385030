(* Named counters.

   A registry is the single aggregation point for process statistics:
   caches register their hit/miss counters here, the verdict journal, memo
   store and worker pool their event counts. A count that must be one
   run's own is not a delta of a shared counter, which concurrent runs
   move too: the oracle memo gives each pipeline run a view with counters
   of its own, and Dd.stats is a per-search record.

   Counters are handed out once and then incremented directly (a field
   write), so hot paths never pay a hashtable lookup. The registry itself is
   not locked: callers that share a counter across threads must
   synchronize externally (the caches increment under their own mutexes). *)

type counter = { c_name : string; mutable c_value : int }

type registry = { tbl : (string, counter) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* The default registry, shared by every layer not handed an explicit one. *)
let global = create ()

let counter r name =
  match Hashtbl.find_opt r.tbl name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace r.tbl name c;
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by

let value c = c.c_value

let counter_name c = c.c_name

(* Counters sorted by name — the exporter's stable iteration order. *)
let fold r f init =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) r.tbl [] in
  List.fold_left
    (fun acc name -> f acc (Hashtbl.find r.tbl name))
    init
    (List.sort compare names)
