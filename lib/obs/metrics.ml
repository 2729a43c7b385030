(* Named counters / gauges / histograms.

   A registry is the single aggregation point for process statistics:
   caches register their hit/miss counters here, the verdict journal, memo
   store and worker pool their event counts. A count that must be one
   run's own is not a delta of a shared counter, which concurrent runs
   move too: the oracle memo gives each pipeline run a view with counters
   of its own, and Dd.stats is a per-search record.

   Instruments are handed out once and then incremented directly (a field
   write), so hot paths never pay a hashtable lookup. The registry itself is
   not locked: callers that share an instrument across threads must
   synchronize externally (the caches increment under their own mutexes). *)

type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

(* Histograms keep moment summaries, not samples: count/sum/min/max is what
   the trace export embeds, and it is O(1) per observation. *)
type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registry = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* The default registry, shared by every layer not handed an explicit one. *)
let global = create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_add r name make expect =
  match Hashtbl.find_opt r.tbl name with
  | Some i ->
    (match expect i with
     | Some v -> v
     | None ->
       invalid_arg
         (Printf.sprintf "Obs.Metrics: %S is already a %s" name (kind_name i)))
  | None ->
    let i, v = make () in
    Hashtbl.replace r.tbl name i;
    v

let counter r name =
  find_or_add r name
    (fun () ->
       let c = { c_name = name; c_value = 0 } in
       (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let gauge r name =
  find_or_add r name
    (fun () ->
       let g = { g_name = name; g_value = 0.0 } in
       (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let histogram r name =
  find_or_add r name
    (fun () ->
       let h =
         { h_name = name;
           h_count = 0;
           h_sum = 0.0;
           h_min = infinity;
           h_max = neg_infinity }
       in
       (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c_value <- c.c_value + by

let value c = c.c_value

let counter_name c = c.c_name

let set g v = g.g_value <- v

let gauge_value g = g.g_value

let gauge_name g = g.g_name

let observe h x =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x;
  if x < h.h_min then h.h_min <- x;
  if x > h.h_max then h.h_max <- x

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_name h = h.h_name
let histogram_min h = if h.h_count = 0 then 0.0 else h.h_min
let histogram_max h = if h.h_count = 0 then 0.0 else h.h_max
let histogram_mean h =
  if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

(* Zero every instrument without invalidating handles already handed out. *)
let reset r =
  Hashtbl.iter
    (fun _ i ->
       match i with
       | Counter c -> c.c_value <- 0
       | Gauge g -> g.g_value <- 0.0
       | Histogram h ->
         h.h_count <- 0;
         h.h_sum <- 0.0;
         h.h_min <- infinity;
         h.h_max <- neg_infinity)
    r.tbl

(* Instruments sorted by name — the exporters' stable iteration order. *)
let fold r f init =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) r.tbl [] in
  List.fold_left
    (fun acc name -> f acc (Hashtbl.find r.tbl name))
    init
    (List.sort compare names)
