(* Reference record mode for the equivalence property in
   test_fleet_stream.ml: what [Router.run] and [Report.summarize] computed
   when a run kept one boxed [Router.record] per arrival. The records of
   [Router.run_with] go into a slot array indexed by arrival and come back
   as a list; the summary is the list fold through [Report.Stream.observe],
   whose latency sketch gives [mean_ms] and [max_ms], with p50/p95/p99 read
   off the served latencies by [Platform.Metrics]' list percentiles. The
   columns, their packed word and the sketch-free summary must reproduce
   both bit for bit. *)

open Fleet

(* Every row of a record-mode result, in arrival order. *)
let records res = List.init (Router.length res) (Router.record res)

let run cfg (trace : Platform.Trace.t) =
  let n = Platform.Trace.length trace in
  let slots = Array.make n None in
  let totals =
    Router.run_with
      ~emit:(fun (r : Router.record) ->
          assert (slots.(r.Router.req) = None);
          slots.(r.Router.req) <- Some r)
      cfg trace
  in
  (List.map Option.get (Array.to_list slots), totals)

let served (r : Router.record) =
  match r.Router.outcome with
  | Router.Served _ | Router.Fallback_served _ | Router.Shed _ -> true
  | Router.Rejected | Router.Timed_out | Router.Failed _ -> false

let summarize ~label cfg (records, totals) =
  let st = Report.Stream.create cfg in
  List.iter (Report.Stream.observe st) records;
  Report.Stream.absorb_totals st totals;
  let s = Report.Stream.summary ~label st in
  let lat =
    List.filter_map
      (fun r -> if served r then Some (r.Router.e2e_s *. 1000.0) else None)
      records
  in
  { s with
    Report.p50_ms = Platform.Metrics.percentile 50.0 lat;
    p95_ms = Platform.Metrics.percentile 95.0 lat;
    p99_ms = Platform.Metrics.percentile 99.0 lat }
