(* Trace explorer: record a traced debloat + invocation of a benchmark app,
   write the Chrome trace JSON next to a flat summary, and print the span
   tree — a command-line peek at what chrome://tracing would show.

     dune exec examples/trace_explorer.exe [APP]

   Outputs (current directory): trace_explorer.json (load in
   chrome://tracing or Perfetto), trace_explorer_summary.csv. *)

let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "spacy" in
  let d = Workloads.Suite.deployment_of app in

  (* install a recorder, run a traced pipeline + invocation, detach *)
  let sink = Obs.Span.recorder () in
  Obs.Span.install sink;
  let report = Trim.Pipeline.run ~options:{ Trim.Pipeline.default_options with k = 3 } d in
  let sim = Platform.Lambda_sim.create report.Trim.Pipeline.optimized in
  let _cold, _warm = Platform.Lambda_sim.measure_cold_and_warm sim in
  Obs.Span.install Obs.Span.null;

  let spans = Obs.Span.spans sink in
  Printf.printf "%s: %d spans recorded (well-nested: %b)\n\n" app
    (List.length spans)
    (Obs.Span.well_nested spans);

  (* span tree per (clock, track): the lane walk's pre-order and depths *)
  List.iter
    (fun (lane : Obs.Span.lane) ->
       Printf.printf "-- %s / track %d --\n" (Obs.Span.domain_name lane.l_domain)
         lane.l_track;
       List.iter
         (fun { Obs.Span.n_span = s; n_depth; n_self_ms } ->
            Printf.printf "%s%-40s %10.3f ms (self %.3f)  @%.3f\n"
              (String.make (2 * n_depth) ' ')
              s.Obs.Span.sp_name s.Obs.Span.sp_dur_ms n_self_ms
              s.Obs.Span.sp_start_ms)
         lane.l_nodes)
    (Obs.Span.walk spans);

  Obs.Export.to_file ~path:"trace_explorer.json"
    (Obs.Export.chrome_json ~metrics:Obs.Metrics.global sink);
  Obs.Export.to_file ~path:"trace_explorer_summary.csv"
    (Obs.Export.summary_csv sink);
  print_newline ();
  print_endline "wrote trace_explorer.json (chrome://tracing / Perfetto)";
  print_endline "wrote trace_explorer_summary.csv"
