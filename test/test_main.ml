let () =
  Alcotest.run "lambda-trim"
    (Test_lexer.suite @ Test_parser.suite @ Test_pretty.suite @ Test_interp.suite @ Test_lang_ext.suite @ Test_semantics.suite
     @ Test_importer.suite @ Test_callgraph.suite @ Test_dd.suite @ Test_dd_variants.suite
     @ Test_attrs.suite @ Test_scoring.suite @ Test_profiler.suite
     @ Test_debloater.suite @ Test_oracle.suite @ Test_pipeline.suite
     @ Test_fallback.suite @ Test_pricing.suite @ Test_platform.suite
     @ Test_trace.suite @ Test_fleet.suite @ Test_fleet_stream.suite
     @ Test_resilience.suite @ Test_checkpoint.suite
     @ Test_workloads.suite
     @ Test_baselines.suite @ Test_value.suite @ Test_experiments.suite @ Test_properties.suite
     @ Test_caching.suite @ Test_obs.suite @ Test_parallel.suite
     @ Test_golden.suite @ Test_durability.suite
     @ Test_lazy.suite @ Test_incremental.suite @ Test_cli.suite)
