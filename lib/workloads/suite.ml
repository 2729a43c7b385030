(* Convenience access to the benchmark suite. *)

let names = List.map (fun (s : Apps.spec) -> s.Apps.name) Apps.all

let deployment_of name = Codegen.deployment (Apps.find name)

let spec_of = Apps.find

(* A reduced, fast application used across the unit tests: one small library,
   a couple of removable heavies, tiny costs. Deterministic. *)
let tiny_app ?(name = "tinyapp") ?(attrs = 18) ?(removable_time_frac = 0.7)
    ?(removable_mem_frac = 0.6) () : Platform.Deployment.t =
  let spec =
    { Apps.name;
      origin = "Test";
      libs =
        [ Libspec.spec ~name:"tinylib" ~import_ms:100.0 ~alloc_mb:20.0
            ~image_mb:2.0 ~attrs ~needed_funcs:2 ~removable_time_frac
            ~removable_mem_frac ~heavy_subs:2 ~exec_ms:10.0 () ];
      extra_init_ms = 0.0;
      post_init_mb = 23.0;
      tests = [ ("t1", "{\"x\": 1}"); ("t2", "{\"x\": 4}") ];
      logic = [];
      paper = { Apps.p_size_mb = 2.0; p_import_s = 0.1; p_exec_s = 0.01;
                p_e2e_s = 0.5 } }
  in
  Codegen.deployment spec
