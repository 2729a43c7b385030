(* Deriving fleet inputs from platform measurements. *)

let profile_of_record (r : Platform.Lambda_sim.record) :
  Router.deployment_profile =
  { Router.exec_s = r.Platform.Lambda_sim.exec_ms /. 1000.0;
    func_init_s = r.Platform.Lambda_sim.init_ms /. 1000.0;
    instance_init_s =
      (r.Platform.Lambda_sim.instance_init_ms
       +. r.Platform.Lambda_sim.transmission_ms)
      /. 1000.0;
    memory_mb = r.Platform.Lambda_sim.peak_memory_mb }

let profile_of_deployment ?params (d : Platform.Deployment.t) =
  let sim = Platform.Lambda_sim.create ?params d in
  let event =
    match d.Platform.Deployment.test_cases with
    | tc :: _ -> tc.Platform.Deployment.tc_event
    | [] -> "{}"
  in
  let cold, _ = Platform.Lambda_sim.measure_cold_and_warm ~event sim in
  profile_of_record cold

let fallback ~rate ~seed ~original
    ?(policy = Pool.Fixed_ttl { keep_alive_s = 600.0 }) () : Router.fallback =
  { Router.fb_rate = rate;
    fb_seed = seed;
    fb_profile = original;
    fb_policy = policy;
    fb_setup_s = 0.05 }
