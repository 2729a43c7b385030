(* Durability experiment: crash/resume and flaky-oracle sweeps.

   Part A (mode = kill): journal a debloating run, kill it after record N
   via the chaos harness, resume from the journal, and check the resumed
   run reproduces the uninterrupted baseline bit for bit (optimized image
   digest, removed attrs, every DD counter).

   Part B (mode = flake): harden the oracle (2K+1 quorum + quarantine),
   inject seeded flaky observations at a swept rate, and check the final
   trimmed image still equals the zero-flake baseline while genuinely
   flaky tests land in quarantine — with zero false quarantines at rate 0.

   Everything here is pinned to jobs = 1 and a fixed seed, so the CSV is
   byte-identical across runs and machines at any `ltrim --jobs`. *)

let app = "markdown"

let sweep_k = 3

let seed = 2025

(* 1, 5 and 15 fire mid-run (the profile-seeded run writes 22 records);
   100 never fires *)
let kill_points = [ 1; 5; 15; 100 ]

let flake_rates = [ 0.0; 0.01; 0.05; 0.10 ]

let quorum_retries_k = 2

type row = {
  mode : string;             (* "kill" | "flake" *)
  kill_after : int;          (* 0 for flake rows *)
  flake_rate : float;        (* 0.0 for kill rows *)
  killed : bool;             (* did the chaos kill actually fire? *)
  replayed_records : int;    (* journal records served on resume *)
  identical : bool;          (* resumed/hardened run == baseline *)
  quarantined : int;
  quorum_retries : int;
}

(* Everything DD-level that must survive a crash or a flaky oracle: the
   optimized image plus every per-module search counter. Memo hit/miss
   deltas are deliberately excluded — a resumed run answers replayed
   queries before they reach the observation memo. *)
let fingerprint (r : Trim.Pipeline.report) =
  let d = Minipy.Vfs.image_digest r.Trim.Pipeline.optimized.Platform.Deployment.vfs in
  let modules =
    List.map
      (fun (m : Trim.Debloater.module_result) ->
         Printf.sprintf "%s:%s:%d:%d:%d" m.Trim.Debloater.dm_module
           (String.concat "+" m.Trim.Debloater.removed_attrs)
           m.Trim.Debloater.oracle_queries m.Trim.Debloater.cache_hits
           m.Trim.Debloater.dd_iterations)
      r.Trim.Pipeline.module_results
  in
  String.concat "|" (d :: string_of_int r.Trim.Pipeline.total_oracle_queries
                     :: modules)

let run_pipeline ?journal_dir ?(resume = false) ?(oracle_retries = 0)
    ?oracle_inject () =
  let d = Workloads.Suite.deployment_of app in
  Trim.Pipeline.run
    ~options:{ Trim.Pipeline.default_options with
               k = sweep_k;
               journal_dir; resume; oracle_retries; oracle_inject;
               (* private memo: runs stay independent, and injected flakes
                  can never poison the process-global memo *)
               oracle_cache = Some (Trim.Oracle.Cache.create ()) }
    ~jobs:1 d

let counter name = Obs.Metrics.counter Obs.Metrics.global name

let with_delta c f =
  let before = Obs.Metrics.value c in
  let x = f () in
  (x, Obs.Metrics.value c - before)

let kill_row ~root ~baseline n =
  let journal_dir = Filename.concat root (Printf.sprintf "kill%d" n) in
  let killed =
    Trim.Chaos.arm_kill_after n;
    Fun.protect ~finally:Trim.Chaos.disarm (fun () ->
        try
          ignore (run_pipeline ~journal_dir ());
          false
        with Trim.Chaos.Killed _ -> true)
  in
  let resumed, replayed_records =
    with_delta (counter "trim.journal.replayed") (fun () ->
        run_pipeline ~journal_dir ~resume:true ())
  in
  { mode = "kill"; kill_after = n; flake_rate = 0.0; killed;
    replayed_records;
    identical = String.equal (fingerprint resumed) baseline;
    quarantined = 0; quorum_retries = 0 }

let flake_row ~baseline rate =
  let report, quorum_retries =
    with_delta (counter "oracle.quorum.retries") (fun () ->
        run_pipeline ~oracle_retries:quorum_retries_k
          ~oracle_inject:(Trim.Chaos.flake ~seed ~rate) ())
  in
  { mode = "flake"; kill_after = 0; flake_rate = rate; killed = false;
    replayed_records = 0;
    identical = String.equal (fingerprint report) baseline;
    quarantined = report.Trim.Pipeline.quarantined_tests;
    quorum_retries }

let rows =
  lazy
    (let root = Filename.temp_dir "ltrim-durability" "" in
     let baseline = fingerprint (run_pipeline ()) in
     List.map (kill_row ~root ~baseline) kill_points
     @ List.map (flake_row ~baseline) flake_rates)

let print () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Common.header
       (Printf.sprintf
          "Durability: kill/resume and flaky-oracle sweeps (%s, K = %d, \
           seed %d, jobs pinned to 1)" app sweep_k seed));
  Buffer.add_string b
    (Printf.sprintf "  %-6s %-11s %-11s %-7s %-9s %-10s %-12s %s\n" "mode"
       "kill_after" "flake_rate" "killed" "replayed" "identical"
       "quarantined" "quorum_retries");
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf "  %-6s %-11d %-11.2f %-7s %-9d %-10s %-12d %d\n"
            r.mode r.kill_after r.flake_rate
            (if r.killed then "yes" else "no") r.replayed_records
            (if r.identical then "yes" else "NO") r.quarantined
            r.quorum_retries))
    (Lazy.force rows);
  Buffer.contents b

let csv () =
  "mode,app,kill_after,flake_rate,killed,replayed_records,identical,\
   quarantined,quorum_retries\n"
  ^ String.concat ""
      (List.map
         (fun r ->
            Printf.sprintf "%s,%s,%d,%.2f,%d,%d,%d,%d,%d\n" r.mode app
              r.kill_after r.flake_rate
              (if r.killed then 1 else 0)
              r.replayed_records
              (if r.identical then 1 else 0)
              r.quarantined r.quorum_retries)
         (Lazy.force rows))
