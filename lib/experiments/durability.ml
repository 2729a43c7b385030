(* Durability experiment: a kill/resume sweep. Journal a debloating run,
   kill it after record N via the chaos harness, resume from the journal,
   and check the resumed run reproduces the uninterrupted baseline bit for
   bit (optimized image digest, removed attrs, every DD counter). *)

let app = "markdown"

let sweep_k = 3

(* 1, 5 and 15 fire mid-run (the profile-seeded run writes 22 records);
   100 never fires *)
let kill_points = [ 1; 5; 15; 100 ]

type row = {
  kill_after : int;
  killed : bool;             (* did the chaos kill actually fire? *)
  replayed_records : int;    (* journal records served on resume *)
  identical : bool;          (* resumed run == baseline *)
}

(* Everything DD-level that must survive a crash: the optimized image plus
   every per-module search counter. Memo hit/miss deltas are deliberately
   excluded — a resumed run answers replayed queries before they reach the
   observation memo. *)
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

let run_pipeline ?journal_dir ?(resume = false) () =
  let d = Workloads.Suite.deployment_of app in
  Trim.Pipeline.run
    ~options:{ Trim.Pipeline.default_options with
               k = sweep_k;
               journal_dir; resume;
               (* private memo: runs stay independent of each other and of
                  the process-global memo *)
               oracle_cache = Some (Trim.Oracle.Cache.create ()) }
    d

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
  { kill_after = n; killed; replayed_records;
    identical = String.equal (fingerprint resumed) baseline }

let rows =
  lazy
    (let root = Filename.temp_dir "ltrim-durability" "" in
     let baseline = fingerprint (run_pipeline ()) in
     List.map (kill_row ~root ~baseline) kill_points)

let print () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Common.header
       (Printf.sprintf
          "Durability: kill/resume sweep (%s, K = %d)"
          app sweep_k));
  Buffer.add_string b
    (Printf.sprintf "  %-11s %-7s %-9s %s\n" "kill_after" "killed" "replayed"
       "identical");
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf "  %-11d %-7s %-9d %s\n" r.kill_after
            (if r.killed then "yes" else "no") r.replayed_records
            (if r.identical then "yes" else "NO")))
    (Lazy.force rows);
  Buffer.contents b

let csv () =
  "app,kill_after,killed,replayed_records,identical\n"
  ^ String.concat ""
      (List.map
         (fun r ->
            Printf.sprintf "%s,%d,%d,%d,%d\n" app r.kill_after
              (if r.killed then 1 else 0)
              r.replayed_records
              (if r.identical then 1 else 0))
         (Lazy.force rows))
