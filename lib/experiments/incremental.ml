(* Incremental re-debloating experiment: replay a synthetic commit history
   over the Figure-9 corpus and measure warm (manifest-driven) vs cold
   (from-scratch) re-debloating.

   Revision r edits one app — round-robin over the corpus — by appending a
   fresh top-level assignment to its representative module file; edits
   accumulate, so every revision sees the full history. Each revision then
   re-debloats all three apps twice: cold (no baseline) and warm (baseline =
   that app's previous manifest, chained across revisions). The headline
   ratio is fresh oracle executions cold/warm, and `identical` asserts the
   warm output image and per-module keep-sets are bit-identical to the
   cold run's.

   Every run uses a private observation memo, so cold runs never feed warm
   runs (and vice versa); manifests round-trip through disk via
   [manifest_path]/[Manifest.load]. The wall-clock columns are last in the
   CSV and documented non-deterministic — CI diffs `cut -d, -f1-13`. *)

let apps = [ "dna-visualization"; "lightgbm"; "spacy" ]

let k = 3

let revisions = 4

type row = {
  revision : int;
  app : string;
  edited : bool;          (* was this app the one edited at this revision? *)
  edited_module : string; (* module whose file changed; "-" otherwise *)
  modules : int;
  replayed : int;         (* baseline digests unchanged: zero queries *)
  seeded : int;           (* stale baseline entries warm-started *)
  seed_hits : int;
  cold_queries : int;
  warm_queries : int;
  cold_fresh : int;       (* oracle executions not served by the memo *)
  warm_fresh : int;
  identical : bool;       (* warm image + keep-sets == cold run's *)
  cold_wall_s : float;
  warm_wall_s : float;
}

(* One run on a private memo of its own; the report's oracle misses are
   then exactly the run's fresh oracle executions. *)
let run_pipeline ?baseline ?manifest_path name d =
  Trim.Pipeline.run
    ~options:{ Trim.Pipeline.default_options with
               k; baseline; manifest_path;
               oracle_cache = Some (Trim.Oracle.Cache.create ()) }
    { d with Platform.Deployment.name }

let fresh (r : Trim.Pipeline.report) =
  r.Trim.Pipeline.caches.Trim.Pipeline.oracle_misses

(* The image plus every module keep-set: what warm must reproduce bit for
   bit. Query counters are deliberately excluded — differing is the point. *)
let fingerprint (r : Trim.Pipeline.report) =
  String.concat "|"
    (Minipy.Vfs.image_digest r.Trim.Pipeline.optimized.Platform.Deployment.vfs
     :: List.map
          (fun (m : Trim.Debloater.module_result) ->
             m.Trim.Debloater.dm_module ^ ":"
             ^ String.concat "+" m.Trim.Debloater.removed_attrs)
          r.Trim.Pipeline.module_results)

(* Append a revision marker to [file] on a fresh overlay — the one-line
   commit of the synthetic history. *)
let edit d ~file ~revision =
  let d' = Platform.Deployment.overlay d in
  let src = Minipy.Vfs.read_exn d'.Platform.Deployment.vfs file in
  Minipy.Vfs.add_file d'.Platform.Deployment.vfs file
    (Printf.sprintf "%s\n_incremental_rev_%d = %d\n" src revision revision);
  d'

(* The app's representative module for edits: its first file-backed
   ranked module (fixed once, from the priming run). *)
let edit_target (r : Trim.Pipeline.report) =
  match
    List.find_opt
      (fun (m : Trim.Debloater.module_result) ->
         m.Trim.Debloater.dm_file <> "<none>")
      r.Trim.Pipeline.module_results
  with
  | Some m -> (m.Trim.Debloater.dm_module, m.Trim.Debloater.dm_file)
  | None -> invalid_arg "incremental: corpus app has no file-backed module"

type app_state = {
  mutable current : Platform.Deployment.t;  (* edits accumulated so far *)
  target_module : string;
  target_file : string;
  manifest_path : string;                   (* previous revision's manifest *)
}

let rows =
  lazy
    (let root = Filename.temp_dir "ltrim-incremental" "" in
     let states =
       List.map
         (fun app ->
            let d = Workloads.Suite.deployment_of app in
            let path = Filename.concat root (app ^ ".manifest") in
            (* priming run (revision 0): cold, writes the first manifest *)
            let r = run_pipeline ~manifest_path:path app d in
            let target_module, target_file = edit_target r in
            (app, { current = d; target_module; target_file;
                    manifest_path = path }))
         apps
     in
     List.concat_map
       (fun revision ->
          let edited_app = List.nth apps ((revision - 1) mod List.length apps) in
          let st = List.assoc edited_app states in
          st.current <- edit st.current ~file:st.target_file ~revision;
          List.map
            (fun (app, st) ->
               let cold = run_pipeline app st.current in
               let baseline = Trim.Manifest.load ~path:st.manifest_path in
               assert (baseline <> None);
               let warm =
                 run_pipeline ?baseline ~manifest_path:st.manifest_path app
                   st.current
               in
               { revision; app;
                 edited = String.equal app edited_app;
                 edited_module =
                   (if String.equal app edited_app then st.target_module
                    else "-");
                 modules = List.length warm.Trim.Pipeline.module_results;
                 replayed = List.length warm.Trim.Pipeline.replayed_modules;
                 seeded = warm.Trim.Pipeline.warm_seeded;
                 seed_hits = warm.Trim.Pipeline.warm_seed_hits;
                 cold_queries = cold.Trim.Pipeline.total_oracle_queries;
                 warm_queries = warm.Trim.Pipeline.total_oracle_queries;
                 cold_fresh = fresh cold; warm_fresh = fresh warm;
                 identical =
                   String.equal (fingerprint cold) (fingerprint warm);
                 cold_wall_s = cold.Trim.Pipeline.debloat_wall_s;
                 warm_wall_s = warm.Trim.Pipeline.debloat_wall_s })
            states)
       (List.init revisions (fun i -> i + 1)))

let totals rs =
  List.fold_left
    (fun (c, w) r -> (c + r.cold_fresh, w + r.warm_fresh))
    (0, 0) rs

let print () =
  let rs = Lazy.force rows in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Common.header
       (Printf.sprintf
          "Incremental re-debloating: %d-revision synthetic history over \
           %s (K = %d)"
          revisions (String.concat ", " apps) k));
  Buffer.add_string b
    (Printf.sprintf "  %-4s %-18s %-8s %-9s %-7s %-10s %-11s %-11s %s\n"
       "rev" "app" "edited" "replayed" "seeded" "cold_fresh" "warm_fresh"
       "identical" "speedup");
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf "  %-4d %-18s %-8s %5d/%-3d %-7d %-10d %-11d %-11s %s\n"
            r.revision r.app
            (if r.edited then "yes" else "no")
            r.replayed r.modules r.seeded r.cold_fresh r.warm_fresh
            (if r.identical then "yes" else "NO")
            (if r.warm_fresh = 0 then "inf"
             else
               Printf.sprintf "%.1fx"
                 (float_of_int r.cold_fresh /. float_of_int r.warm_fresh))))
    rs;
  let cold, warm = totals rs in
  Buffer.add_string b
    (Printf.sprintf
       "  total fresh oracle executions: cold %d, warm %d (%.1fx fewer)\n"
       cold warm
       (if warm = 0 then Float.infinity
        else float_of_int cold /. float_of_int warm));
  Buffer.contents b

let csv () =
  "revision,app,edited,edited_module,modules,replayed,seeded,seed_hits,\
   cold_queries,warm_queries,cold_fresh,warm_fresh,identical,\
   cold_wall_ms,warm_wall_ms\n"
  ^ String.concat ""
      (List.map
         (fun r ->
            Printf.sprintf "%d,%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.1f\n"
              r.revision r.app
              (if r.edited then 1 else 0)
              r.edited_module r.modules r.replayed r.seeded r.seed_hits
              r.cold_queries r.warm_queries r.cold_fresh r.warm_fresh
              (if r.identical then 1 else 0)
              (r.cold_wall_s *. 1000.0) (r.warm_wall_s *. 1000.0))
         (Lazy.force rows))
