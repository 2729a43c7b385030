(* Sharded fleet engine: replay many independent apps (function/tenant
   workloads) across the [Parallel.Pool] work pool and merge their
   streaming accumulators into per-group reports.

   Determinism contract (the one CI byte-diffs):
   - Each app is a self-contained simulation: its trace is materialized
     inside whichever shard runs it from the app's own thunk (seeded by
     the scenario, not by shard layout), and the router/pool stack is
     deterministic per app. Shard assignment therefore decides only
     *where* an app runs, never what it computes.
   - The reduction folds per-app accumulators in global (app list) order,
     not per-shard completion order. Integer counters and sketch buckets
     merge commutatively anyway; the canonical fold order is what makes
     the float sums (cost, residency) bit-identical at any shard count and
     pool size.

   Shards are coarse work units (contiguous blocks of the app list), so a
   1M-request replay schedules a handful of pool tasks, not thousands. *)

type variant = {
  v_group : string;
  v_cfg : Router.config;
}

type app = {
  app_id : int;
  app_trace : unit -> Platform.Trace.t;
  app_variants : variant list;
}

type group = {
  g_label : string;
  g_apps : int;
  g_summary : Report.summary;
}

let shard_count ?shards () =
  match shards with
  | Some s when s >= 1 -> s
  | Some s -> invalid_arg (Printf.sprintf "Sharded.run: shards = %d" s)
  | None -> Parallel.Pool.jobs ()

(* split [apps] into [shards] contiguous blocks (sizes differing by at most
   one), each tagged with the global index of its first app *)
let partition ~shards apps =
  let n = List.length apps in
  let base = n / shards and extra = n mod shards in
  let rec take k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: rest ->
        let taken, left = take (k - 1) rest in
        (x :: taken, left)
  in
  let rec go i start xs acc =
    if i >= shards then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let block, rest = take size xs in
      go (i + 1) (start + size) rest ((i, start, block) :: acc)
  in
  go 0 0 apps []

(* A traced run's track namespace comes from its app id and variant index
   alone, so the fleet spans land on the same tracks at any shard count
   and job count; [slots] is the largest variant count of the run's apps.
   The namespaces start past any that [Obs.Span.fresh_track] hands out to
   unsharded runs of the same process. *)
let sharded_tracks = 1 lsl 24

let track_ns ~slots app_id variant = sharded_tracks + (app_id * slots) + variant

(* run one shard: every app materializes its trace once and replays it
   under each variant; results carry the app's global position so the
   reducer can fold them in canonical order *)
let run_shard ?pricing ~slots ~shard_idx (start, block) =
  let requests = ref 0 in
  let run () =
    List.mapi
      (fun off app ->
         let trace = app.app_trace () in
         requests := !requests + Platform.Trace.length trace;
         ( start + off,
           List.mapi
             (fun i v ->
                let track_ns = track_ns ~slots app.app_id i in
                (v.v_group, Report.run_stream ?pricing ~track_ns v.v_cfg trace))
             app.app_variants ))
      block
  in
  (* the span's name and attributes are built only when tracing *)
  if not (Obs.Span.enabled (Obs.Span.installed ())) then run ()
  else
    Obs.Span.wall ~cat:"fleet" ~name:(Printf.sprintf "shard:%d" shard_idx)
      ~attrs:(fun out ->
          let events acc (_, st) = acc + Report.Stream.events st in
          [ ("apps", string_of_int (List.length block));
            ("requests", string_of_int !requests);
            ( "events",
              string_of_int
                (List.fold_left
                   (fun acc (_, streams) -> List.fold_left events acc streams)
                   0 out) ) ])
      run

let run ?pricing ?shards (apps : app list) : group list =
  if apps = [] then []
  else begin
    let shards = min (shard_count ?shards ()) (List.length apps) in
    let parts = partition ~shards apps in
    let slots =
      List.fold_left (fun m a -> max m (List.length a.app_variants)) 0 apps
    in
    let results =
      Parallel.Pool.map_default
        (fun (i, start, block) ->
           run_shard ?pricing ~slots ~shard_idx:i (start, block))
        parts
    in
    (* canonical fold: per-app accumulators in global app order, so the
       merged float sums cannot depend on the shard layout *)
    let per_app =
      List.concat results
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let order : string list ref = ref [] in
    let tbl : (string, Report.Stream.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (_, streams) ->
         List.iter
           (fun (g, st) ->
              match Hashtbl.find_opt tbl g with
              | Some acc -> Report.Stream.merge_into ~into:acc st
              | None ->
                order := g :: !order;
                Hashtbl.replace tbl g st)
           streams)
      per_app;
    List.rev_map
      (fun g ->
         let st = Hashtbl.find tbl g in
         { g_label = g;
           g_apps = Report.Stream.apps st;
           g_summary = Report.Stream.summary ~label:g st })
      !order
  end
