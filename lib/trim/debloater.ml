(* The DD-based debloater (§5.3, §6.3).

   For each module in the profiler's top-K:
     1. load the module to enumerate its attributes;
     2. back up its __init__ file so every DD iteration starts clean;
     3. candidates = attributes − PyCG-protected − magic;
     4. run Algorithm 1: each query rewrites the file on a copy-on-write
        overlay of the deployment and re-runs the oracle test cases in a
        fresh interpreter.

   The output is a deployment whose image contains the 1-minimal module.

   Candidate images are Vfs overlays (base + one rewritten file), so building
   one is O(1) instead of O(image files); the oracle memoizes observations by
   image digest, and the per-module [Dd.stats] record the memo's hit/miss
   traffic for this module's search ([oracle_cache] names the memo those
   queries went through — pass the same cache the oracle closure uses). *)

module String_set = Callgraph.Pycg.String_set

type module_result = {
  dm_module : string;            (* dotted module name *)
  dm_file : string;              (* rewritten vfs path *)
  attrs_before : int;
  attrs_after : int;
  removed_attrs : string list;
  protected : string list;       (* PyCG exclusions *)
  oracle_queries : int;
  cache_hits : int;
  dd_iterations : int;
  oracle_cache_hits : int;       (* observation-memo hits during this search *)
  oracle_cache_misses : int;
  seed_hit : bool;               (* the caller's seed passed its confirming
                                    query *)
  seed_missed : bool;            (* a seed, the caller's or the profile,
                                    failed its confirming query *)
}

let pp_module_result ppf r =
  Fmt.pf ppf "%s: %d/%d attrs kept (%d removed, %d protected, %d queries, \
              %d memo hits)"
    r.dm_module r.attrs_after r.attrs_before
    (List.length r.removed_attrs) (List.length r.protected) r.oracle_queries
    r.oracle_cache_hits

let empty_result module_name =
  { dm_module = module_name; dm_file = "<none>"; attrs_before = 0;
    attrs_after = 0; removed_attrs = []; protected = [];
    oracle_queries = 0; cache_hits = 0; dd_iterations = 0;
    oracle_cache_hits = 0; oracle_cache_misses = 0; seed_hit = false;
    seed_missed = false }

(* Rewrite [file] inside a copy-on-write overlay of [d] with [restrict]
   applied to its AST — the per-iteration rewrite of §6.3, "a single
   traversal of the AST". The candidate image shares every other file with
   the base, and the parse cache is seeded with the restricted AST, so the
   oracle's interpreters import the candidate without re-parsing it. *)
let with_rewritten (d : Platform.Deployment.t) ~file restrict =
  let d' = Platform.Deployment.overlay d in
  let vfs = d'.Platform.Deployment.vfs in
  Minipy.Parse_cache.write_program vfs file
    (restrict (Minipy.Parse_cache.parse_vfs vfs file));
  d'

(* Keep exactly the attributes [keep] of [file]. *)
let with_restricted d ~file ~keep =
  let keep = Attrs.String_set.of_list keep in
  with_rewritten d ~file (fun prog -> Attrs.restrict prog ~keep)

(* DD has no virtual timeline — its spans run on the host wall clock
   (Obs.Span.wall_ms, shared with the pipeline). On the main domain they
   share the pipeline phases' lane (see Pipeline.obs_track) so dd:<module>
   nests inside phase:debloat and oracle:query inside dd:<module>; a
   pipeline running inside an app fan-out worker records on that worker's
   private track instead, so concurrent apps' spans stay well-nested per
   (domain, track). *)
let wall_ms = Obs.Span.wall_ms

let obs_track () = Parallel.Pool.obs_wall_track ~default:1 ()

let obs_dd_span ~module_name f =
  Obs.Span.with_span (Obs.Span.installed ()) ~domain:Obs.Span.domain_wall
    ~track:(obs_track ()) ~cat:"dd" ~name:("dd:" ^ module_name)
    ~clock:wall_ms f

(* Wrap a DD oracle so every query is a span carrying its verdict, the
   candidate size, and the observation-memo traffic it generated. Off the
   tracer this is the bare oracle call. *)
let traced_oracle ~module_name ~(cache : Oracle.Cache.t) dd_oracle subset =
  let sink = Obs.Span.installed () in
  if not (Obs.Span.enabled sink) then dd_oracle subset
  else begin
    let sp =
      Obs.Span.begin_ sink ~domain:Obs.Span.domain_wall ~track:(obs_track ())
        ~cat:"oracle" ~name:"oracle:query" ~ts_ms:(wall_ms ())
    in
    let h0 = Oracle.Cache.hits cache and m0 = Oracle.Cache.misses cache in
    match dd_oracle subset with
    | pass ->
      Obs.Span.end_ sp
        ~attrs:
          [ ("module", module_name);
            ("subset_size", string_of_int (List.length subset));
            ("pass", string_of_bool pass);
            ("memo_hits", string_of_int (Oracle.Cache.hits cache - h0));
            ("memo_misses", string_of_int (Oracle.Cache.misses cache - m0)) ]
        ~ts_ms:(wall_ms ());
      pass
    | exception e ->
      Obs.Span.end_ sp ~ts_ms:(wall_ms ());
      raise e
  end

(* --- journal wiring --------------------------------------------------------

   One journal file per module search, named after the module inside the
   run's journal directory. The run digest binds the file to everything
   the verdict stream depends on: the *base* deployment image this module
   is searched against (the input app with every earlier-ranked module
   already trimmed), the module, its candidate/protected split, and the
   engine tag. A journal whose digest mismatches is discarded, never
   replayed: revision safety over resume speed. *)

let sanitize_module_name m =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
       | _ -> '_')
    m

let journal_run_digest ?seed (d : Platform.Deployment.t) ~module_name ~file
    ~protected_list ~candidates =
  (* optimizer variant / stub configuration: a --resume of a lazy run must
     never replay eager-run verdicts. Eager images keep the historical
     digest, so existing journals stay resumable. *)
  let variant_tag =
    match Minipy.Interp.lazy_config_of_vfs d.Platform.Deployment.vfs with
    | "eager" -> []
    | lazy_cfg -> [ lazy_cfg ]
  in
  (* the seed decides which subsets the search tests; unseeded searches
     keep the historical digest *)
  let seed_part = match seed with None -> [] | Some s -> "\x02" :: s in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ("ltrim-dd/1"
           :: Minipy.Interp.engine_tag
           :: (variant_tag
               @ Platform.Deployment.image_digest d
                 :: module_name :: file
                 :: (protected_list @ ("\x01" :: candidates) @ seed_part)))))

let open_journal (spec : Journal.spec option) ?seed d ~module_name ~file
    ~protected_list ~candidates =
  match spec with
  | None -> None
  | Some { Journal.journal_dir; journal_resume } ->
    let path =
      Filename.concat journal_dir (sanitize_module_name module_name ^ ".journal")
    in
    let run_digest =
      journal_run_digest ?seed d ~module_name ~file ~protected_list ~candidates
    in
    Some
      (Obs.Span.with_span (Obs.Span.installed ()) ~domain:Obs.Span.domain_wall
         ~track:(obs_track ()) ~cat:"journal" ~name:("journal:" ^ module_name)
         ~clock:wall_ms (fun () ->
             Journal.open_ ~resume:journal_resume ~path ~run_digest ()))

(* Record the observation-memo traffic of [f ()] into [stats]. *)
let with_memo_stats (cache : Oracle.Cache.t) (f : unit -> 'a * Dd.stats) :
  'a * Dd.stats =
  let h0 = Oracle.Cache.hits cache and m0 = Oracle.Cache.misses cache in
  let result, stats = f () in
  stats.Dd.oracle_cache_hits <- Oracle.Cache.hits cache - h0;
  stats.Dd.oracle_cache_misses <- Oracle.Cache.misses cache - m0;
  (result, stats)

let result_of_stats ~module_name ~file ~all_attrs ~final_keep ~protected_list
    ~seeded (stats : Dd.stats) =
  { dm_module = module_name;
    dm_file = file;
    attrs_before = List.length all_attrs;
    attrs_after = List.length final_keep;
    removed_attrs =
      List.filter (fun a -> not (List.mem a final_keep)) all_attrs;
    protected = protected_list;
    oracle_queries = stats.Dd.oracle_queries;
    cache_hits = stats.Dd.cache_hits;
    dd_iterations = stats.Dd.iterations;
    oracle_cache_hits = stats.Dd.oracle_cache_hits;
    oracle_cache_misses = stats.Dd.oracle_cache_misses;
    seed_hit = seeded && stats.Dd.ws_hits > 0;
    seed_missed = stats.Dd.ws_queries > stats.Dd.ws_hits }

(* Debloat one module of [d]; returns the updated deployment (an overlay
   sharing no *mutable* state with the input) and the per-module report.
   [oracle] judges candidate deployments; [protected] attributes are never
   offered to DD. [seed] primes DD with a previous run's keep-set (§9
   continuous pipeline): when the application changed little, the seed
   passes its one confirming query and DD only re-verifies 1-minimality
   inside it. Without one, the seed is the profile of [d]: the candidates
   its test cases read. Most top-K attributes are dead, and a passing
   profile seed skips the queries that would prove them dead one partition
   at a time. Profiling [d] rather than the input app matters: earlier
   trims delete code that read later modules' names. *)
let debloat_module ?(on_step = fun (_ : string Dd.step) -> ())
    ?(oracle_cache = Oracle.Cache.global) ?journal ?seed
    ~(oracle : Platform.Deployment.t -> bool) ~(protected : String_set.t)
    (d : Platform.Deployment.t) ~module_name : Platform.Deployment.t * module_result
  =
  match Minipy.Importer.init_file_of d.Platform.Deployment.vfs module_name with
  | None ->
    (* not file-backed (builtin) — nothing to debloat *)
    (d, empty_result module_name)
  | Some file ->
    let prog = Minipy.Parse_cache.parse_vfs d.Platform.Deployment.vfs file in
    let all_attrs = Attrs.attrs_of_program prog in
    let protected_list =
      List.filter (fun a -> String_set.mem a protected) all_attrs
    in
    let candidates =
      List.filter (fun a -> not (String_set.mem a protected)) all_attrs
    in
    (* O(subset) = oracle passes when the module keeps protected ∪ subset *)
    let dd_oracle subset =
      oracle (with_restricted d ~file ~keep:(protected_list @ subset))
    in
    let dd_oracle = traced_oracle ~module_name ~cache:oracle_cache dd_oracle in
    let dd_seed =
      match seed, candidates with
      | Some _, _ | None, [] -> seed
      | None, _ ->
        let reads = Oracle.module_reads ~cache:oracle_cache d ~module_name in
        Some (List.filter (fun a -> List.mem a reads) candidates)
    in
    let jnl =
      open_journal journal ?seed:dd_seed d ~module_name ~file ~protected_list
        ~candidates
    in
    let kept, stats =
      Fun.protect
        ~finally:(fun () -> Option.iter Journal.close jnl)
        (fun () ->
           obs_dd_span ~module_name (fun () ->
               with_memo_stats oracle_cache (fun () ->
                   Dd.minimize ~on_step ?journal:jnl ?seed:dd_seed
                     ~oracle:dd_oracle candidates)))
    in
    let final_keep = protected_list @ kept in
    let d' = with_restricted d ~file ~keep:final_keep in
    ( d',
      result_of_stats ~module_name ~file ~all_attrs ~final_keep
        ~protected_list ~seeded:(seed <> None) stats )

(* --- statement-granularity variant (§6.1 ablation) ------------------------ *)

let with_restricted_statements d ~file ~keep =
  with_rewritten d ~file (fun prog -> Attrs.restrict_statements prog ~keep)

(* DD over whole statements instead of attributes. Statements binding a
   PyCG-protected name are excluded from the candidate list. *)
let debloat_module_statements ?(oracle_cache = Oracle.Cache.global)
    ~(oracle : Platform.Deployment.t -> bool)
    ~(protected : String_set.t) (d : Platform.Deployment.t) ~module_name :
  Platform.Deployment.t * module_result =
  match Minipy.Importer.init_file_of d.Platform.Deployment.vfs module_name with
  | None -> (d, empty_result module_name)
  | Some file ->
    let prog = Minipy.Parse_cache.parse_vfs d.Platform.Deployment.vfs file in
    let prog_arr = Array.of_list prog in
    let components = Attrs.statement_components prog in
    let stmt_protected i =
      List.exists (fun n -> String_set.mem n protected)
        (Attrs.bound_names prog_arr.(i))
    in
    let always_keep = List.filter stmt_protected components in
    let candidates = List.filter (fun i -> not (stmt_protected i)) components in
    let dd_oracle subset =
      oracle (with_restricted_statements d ~file ~keep:(always_keep @ subset))
    in
    let dd_oracle = traced_oracle ~module_name ~cache:oracle_cache dd_oracle in
    let kept, stats =
      obs_dd_span ~module_name (fun () ->
          with_memo_stats oracle_cache (fun () ->
              Dd.minimize ~oracle:dd_oracle candidates))
    in
    let final_keep = always_keep @ kept in
    let d' = with_restricted_statements d ~file ~keep:final_keep in
    let all_attrs = Attrs.attrs_of_program prog in
    let surviving =
      Attrs.attrs_of_program (Attrs.restrict_statements prog ~keep:final_keep)
    in
    ( d',
      { dm_module = module_name;
        dm_file = file;
        attrs_before = List.length all_attrs;
        attrs_after = List.length surviving;
        removed_attrs =
          List.filter (fun a -> not (List.mem a surviving)) all_attrs;
        protected =
          List.filter (fun a -> String_set.mem a protected) all_attrs;
        oracle_queries = stats.Dd.oracle_queries;
        cache_hits = stats.Dd.cache_hits;
        dd_iterations = stats.Dd.iterations;
        oracle_cache_hits = stats.Dd.oracle_cache_hits;
        oracle_cache_misses = stats.Dd.oracle_cache_misses;
        seed_hit = false;
        seed_missed = false } )

(* --- incremental re-debloating (digest-diffed searches) -------------------

   One module's DD search is a pure function of its *reachable image*: the
   module's own library subtree (every file a query can read or rewrite),
   the handler and test cases driving the oracle, the candidate/protected
   split, and the execution configuration (engine tag, lazy-stub variant).
   [module_search_digest] hashes exactly that set, so across two revisions
   an equal digest means the search would replay move for move — the
   recorded keep-set can be applied without a single oracle query — while
   an unequal digest localizes re-search to the changed module.

   The digest deliberately excludes files outside the module's top-level
   library subtree: no generated workload library imports another, and a
   query for module [a.b] overlays only files under [site-packages/a], so
   edits elsewhere, and earlier trims of other libraries, cannot change
   its verdicts. A module whose file does not live under
   [site-packages/<root>] falls back to the whole image digest:
   conservative, never wrong. *)

let module_search_digest (d : Platform.Deployment.t) ~module_name ~file
    ~protected_list ~candidates =
  let vfs = d.Platform.Deployment.vfs in
  let root =
    match String.index_opt module_name '.' with
    | Some i -> String.sub module_name 0 i
    | None -> module_name
  in
  let subtree = "site-packages/" ^ root in
  let in_subtree =
    String.length file > String.length subtree
    && String.sub file 0 (String.length subtree + 1) = subtree ^ "/"
  in
  let digest_of f =
    match Minipy.Vfs.file_digest vfs f with Some dg -> dg | None -> "absent"
  in
  let scope =
    if not in_subtree then [ "image"; Platform.Deployment.image_digest d ]
    else
      List.concat_map
        (fun f -> [ f; digest_of f ])
        (Minipy.Vfs.files_under vfs subtree)
  in
  let tests =
    List.concat_map
      (fun (tc : Platform.Deployment.test_case) ->
         [ tc.Platform.Deployment.tc_name;
           tc.Platform.Deployment.tc_event;
           tc.Platform.Deployment.tc_context ])
      d.Platform.Deployment.test_cases
  in
  let variant_tag =
    match Minipy.Interp.lazy_config_of_vfs vfs with
    | "eager" -> []
    | lazy_cfg -> [ lazy_cfg ]
  in
  let parts =
    List.concat
      [ [ "ltrim-module/1"; Minipy.Interp.engine_tag ];
        variant_tag;
        [ module_name;
          file;
          d.Platform.Deployment.handler_file;
          d.Platform.Deployment.handler_name;
          digest_of d.Platform.Deployment.handler_file ];
        "\x01" :: tests;
        "\x02" :: protected_list;
        "\x03" :: candidates;
        "\x04" :: scope ]
  in
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* Digest for built-in modules: no file, no search, nothing to hash. *)
let builtin_digest = "none"

type search_kind =
  | Fresh                 (* full DD: no baseline entry, or a builtin *)
  | Replayed              (* digest unchanged: keep-set applied, zero queries *)
  | Seeded of bool        (* digest changed: warm-started (did the seed hit?) *)

(* Like [debloat_module], but consulting a previous run's manifest entry.
   Digest unchanged → replay the recorded keep-set (no oracle traffic at
   all). Digest changed → warm-start DD with the recorded keep-set as seed
   (one confirming query; full ddmin on failure). No entry → fresh search.
   Always returns the search digest so the caller can record a new
   manifest. Only the fresh path is journaled, exactly like
   [debloat_module]. *)
let debloat_module_incremental ?(oracle_cache = Oracle.Cache.global)
    ?journal ~(oracle : Platform.Deployment.t -> bool)
    ~(protected : String_set.t) ~(baseline : Manifest.module_entry option)
    (d : Platform.Deployment.t) ~module_name :
  Platform.Deployment.t * module_result * search_kind * string =
  match Minipy.Importer.init_file_of d.Platform.Deployment.vfs module_name with
  | None -> (d, empty_result module_name, Fresh, builtin_digest)
  | Some file ->
    let prog = Minipy.Parse_cache.parse_vfs d.Platform.Deployment.vfs file in
    let all_attrs = Attrs.attrs_of_program prog in
    let protected_list =
      List.filter (fun a -> String_set.mem a protected) all_attrs
    in
    let candidates =
      List.filter (fun a -> not (String_set.mem a protected)) all_attrs
    in
    let digest =
      module_search_digest d ~module_name ~file ~protected_list ~candidates
    in
    (match baseline with
     | Some e when String.equal e.Manifest.me_digest digest ->
       (* unchanged reachable image: the recorded search replays exactly *)
       let removed =
         List.filter
           (fun a -> List.mem a e.Manifest.me_removed)
           all_attrs
       in
       let keep = List.filter (fun a -> not (List.mem a removed)) all_attrs in
       let d' = with_restricted d ~file ~keep in
       ( d',
         { (empty_result module_name) with
           dm_file = file;
           attrs_before = List.length all_attrs;
           attrs_after = List.length keep;
           removed_attrs = removed;
           protected = protected_list },
         Replayed,
         digest )
     | Some e ->
       let seed_keep =
         List.filter
           (fun a -> not (List.mem a e.Manifest.me_removed))
           all_attrs
       in
       let d', r =
         debloat_module ~oracle_cache ~oracle ~protected ~seed:seed_keep d
           ~module_name
       in
       (d', r, Seeded r.seed_hit, digest)
     | None ->
       let d', r =
         debloat_module ~oracle_cache ?journal ~oracle ~protected d
           ~module_name
       in
       (d', r, Fresh, digest))
