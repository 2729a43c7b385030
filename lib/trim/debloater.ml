(* The DD-based debloater (§5.3, §6.3).

   For each module in the profiler's top-K:
     1. load the module to enumerate its attributes;
     2. back up its __init__ file so every DD iteration starts clean;
     3. candidates = attributes − PyCG-protected − magic;
     4. run Algorithm 1: each query rewrites the file on a copy-on-write
        overlay of the deployment and runs the oracle test cases, each in a
        fresh interpreter, until the first mismatch.

   The output is a deployment whose image contains the 1-minimal module.

   Candidate images are Vfs overlays (base + one rewritten file), so building
   one is O(1) instead of O(image files); the oracle memoizes observations by
   image digest, and each [module_result] records the memo's hit/miss
   traffic during this module's search ([oracle_cache] names the memo those
   queries went through — pass the same cache the oracle closure uses; a
   pipeline passes its run's own view, whose counts no other run moves).

   Every entry point below splits the module once ([split]) and runs its
   one search through [search]; they differ only in the components DD
   sees (attributes or statements) and where the seed comes from. *)

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
  seed_hit : bool;               (* a manifest keep-set seed passed its
                                    confirming query *)
  seed_missed : bool;            (* a seed, the manifest's or the profile,
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

(* A file-backed module as DD sees it: its file, parsed program, every
   attribute (first-occurrence order) and their PyCG protected/candidate
   partition. [None] for a builtin module: nothing to debloat. *)
type split = {
  file : string;
  prog : Minipy.Ast.program;
  all_attrs : string list;
  protected_list : string list;
  candidates : string list;
}

let split (d : Platform.Deployment.t) ~protected ~module_name =
  Minipy.Importer.init_file_of d.Platform.Deployment.vfs module_name
  |> Option.map (fun file ->
      let prog = Minipy.Parse_cache.parse_vfs d.Platform.Deployment.vfs file in
      let all_attrs = Attrs.attrs_of_program prog in
      let protected_list, candidates =
        List.partition (fun a -> String_set.mem a protected) all_attrs
      in
      { file; prog; all_attrs; protected_list; candidates })

(* [r] completed with the attribute counts of a search that left [keep] of
   [s]'s attributes. *)
let report s ~keep r =
  { r with
    dm_file = s.file;
    attrs_before = List.length s.all_attrs;
    attrs_after = List.length keep;
    removed_attrs = List.filter (fun a -> not (List.mem a keep)) s.all_attrs;
    protected = s.protected_list }

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

(* Wrap a DD oracle so every query is a wall-clock span carrying its
   verdict, the candidate size, the observation-memo traffic it generated
   (read off [oracle_cache], the run's own view in a pipeline, so exact at
   any --jobs), and its layer: a query that missed the memo ran fresh
   interpreters ("oracle.exec"), any other was answered from memory
   ("oracle.hit"). Off the tracer this is the bare oracle call. *)
let traced_oracle ~oracle_cache ~module_name dd_oracle subset =
  if not (Obs.Span.enabled (Obs.Span.installed ())) then dd_oracle subset
  else begin
    let traffic () =
      (Oracle.Cache.hits oracle_cache, Oracle.Cache.misses oracle_cache)
    in
    let h0, m0 = traffic () in
    Obs.Span.wall ~cat:"oracle" ~name:"oracle:query"
      ~attrs:(fun pass ->
          let h1, m1 = traffic () in
          [ ("module", module_name);
            ("subset_size", string_of_int (List.length subset));
            ("pass", string_of_bool pass);
            ("memo_hits", string_of_int (h1 - h0));
            ("memo_misses", string_of_int (m1 - m0));
            ("layer", if m1 > m0 then "oracle.exec" else "oracle.hit") ])
      (fun () -> dd_oracle subset)
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
  (* the seed decides which subsets the search tests; unseeded searches
     keep the historical digest *)
  let seed_part = match seed with None -> [] | Some s -> "\x02" :: s in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ("ltrim-dd/1"
           :: Minipy.Interp.engine_tag
           :: (Oracle.variant_key_part d
               @ Platform.Deployment.image_digest d
                 :: module_name :: file
                 :: (protected_list @ ("\x01" :: candidates) @ seed_part)))))

let open_journal (spec : Journal.spec option) ?seed d ~module_name s =
  match spec with
  | None -> None
  | Some { Journal.journal_dir; journal_resume } ->
    let path =
      Filename.concat journal_dir (sanitize_module_name module_name ^ ".journal")
    in
    let run_digest =
      journal_run_digest ?seed d ~module_name ~file:s.file
        ~protected_list:s.protected_list ~candidates:s.candidates
    in
    Some
      (Obs.Span.wall ~cat:"journal" ~name:("journal:" ^ module_name)
         (fun () -> Journal.open_ ~resume:journal_resume ~path ~run_digest ()))

(* --- the one search ------------------------------------------------------- *)

(* Run Algorithm 1 over [candidates] inside the dd:<module> span, every
   query of [query] traced, then close [journal]. The result carries DD's
   counters and the observation-memo traffic of the search in
   [oracle_cache]; [seeded] says [seed] came from a manifest, whose outcome
   [seed_hit] reports (a profile seed's it does not). *)
let search ?on_step ?journal ?seed ~seeded ~oracle_cache ~module_name query
    candidates =
  let oracle = traced_oracle ~oracle_cache ~module_name query in
  let h0 = Oracle.Cache.hits oracle_cache
  and m0 = Oracle.Cache.misses oracle_cache in
  let kept, stats =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close journal)
      (fun () ->
         Obs.Span.wall ~cat:"dd" ~name:("dd:" ^ module_name) (fun () ->
             Dd.minimize ?on_step ?journal ?seed ~oracle candidates))
  in
  ( kept,
    { (empty_result module_name) with
      oracle_queries = stats.Dd.oracle_queries;
      cache_hits = stats.Dd.cache_hits;
      dd_iterations = stats.Dd.iterations;
      oracle_cache_hits = Oracle.Cache.hits oracle_cache - h0;
      oracle_cache_misses = Oracle.Cache.misses oracle_cache - m0;
      seed_hit = seeded && stats.Dd.ws_hits > 0;
      seed_missed = stats.Dd.ws_queries > stats.Dd.ws_hits } )

(* Attribute-granularity DD over [s]: O(subset) = oracle passes when the
   module keeps protected ∪ subset. [seed] is a previous run's keep-set
   (§9 continuous pipeline): when the application changed little, it
   passes its one confirming query and DD only re-verifies 1-minimality
   inside it. Without one, the seed is the profile of [d]: the candidates
   its test cases read. Most top-K attributes are dead, and a passing
   profile seed skips the queries that would prove them dead one partition
   at a time. Profiling [d] rather than the input app matters: earlier
   trims delete code that read later modules' names. [d] is the previous
   search's last passing candidate (or the reference), so the profile is
   usually read off the oracle runs that passed it ([Oracle.module_reads]
   answers from the reads the oracle kept). *)
let debloat_attrs ?on_step ?journal ?seed ~oracle_cache ~oracle d
    ~module_name s =
  let dd_seed =
    match seed, s.candidates with
    | Some _, _ | None, [] -> seed
    | None, _ ->
      let reads =
        Obs.Span.wall ~cat:"profile.reads" ~name:"profile:reads"
          (fun () -> Oracle.module_reads ~cache:oracle_cache d ~module_name)
      in
      Some (List.filter (fun a -> List.mem a reads) s.candidates)
  in
  let journal = open_journal journal ?seed:dd_seed d ~module_name s in
  let query subset =
    oracle (with_restricted d ~file:s.file ~keep:(s.protected_list @ subset))
  in
  let kept, r =
    search ?on_step ?journal ?seed:dd_seed ~seeded:(seed <> None)
      ~oracle_cache ~module_name query s.candidates
  in
  let keep = s.protected_list @ kept in
  (with_restricted d ~file:s.file ~keep, report s ~keep r)

(* Debloat one module of [d]; returns the updated deployment (an overlay
   sharing no *mutable* state with the input) and the per-module report.
   [oracle] judges candidate deployments; [protected] attributes are never
   offered to DD. The search is profile-seeded (see [debloat_attrs]). *)
let debloat_module ?on_step ?(oracle_cache = Oracle.Cache.global) ?journal
    ~(oracle : Platform.Deployment.t -> bool) ~(protected : String_set.t)
    (d : Platform.Deployment.t) ~module_name : Platform.Deployment.t * module_result
  =
  match split d ~protected ~module_name with
  | None -> (d, empty_result module_name)
  | Some s ->
    debloat_attrs ?on_step ?journal ~oracle_cache ~oracle d ~module_name s

(* --- statement-granularity variant (§6.1 ablation) ------------------------ *)

(* DD over whole statements instead of attributes. Statements binding a
   PyCG-protected name are excluded from the candidate list. *)
let debloat_module_statements ?(oracle_cache = Oracle.Cache.global)
    ~(oracle : Platform.Deployment.t -> bool)
    ~(protected : String_set.t) (d : Platform.Deployment.t) ~module_name :
  Platform.Deployment.t * module_result =
  match split d ~protected ~module_name with
  | None -> (d, empty_result module_name)
  | Some s ->
    let stmts = Array.of_list s.prog in
    let stmt_protected i =
      List.exists (fun n -> String_set.mem n protected)
        (Attrs.bound_names stmts.(i))
    in
    let always_keep, candidates =
      List.partition stmt_protected (Attrs.statement_components s.prog)
    in
    let restrict subset =
      with_rewritten d ~file:s.file (fun prog ->
          Attrs.restrict_statements prog ~keep:(always_keep @ subset))
    in
    let kept, r =
      search ~seeded:false ~oracle_cache ~module_name
        (fun subset -> oracle (restrict subset)) candidates
    in
    (* the attributes the kept statements still bind *)
    let bound =
      List.concat_map (fun i -> Attrs.bound_names stmts.(i)) (always_keep @ kept)
    in
    ( restrict kept,
      report s ~keep:(List.filter (fun a -> List.mem a bound) s.all_attrs) r )

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
  let parts =
    List.concat
      [ [ "ltrim-module/1"; Minipy.Interp.engine_tag ];
        Oracle.variant_key_part d;
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
  match split d ~protected ~module_name with
  | None -> (d, empty_result module_name, Fresh, builtin_digest)
  | Some s ->
    let digest =
      module_search_digest d ~module_name ~file:s.file
        ~protected_list:s.protected_list ~candidates:s.candidates
    in
    (match baseline with
     | None ->
       let d', r =
         debloat_attrs ?journal ~oracle_cache ~oracle d ~module_name s
       in
       (d', r, Fresh, digest)
     | Some e ->
       let recorded =
         List.filter
           (fun a -> not (List.mem a e.Manifest.me_removed))
           s.all_attrs
       in
       if String.equal e.Manifest.me_digest digest then
         (* unchanged reachable image: the recorded search replays exactly *)
         ( with_restricted d ~file:s.file ~keep:recorded,
           report s ~keep:recorded (empty_result module_name),
           Replayed,
           digest )
       else
         let d', r =
           debloat_attrs ~seed:recorded ~oracle_cache ~oracle d ~module_name s
         in
         (d', r, Seeded r.seed_hit, digest))
