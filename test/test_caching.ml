(* The caching substrate: copy-on-write vfs overlays, the content-addressed
   parse cache, and the oracle observation memo.

   Two properties anchor the suite:
   - a stale AST is never served: any rewrite through an overlay changes the
     file digest, so the parse cache re-parses;
   - the substrate is measurement-neutral: running the full pipeline with
     every cache disabled produces bit-identical virtual numbers and
     debloated sources. *)

open Minipy

let base_image () =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "handler.py" "def handler(event, context):\n  return 1\n";
  Vfs.add_file vfs "site-packages/lib/__init__.py" "x = 1\ny = 2\n";
  Vfs.add_file vfs "site-packages/lib/util.py" "def f():\n  return 3\n";
  Vfs.add_phantom vfs "site-packages/lib/model.bin" ~bytes:1024;
  vfs

(* --- overlay semantics ---------------------------------------------------- *)

let overlay_cases =
  [ Alcotest.test_case "reads fall through to the base" `Quick (fun () ->
        let base = base_image () in
        let o = Vfs.overlay base in
        Alcotest.(check (option string)) "fall-through read"
          (Vfs.read base "site-packages/lib/util.py")
          (Vfs.read o "site-packages/lib/util.py");
        Alcotest.(check (list string)) "same paths"
          (Vfs.paths base) (Vfs.paths o);
        Alcotest.(check (float 0.0)) "same size"
          (Vfs.image_mb base) (Vfs.image_mb o));
    Alcotest.test_case "writes stay in the overlay" `Quick (fun () ->
        let base = base_image () in
        let o = Vfs.overlay base in
        Vfs.add_file o "site-packages/lib/__init__.py" "x = 1\n";
        Vfs.add_file o "extra.py" "z = 9\n";
        Alcotest.(check string) "overlay sees the rewrite" "x = 1\n"
          (Vfs.read_exn o "site-packages/lib/__init__.py");
        Alcotest.(check string) "base unchanged" "x = 1\ny = 2\n"
          (Vfs.read_exn base "site-packages/lib/__init__.py");
        Alcotest.(check bool) "base lacks the new file" false
          (Vfs.exists base "extra.py"));
    Alcotest.test_case "copy flattens an overlay chain" `Quick (fun () ->
        let base = base_image () in
        let o1 = Vfs.overlay base in
        Vfs.add_file o1 "site-packages/lib/__init__.py" "x = 1\n";
        let o2 = Vfs.overlay o1 in
        Vfs.add_file o2 "extra.py" "z = 9\n";
        let flat = Vfs.copy o2 in
        Alcotest.(check (list string)) "same effective paths"
          (Vfs.paths o2) (Vfs.paths flat);
        Alcotest.(check string) "carries the rewrite" "x = 1\n"
          (Vfs.read_exn flat "site-packages/lib/__init__.py");
        Alcotest.(check string) "equal image digests"
          (Vfs.image_digest o2) (Vfs.image_digest flat));
    Alcotest.test_case "file digest is memoized and invalidated" `Quick
      (fun () ->
        let base = base_image () in
        let d1 = Vfs.file_digest base "handler.py" in
        Alcotest.(check (option string)) "stable" d1
          (Vfs.file_digest base "handler.py");
        Vfs.add_file base "handler.py" "def handler(event, context):\n  return 2\n";
        Alcotest.(check bool) "rewrite changes the digest" true
          (Vfs.file_digest base "handler.py" <> d1);
        Alcotest.(check (option string)) "absent path" None
          (Vfs.file_digest base "nope.py"));
    Alcotest.test_case "image digest covers phantoms" `Quick (fun () ->
        let a = base_image () in
        let b = base_image () in
        Alcotest.(check string) "deterministic" (Vfs.image_digest a)
          (Vfs.image_digest b);
        Vfs.add_phantom b "weights2.bin" ~bytes:7;
        Alcotest.(check bool) "phantom changes it" true
          (Vfs.image_digest a <> Vfs.image_digest b)) ]

(* --- parse cache ---------------------------------------------------------- *)

let parse_cache_cases =
  [ Alcotest.test_case "hit on identical content, miss after rewrite" `Quick
      (fun () ->
        let vfs = base_image () in
        let c = Parse_cache.create () in
        let p1 = Parse_cache.parse_vfs ~cache:c vfs "handler.py" in
        let p2 = Parse_cache.parse_vfs ~cache:c vfs "handler.py" in
        Alcotest.(check bool) "same AST value" true (p1 == p2);
        Alcotest.(check int) "one hit" 1 (Parse_cache.hits c);
        Vfs.add_file vfs "handler.py"
          "def handler(event, context):\n  return 2\n";
        let p3 = Parse_cache.parse_vfs ~cache:c vfs "handler.py" in
        Alcotest.(check bool) "fresh AST" true (p3 != p2);
        Alcotest.(check int) "two misses" 2 (Parse_cache.misses c);
        Alcotest.(check string) "fresh AST matches fresh parse"
          (Pretty.program_to_string
             (Parser.parse ~file:"handler.py" (Vfs.read_exn vfs "handler.py")))
          (Pretty.program_to_string p3));
    Alcotest.test_case "disabled cache stores nothing" `Quick (fun () ->
        let vfs = base_image () in
        let c = Parse_cache.create ~enabled:false () in
        ignore (Parse_cache.parse_vfs ~cache:c vfs "handler.py");
        ignore (Parse_cache.parse_vfs ~cache:c vfs "handler.py");
        Alcotest.(check int) "no entries" 0 (Parse_cache.size c);
        Alcotest.(check int) "no counts" 0
          (Parse_cache.hits c + Parse_cache.misses c));
    Alcotest.test_case "parse failures are not cached" `Quick (fun () ->
        let c = Parse_cache.create () in
        (try ignore (Parse_cache.parse ~cache:c ~file:"<t>" "def (:\n")
         with Parser.Error _ | Lexer.Error _ -> ());
        Alcotest.(check int) "store empty" 0 (Parse_cache.size c));
    Alcotest.test_case "write_program seeds the cache without counting"
      `Quick (fun () ->
        let vfs = base_image () in
        let c = Parse_cache.create () in
        let path = "site-packages/lib/__init__.py" in
        let prog = Parser.parse ~file:path "x = 1\ny = 2\n" in
        Parse_cache.write_program ~cache:c vfs path prog;
        Alcotest.(check string) "writes the printed text"
          (Pretty.program_to_string prog) (Vfs.read_exn vfs path);
        Alcotest.(check int) "seeding counts nothing" 0
          (Parse_cache.hits c + Parse_cache.misses c);
        Alcotest.(check bool) "import is a hit on the seeded AST" true
          (Parse_cache.parse_vfs ~cache:c vfs path == prog);
        Alcotest.(check int) "one hit" 1 (Parse_cache.hits c);
        Parse_cache.write_program ~cache:c vfs path [];
        Alcotest.(check string) "empty module prints as pass" "pass\n"
          (Vfs.read_exn vfs path);
        Alcotest.(check bool) "empty module is stored as [Pass]" true
          (Ast_ref.program_equal [ Ast.s Ast.Pass ]
             (Parse_cache.parse_vfs ~cache:c vfs path));
        Alcotest.(check int) "still no misses" 0 (Parse_cache.misses c));
    Alcotest.test_case "disabled write_program only writes" `Quick (fun () ->
        let vfs = base_image () in
        let c = Parse_cache.create ~enabled:false () in
        Parse_cache.write_program ~cache:c vfs "a.py"
          (Parser.parse ~file:"a.py" "z = 9\n");
        Alcotest.(check string) "written" "z = 9\n" (Vfs.read_exn vfs "a.py");
        Alcotest.(check int) "no entries" 0 (Parse_cache.size c)) ]

(* --- property: the seeded AST is the AST a parse of the written text gives *)

(* Every corpus app's top-K (K = 20) file-backed modules, as (app, file)
   pairs, profiled once. *)
let corpus_modules =
  lazy
    (List.concat_map
       (fun app ->
          let d = Workloads.Suite.deployment_of app in
          let options = Trim.Pipeline.default_options in
          Trim.Scoring.top_k options.Trim.Pipeline.scoring
            (Trim.Profiler.profile d) ~k:options.Trim.Pipeline.k
          |> List.filter_map (fun mp ->
              Importer.init_file_of d.Platform.Deployment.vfs
                mp.Trim.Profiler.mp_name)
          |> List.map (fun file -> (d, file)))
       Workloads.Suite.names)

(* Restrict module [i] of the corpus to a random subset of its attributes
   (each kept with probability [p]; p = 0 empties what it can) through the
   debloater's write path, and to a random subset of its statements (the
   §6.1 ablation's granularity). For each candidate, the AST the global
   parse cache serves must equal a fresh parse of the written text, and
   serving it must be a hit: the entry came from the seed, not a parse. *)
let seeded_ast_prop =
  QCheck2.Test.make ~count:200
    ~name:"write_program seeds the AST a parse of the written text returns"
    QCheck2.Gen.(
      triple (int_bound 10_000) (oneofl [ 0.0; 0.3; 0.7; 1.0 ])
        (array_size (return 64) (float_bound_exclusive 1.0)))
    (fun (i, p, coins) ->
       let modules = Lazy.force corpus_modules in
       let d, file = List.nth modules (i mod List.length modules) in
       let prog = Parse_cache.parse_vfs d.Platform.Deployment.vfs file in
       let attrs = Trim.Attrs.attrs_of_program prog in
       let keep = List.filteri (fun j _ -> coins.(j mod 64) < p) attrs in
       let stmts =
         List.filteri (fun j _ -> coins.(j mod 64) < p)
           (Trim.Attrs.statement_components prog)
       in
       let served_equals_parse d' =
         let vfs = d'.Platform.Deployment.vfs in
         let misses = Parse_cache.misses Parse_cache.global in
         let served = Parse_cache.parse_vfs vfs file in
         Parse_cache.misses Parse_cache.global = misses
         && Ast_ref.program_equal served
              (Parser.parse ~file (Vfs.read_exn vfs file))
       in
       let by_statement = Platform.Deployment.overlay d in
       Parse_cache.write_program by_statement.Platform.Deployment.vfs file
         (Trim.Attrs.restrict_statements prog ~keep:stmts);
       served_equals_parse (Trim.Debloater.with_restricted d ~file ~keep)
       && served_equals_parse by_statement)

let emptied_module_case =
  Alcotest.test_case "some corpus module empties under the empty keep-set"
    `Quick (fun () ->
      Alcotest.(check bool) "restrict ~keep:{} = [] for a top-K module" true
        (List.exists
           (fun (d, file) ->
              Trim.Attrs.restrict
                (Parse_cache.parse_vfs d.Platform.Deployment.vfs file)
                ~keep:Trim.Attrs.String_set.empty
              = [])
           (Lazy.force corpus_modules)))

(* --- property: overlay rewrites always force a re-parse ------------------- *)

(* A pool of distinct valid sources indexed by a small int. *)
let source_of n =
  Printf.sprintf "x_%d = %d\ndef f_%d():\n  return %d\n" n n n (n * 7)

let overlay_freshness_prop =
  QCheck2.Test.make ~count:100
    ~name:"overlay rewrites change digests and are never served stale"
    QCheck2.(
      Gen.list_size (Gen.int_range 1 12)
        (Gen.pair (Gen.int_range 0 2) (Gen.int_range 0 9)))
    (fun writes ->
       let base = base_image () in
       let files = [| "handler.py"; "site-packages/lib/__init__.py"; "a.py" |] in
       let o = Vfs.overlay base in
       let cache = Parse_cache.create () in
       (* warm the cache on the initial image *)
       List.iter
         (fun p -> ignore (Parse_cache.parse_vfs ~cache o p))
         (Vfs.paths o);
       List.for_all
         (fun (which, n) ->
            let path = files.(which) in
            let content = source_of n in
            let digest_before = Vfs.file_digest o path in
            let image_before = Vfs.image_digest o in
            Vfs.add_file o path content;
            let digest_after = Vfs.file_digest o path in
            (* content-addressing: the digest is a pure function of content *)
            let digest_tracks =
              digest_after = Some (Digest.to_hex (Digest.string content))
            in
            (* the image digest changes exactly when the file digest does *)
            let image_tracks =
              (Vfs.image_digest o <> image_before)
              = (digest_after <> digest_before)
            in
            (* the cache must serve an AST of the *current* content *)
            let served =
              Pretty.program_to_string (Parse_cache.parse_vfs ~cache o path)
            in
            let fresh =
              Pretty.program_to_string (Parser.parse ~file:path content)
            in
            digest_tracks && image_tracks && String.equal served fresh)
         writes)

(* --- oracle memo ---------------------------------------------------------- *)

let oracle_cases =
  [ Alcotest.test_case "memo answers repeat observations" `Quick (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let c = Trim.Oracle.Cache.create () in
        let o1 = Trim.Oracle.observe ~cache:c tiny in
        let misses = Trim.Oracle.Cache.misses c in
        Alcotest.(check bool) "first run misses" true (misses > 0);
        let o2 = Trim.Oracle.observe ~cache:c tiny in
        Alcotest.(check int) "second run all hits" misses
          (Trim.Oracle.Cache.misses c);
        Alcotest.(check bool) "hits recorded" true
          (Trim.Oracle.Cache.hits c = misses);
        Alcotest.(check bool) "same observation" true
          (Trim.Oracle.equivalent o1 o2));
    Alcotest.test_case "memo keys on the effective image" `Quick (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let c = Trim.Oracle.Cache.create () in
        ignore (Trim.Oracle.observe ~cache:c tiny);
        let d' = Platform.Deployment.overlay tiny in
        Vfs.add_file d'.Platform.Deployment.vfs "broken_extra.py" "zz = 1\n";
        let h0 = Trim.Oracle.Cache.hits c in
        ignore (Trim.Oracle.observe ~cache:c d');
        Alcotest.(check int) "different image, no hits" h0
          (Trim.Oracle.Cache.hits c));
    Alcotest.test_case "read profiles are memoized apart from observations"
      `Quick (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let fresh = Trim.Oracle.Cache.create ~enabled:false () in
        let expected =
          Trim.Oracle.module_reads ~cache:fresh tiny ~module_name:"tinylib"
        in
        Alcotest.(check bool) "tinylib is read" true (expected <> []);
        let c = Trim.Oracle.Cache.create () in
        ignore (Trim.Oracle.observe ~cache:c tiny);
        let h0 = Trim.Oracle.Cache.hits c and m0 = Trim.Oracle.Cache.misses c in
        let reads () =
          Trim.Oracle.module_reads ~cache:c tiny ~module_name:"tinylib"
        in
        let cold = reads () in
        Alcotest.(check int) "an observation never answers a profile" h0
          (Trim.Oracle.Cache.hits c);
        Alcotest.(check int) "one miss per test case" (m0 + 2)
          (Trim.Oracle.Cache.misses c);
        let warm = reads () in
        Alcotest.(check int) "warm profile runs nothing" (m0 + 2)
          (Trim.Oracle.Cache.misses c);
        Alcotest.(check (list string)) "cold = fresh" expected cold;
        Alcotest.(check (list string)) "warm = fresh" expected warm;
        Alcotest.(check (list string)) "keyed by module" []
          (Trim.Oracle.module_reads ~cache:c tiny ~module_name:"nosuch"));
    Alcotest.test_case "run views count their own traffic" `Quick (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let tests = List.length tiny.Platform.Deployment.test_cases in
        let root = Trim.Oracle.Cache.create () in
        let a = Trim.Oracle.Cache.view root
        and b = Trim.Oracle.Cache.view root in
        let counts c = (Trim.Oracle.Cache.hits c, Trim.Oracle.Cache.misses c) in
        ignore (Trim.Oracle.observe ~cache:a tiny);
        ignore (Trim.Oracle.observe ~cache:b tiny);
        ignore (Trim.Oracle.observe ~cache:a tiny);
        Alcotest.(check (pair int int)) "view a" (tests, tests) (counts a);
        Alcotest.(check (pair int int)) "view b: a's entries" (tests, 0)
          (counts b);
        Alcotest.(check (pair int int)) "root = a + b" (2 * tests, tests)
          (counts root);
        Trim.Oracle.Cache.clear root;
        Alcotest.(check (pair int int)) "both views see the clear" (0, 0)
          (Trim.Oracle.Cache.size a, Trim.Oracle.Cache.size b);
        ignore (Trim.Oracle.observe ~cache:b tiny);
        Alcotest.(check (pair int int)) "b misses after the clear"
          (tests, tests) (counts b);
        Alcotest.(check (pair int int)) "root counts from the clear"
          (0, tests) (counts root));
    Alcotest.test_case "a view never reads another view's kept reads" `Quick
      (fun () ->
        let tiny = Workloads.Suite.tiny_app () in
        let tests = List.length tiny.Platform.Deployment.test_cases in
        let root = Trim.Oracle.Cache.create () in
        let a = Trim.Oracle.Cache.view root
        and b = Trim.Oracle.Cache.view root in
        let counts c = (Trim.Oracle.Cache.hits c, Trim.Oracle.Cache.misses c) in
        let reads c =
          Trim.Oracle.module_reads ~cache:c tiny ~module_name:"tinylib"
        in
        (* the reference runs fresh through a and keeps its reads there *)
        ignore (Trim.Oracle.for_reference ~cache:a tiny);
        let from_b = reads b in
        Alcotest.(check (pair int int)) "b records a run per test case"
          (0, tests) (counts b);
        let a0 = counts a in
        let from_a = reads a in
        Alcotest.(check (pair int int)) "a answers from its kept reads" a0
          (counts a);
        Alcotest.(check (list string)) "same profile" from_b from_a);
    Alcotest.test_case "a pipeline report counts its private memo" `Quick
      (fun () ->
        let c = Trim.Oracle.Cache.create () in
        let run () =
          (Trim.Pipeline.run
             ~options:{ Trim.Pipeline.default_options with
                        k = 3; oracle_cache = Some c }
             (Workloads.Suite.deployment_of "markdown"))
            .Trim.Pipeline.caches
        in
        let cold = run () in
        Alcotest.(check bool) "cold run misses" true
          (cold.Trim.Pipeline.oracle_misses > 0);
        Alcotest.(check (pair int int)) "cold run = the memo's counts"
          (Trim.Oracle.Cache.hits c, Trim.Oracle.Cache.misses c)
          (cold.Trim.Pipeline.oracle_hits, cold.Trim.Pipeline.oracle_misses);
        let h0 = Trim.Oracle.Cache.hits c in
        let warm = run () in
        Alcotest.(check (pair int int)) "warm run = the memo's deltas"
          (Trim.Oracle.Cache.hits c - h0, 0)
          (warm.Trim.Pipeline.oracle_hits, warm.Trim.Pipeline.oracle_misses);
        Alcotest.(check bool) "warm run hits" true
          (warm.Trim.Pipeline.oracle_hits > 0)) ]

(* --- measurement neutrality ----------------------------------------------- *)

(* Run the full pipeline three ways: caches disabled, caches enabled from
   cold, caches enabled again (so the oracle memo is warm). Every virtual
   measurement and every output source must be identical; only wall-clock and
   hit counters may differ. [check_neutral] returns the uncached run's
   optimized deployment. *)
let with_caches_disabled f =
  let pc = Parse_cache.global and oc = Trim.Oracle.Cache.global in
  let pe = Parse_cache.enabled pc and oe = Trim.Oracle.Cache.enabled oc in
  Parse_cache.set_enabled pc false;
  Trim.Oracle.Cache.set_enabled oc false;
  Fun.protect
    ~finally:(fun () ->
        Parse_cache.set_enabled pc pe;
        Trim.Oracle.Cache.set_enabled oc oe)
    f

let sources_of (d : Platform.Deployment.t) =
  let vfs = d.Platform.Deployment.vfs in
  List.map (fun p -> (p, Vfs.read_exn vfs p)) (Vfs.paths vfs)

let cold_record (d : Platform.Deployment.t) =
  let sim = Platform.Lambda_sim.create d in
  Platform.Lambda_sim.invoke sim ~now_s:0.0 ~event:"{\"x\": 1}" ()

let check_neutral ~k app =
  let options = { Trim.Pipeline.default_options with k } in
  let run () = Trim.Pipeline.run ~options (app ()) in
  let plain = with_caches_disabled run in
  let cached1 = run () in
  let cached2 = run () in
  Alcotest.(check int) "disabled run counts nothing" 0
    (let c = plain.Trim.Pipeline.caches in
     c.Trim.Pipeline.parse_hits + c.Trim.Pipeline.parse_misses
     + c.Trim.Pipeline.oracle_hits + c.Trim.Pipeline.oracle_misses);
  Alcotest.(check bool) "cached run reuses parses" true
    (cached1.Trim.Pipeline.caches.Trim.Pipeline.parse_hits > 0);
  Alcotest.(check bool) "warm run reuses observations" true
    (cached2.Trim.Pipeline.caches.Trim.Pipeline.oracle_hits > 0);
  List.iter
    (fun (label, cached) ->
       Alcotest.(check (list (pair string string)))
         (label ^ ": identical debloated sources")
         (sources_of plain.Trim.Pipeline.optimized)
         (sources_of cached.Trim.Pipeline.optimized);
       Alcotest.(check (list (list string)))
         (label ^ ": identical removals")
         (List.map
            (fun m -> m.Trim.Debloater.removed_attrs)
            plain.Trim.Pipeline.module_results)
         (List.map
            (fun m -> m.Trim.Debloater.removed_attrs)
            cached.Trim.Pipeline.module_results);
       Alcotest.(check int) (label ^ ": identical oracle query count")
         plain.Trim.Pipeline.total_oracle_queries
         cached.Trim.Pipeline.total_oracle_queries;
       let rp = cold_record plain.Trim.Pipeline.optimized
       and rc = cold_record cached.Trim.Pipeline.optimized in
       Alcotest.(check (float 0.0)) (label ^ ": identical virtual e2e")
         rp.Platform.Lambda_sim.e2e_ms rc.Platform.Lambda_sim.e2e_ms;
       Alcotest.(check (float 0.0)) (label ^ ": identical virtual memory")
         rp.Platform.Lambda_sim.peak_memory_mb
         rc.Platform.Lambda_sim.peak_memory_mb;
       Alcotest.(check (float 0.0)) (label ^ ": identical virtual cost")
         rp.Platform.Lambda_sim.cost rc.Platform.Lambda_sim.cost)
    [ ("cold", cached1); ("warm", cached2) ];
  (* the debloater seeded the cache with every rewritten module: each entry
     the final image is served must be the AST a parse of its text gives *)
  let vfs = cached2.Trim.Pipeline.optimized.Platform.Deployment.vfs in
  List.iter
    (fun p ->
       if Filename.check_suffix p ".py" then
         Alcotest.(check bool) (p ^ ": served AST equals a fresh parse") true
           (Ast_ref.program_equal (Parse_cache.parse_vfs vfs p)
              (Parser.parse ~file:p (Vfs.read_exn vfs p))))
    (Vfs.paths vfs);
  plain.Trim.Pipeline.optimized

let neutrality_cases =
  [ Alcotest.test_case "caching never changes a virtual measurement" `Slow
      (fun () ->
        ignore (check_neutral ~k:3 (fun () -> Workloads.Suite.tiny_app ())));
    (* markdown at K = 20 empties whole modules: their candidates and its
       final image hold "pass\n", whose seeded AST must be [Pass], not [].
       The final image never imports an emptied module (its importers lost
       the names too), so the cold record cannot see a wrong seed there;
       the served-AST check in [check_neutral] does. *)
    Alcotest.test_case "neutral on a corpus app with emptied modules" `Slow
      (fun () ->
        let optimized =
          check_neutral ~k:20 (fun () ->
              Workloads.Suite.deployment_of "markdown")
        in
        Alcotest.(check bool) "some module was emptied" true
          (List.exists (fun (_, src) -> src = "pass\n")
             (sources_of optimized))) ]

let suite =
  [ ("caching.overlay", overlay_cases);
    ("caching.parse_cache", parse_cache_cases);
    ( "caching.properties",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ overlay_freshness_prop; seeded_ast_prop ]
      @ [ emptied_module_case ] );
    ("caching.oracle_memo", oracle_cases);
    ("caching.neutrality", neutrality_cases) ]
