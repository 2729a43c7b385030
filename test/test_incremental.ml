(* Incremental re-debloating: the persistent observation memo (torn tails,
   escaping, store promotion), the run manifest, the
   DD warm-start counters, and the headline warm == cold keep-set
   equivalence at any job count. *)

open Trim

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ltrim-test-memo-%d-%d" (Unix.getpid ()) !n)
    in
    Journal.mkdir_p dir;
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let with_store dir f =
  let s = Memo_store.open_ ~dir in
  Fun.protect ~finally:(fun () -> Memo_store.close s) (fun () -> f s)

(* --- memo store ----------------------------------------------------------- *)

let store_tests =
  [ Alcotest.test_case "round-trip across reopen" `Quick (fun () ->
        let dir = fresh_dir () in
        with_store dir (fun s ->
            Memo_store.add s ~key:"k1" "plain";
            Memo_store.add s ~key:"k2" "pipes|and\nnewlines\\mixed";
            Memo_store.add s ~key:"k2" "ignored (first write wins)";
            Alcotest.(check int) "appended" 2 (Memo_store.appended s));
        with_store dir (fun s ->
            Alcotest.(check int) "loaded" 2 (Memo_store.loaded s);
            Alcotest.(check (option string)) "k1" (Some "plain")
              (Memo_store.find s "k1");
            Alcotest.(check (option string)) "k2"
              (Some "pipes|and\nnewlines\\mixed")
              (Memo_store.find s "k2");
            Alcotest.(check (option string)) "exact match only" None
              (Memo_store.find s "k");
            Alcotest.(check int) "clean load" 0 (Memo_store.truncated s)));
    Alcotest.test_case "torn tail dropped and repaired" `Quick (fun () ->
        let dir = fresh_dir () in
        let path =
          with_store dir (fun s ->
              Memo_store.add s ~key:"a" "1";
              Memo_store.add s ~key:"b" "2";
              Filename.concat dir "observations.memo")
        in
        write_file path (read_file path ^ "o|2|c|3|deadbeef");
        with_store dir (fun s ->
            Alcotest.(check int) "prefix loaded" 2 (Memo_store.loaded s);
            Alcotest.(check int) "tail truncated" 1 (Memo_store.truncated s);
            Alcotest.(check (option string)) "torn key absent" None
              (Memo_store.find s "c");
            (* repair rewrote the file: the store accepts appends again *)
            Memo_store.add s ~key:"c" "3");
        with_store dir (fun s ->
            Alcotest.(check int) "repaired reopen" 3 (Memo_store.loaded s);
            Alcotest.(check int) "clean" 0 (Memo_store.truncated s)));
    Alcotest.test_case "foreign header starts fresh" `Quick (fun () ->
        let dir = fresh_dir () in
        let path = Filename.concat dir Memo_store.file_name in
        write_file path "some-other-format/9\no|0|k|v|x\n";
        with_store dir (fun s ->
            Alcotest.(check int) "nothing loaded" 0 (Memo_store.loaded s);
            Alcotest.(check (option string)) "foreign record ignored" None
              (Memo_store.find s "k");
            Memo_store.add s ~key:"fresh" "1");
        with_store dir (fun s ->
            Alcotest.(check (option string)) "fresh store works"
              (Some "1") (Memo_store.find s "fresh"))) ]

(* Kill-at-any-byte property: truncating the file at an arbitrary point
   yields a valid prefix on reload — entries are recovered in write order,
   every recovered value is exact, and nothing past the cut survives. *)
let qcheck_truncate =
  let gen_values =
    QCheck.(list_of_size Gen.(1 -- 8) (string_gen_of_size Gen.(0 -- 12) Gen.char))
  in
  QCheck.Test.make ~count:60 ~name:"memo store: any truncation is a valid prefix"
    QCheck.(pair gen_values (0 -- 1000))
    (fun (values, permille) ->
      let frac = float_of_int permille /. 1000.0 in
      let dir = fresh_dir () in
      let keys = List.mapi (fun i _ -> Printf.sprintf "key%d" i) values in
      let path =
        with_store dir (fun s ->
            List.iter2 (fun k v -> Memo_store.add s ~key:k v) keys values;
            Filename.concat dir "observations.memo")
      in
      let contents = read_file path in
      let cut = int_of_float (frac *. float_of_int (String.length contents)) in
      write_file path (String.sub contents 0 cut);
      with_store dir (fun s ->
          let n = Memo_store.loaded s in
          (* a prefix: the first n entries exactly, nothing later *)
          List.iteri
            (fun i (k, v) ->
               match Memo_store.find s k with
               | Some v' ->
                 if i >= n then
                   QCheck.Test.fail_reportf "entry %d past prefix %d" i n;
                 if not (String.equal v v') then
                   QCheck.Test.fail_reportf "entry %d corrupted" i
               | None ->
                 if i < n then
                   QCheck.Test.fail_reportf "entry %d missing from prefix" i)
            (List.combine keys values);
          (* still appendable after any cut *)
          Memo_store.add s ~key:"post-crash" "ok";
          Memo_store.find s "post-crash" = Some "ok"))

let qcheck_escape =
  QCheck.Test.make ~count:200 ~name:"memo store: escape round-trips"
    QCheck.(string_gen_of_size Gen.(0 -- 40) Gen.char)
    (fun s ->
      let e = Memo_store.escape s in
      (* escaped text is record-safe: no field or line separators left *)
      String.for_all (fun c -> c <> '|' && c <> '\n' && c <> '\r') e
      && Memo_store.unescape e = Some s)

(* --- store promotion ------------------------------------------------------- *)

let tiny = Workloads.Suite.tiny_app ()

(* a twin with a different image digest, so its memo keys are distinct *)
let tiny_b =
  let d = Platform.Deployment.overlay tiny in
  let path = "site-packages/tinylib/__init__.py" in
  Minipy.Vfs.add_file d.Platform.Deployment.vfs path
    (Minipy.Vfs.read_exn d.Platform.Deployment.vfs path ^ "\n# twin\n");
  d

let tests_per_observe = List.length tiny.Platform.Deployment.test_cases

let cache_tests =
  [ Alcotest.test_case "memo keeps every observation" `Quick (fun () ->
        (* the in-memory memo has no bound: two apps' observations stay
           resident side by side, and re-observing either one is all hits *)
        let c = Oracle.Cache.create () in
        ignore (Oracle.observe ~cache:c tiny);
        ignore (Oracle.observe ~cache:c tiny_b);
        Alcotest.(check int) "both apps resident" (2 * tests_per_observe)
          (Oracle.Cache.size c);
        let hits = Oracle.Cache.hits c and misses = Oracle.Cache.misses c in
        ignore (Oracle.observe ~cache:c tiny);
        ignore (Oracle.observe ~cache:c tiny_b);
        Alcotest.(check int) "no new misses" misses (Oracle.Cache.misses c);
        Alcotest.(check int) "every re-observation hits"
          (hits + (2 * tests_per_observe)) (Oracle.Cache.hits c));
    Alcotest.test_case "store survives a cache clear" `Quick (fun () ->
        let dir = fresh_dir () in
        let store = Memo_store.open_ ~dir in
        Fun.protect ~finally:(fun () -> Memo_store.close store) (fun () ->
            let c = Oracle.Cache.create () in
            Oracle.Cache.attach_store c (Some store);
            ignore (Oracle.observe ~cache:c tiny);
            let persisted = Memo_store.size store in
            Alcotest.(check bool) "observations persisted" true
              (persisted >= tests_per_observe);
            Oracle.Cache.clear c;
            Alcotest.(check int) "memory empty" 0 (Oracle.Cache.size c);
            ignore (Oracle.observe ~cache:c tiny);
            Alcotest.(check int) "answered from the store"
              tests_per_observe (Oracle.Cache.store_hits c))) ]

(* --- search digest: cross-variant and cross-revision isolation ------------ *)

let digest_of d =
  let module_name = "tinylib" in
  let file = "site-packages/tinylib/__init__.py" in
  Debloater.module_search_digest d ~module_name ~file
    ~protected_list:[ "keep_me" ] ~candidates:[ "a"; "b" ]

let digest_tests =
  [ Alcotest.test_case "digest is deterministic" `Quick (fun () ->
        Alcotest.(check string) "same inputs, same digest" (digest_of tiny)
          (digest_of tiny));
    Alcotest.test_case "editing the module changes the digest" `Quick
      (fun () ->
        Alcotest.(check bool) "twin differs" false
          (String.equal (digest_of tiny) (digest_of tiny_b)));
    Alcotest.test_case "lazy variant never shares a digest" `Quick (fun () ->
        let lazy_d = Platform.Deployment.overlay tiny in
        Minipy.Vfs.add_file lazy_d.Platform.Deployment.vfs
          Minipy.Interp.lazy_manifest_file "lazy tinylib\n";
        Alcotest.(check bool) "eager vs lazy" false
          (String.equal (digest_of tiny) (digest_of lazy_d));
        (* and two distinct stub configurations differ from each other *)
        let lazy2 = Platform.Deployment.overlay tiny in
        Minipy.Vfs.add_file lazy2.Platform.Deployment.vfs
          Minipy.Interp.lazy_manifest_file "lazy tinylib\npreload tinylib\n";
        Alcotest.(check bool) "lazy vs lazy'" false
          (String.equal (digest_of lazy_d) (digest_of lazy2)));
    Alcotest.test_case "candidate split is part of the digest" `Quick
      (fun () ->
        let d1 =
          Debloater.module_search_digest tiny ~module_name:"tinylib"
            ~file:"site-packages/tinylib/__init__.py" ~protected_list:[]
            ~candidates:[ "a"; "b" ]
        and d2 =
          Debloater.module_search_digest tiny ~module_name:"tinylib"
            ~file:"site-packages/tinylib/__init__.py" ~protected_list:[ "a" ]
            ~candidates:[ "b" ]
        in
        Alcotest.(check bool) "protected vs candidate" false
          (String.equal d1 d2)) ]

(* --- manifest ------------------------------------------------------------- *)

let sample_manifest () =
  { Manifest.mf_app = "tiny";
    mf_backend = "ast";
    mf_variant = "eager";
    mf_scoring = "combined";
    mf_k = 3;
    mf_input_digest = "in";
    mf_output_digest = "out";
    mf_ranked = [ "m1"; "m2" ];
    mf_modules =
      [ { Manifest.me_module = "m1"; me_file = "f1"; me_digest = "d1";
          me_removed = [ "x"; "y" ]; me_queries = 7; me_cache_hits = 2;
          me_iterations = 3 };
        { Manifest.me_module = "m2"; me_file = "<none>";
          me_digest = Debloater.builtin_digest; me_removed = [];
          me_queries = 0; me_cache_hits = 0; me_iterations = 0 } ] }

let manifest_tests =
  [ Alcotest.test_case "render/parse round-trip" `Quick (fun () ->
        let m = sample_manifest () in
        match Manifest.parse (Manifest.render m) with
        | None -> Alcotest.fail "round-trip failed"
        | Some m' ->
          Alcotest.(check bool) "equal" true (m = m'));
    Alcotest.test_case "any corrupt line rejects the whole manifest" `Quick
      (fun () ->
        let text = Manifest.render (sample_manifest ()) in
        let lines = String.split_on_char '\n' text in
        (* flipping any single line must fail closed (cold run), never
           yield a different parse *)
        List.iteri
          (fun i _ ->
             let mutated =
               String.concat "\n"
                 (List.mapi
                    (fun j l -> if i = j && l <> "" then l ^ "x" else l)
                    lines)
             in
             if not (String.equal mutated text) then
               Alcotest.(check bool)
                 (Printf.sprintf "line %d corrupt -> None" i)
                 true
                 (Manifest.parse mutated = None))
          lines);
    Alcotest.test_case "save/load round-trip" `Quick (fun () ->
        let path = Filename.concat (fresh_dir ()) "app.manifest" in
        Manifest.save ~path (sample_manifest ());
        match Manifest.load ~path with
        | None -> Alcotest.fail "load failed"
        | Some m ->
          Alcotest.(check (option (list string))) "module entry found"
            (Some [ "x"; "y" ])
            (Option.map
               (fun (e : Manifest.module_entry) -> e.Manifest.me_removed)
               (Manifest.find_module m "m1"));
          Alcotest.(check (option string)) "missing path" None
            (Option.map (fun m -> m.Manifest.mf_app)
               (Manifest.load ~path:(path ^ ".nope")))) ]

(* Fail-closed property: a manifest cut at any byte, or with any one byte
   replaced, parses to nothing or to exactly the manifest that was
   written — never to a different one. Manifests are random: dotted module
   names, built-in entries ([me_file = "<none>"], the builtin digest),
   empty and non-empty removed lists, counters of any size. *)
let gen_manifest =
  let open QCheck.Gen in
  let ident =
    string_size ~gen:(oneofl [ 'a'; 'k'; 'z'; '_'; '0'; '9' ]) (1 -- 5)
  in
  let dotted = map (String.concat ".") (list_size (1 -- 3) ident) in
  let counter = oneof [ small_nat; nat; int_bound max_int ] in
  let entry =
    map
      (fun ((me_module, builtin, digest), (me_removed, (q, ch, it))) ->
         { Manifest.me_module;
           me_file =
             (if builtin then "<none>"
              else
                "site-packages/"
                ^ String.map (function '.' -> '/' | c -> c) me_module
                ^ ".py");
           me_digest = (if builtin then Debloater.builtin_digest else digest);
           me_removed; me_queries = q; me_cache_hits = ch; me_iterations = it })
      (pair
         (triple dotted bool
            (string_size ~gen:(oneofl [ '0'; 'f'; '9' ]) (return 32)))
         (pair (list_size (0 -- 4) ident) (triple counter counter counter)))
  in
  map
    (fun ((mf_app, mf_variant, mf_scoring, mf_k), (modules, (din, dout))) ->
       { Manifest.mf_app; mf_backend = "ast"; mf_variant; mf_scoring; mf_k;
         mf_input_digest = din; mf_output_digest = dout;
         mf_ranked = List.map (fun e -> e.Manifest.me_module) modules;
         mf_modules = modules })
    (pair
       (quad ident (oneofl [ "eager"; "lazy:0f9" ]) ident counter)
       (pair (list_size (0 -- 4) entry) (pair ident ident)))

let qcheck_manifest_fail_closed =
  QCheck.Test.make ~count:100
    ~name:"manifest: any truncation or byte substitution fails closed"
    QCheck.(pair (make ~print:Manifest.render gen_manifest) (int_bound 254))
    (fun (m, d) ->
       let text = Manifest.render m in
       let closed what mutated =
         match Manifest.parse mutated with
         | None -> ()
         | Some m' when m' = m -> ()
         | Some _ -> QCheck.Test.fail_reportf "%s parses to another manifest" what
       in
       if Manifest.parse text <> Some m then
         QCheck.Test.fail_reportf "render/parse does not round-trip";
       for cut = 0 to String.length text - 1 do
         closed (Printf.sprintf "cut at %d" cut) (String.sub text 0 cut)
       done;
       String.iteri
         (fun q c ->
            (* two different values per position: a low-bit flip and one
               spread over the other 254 *)
            List.iter
              (fun v ->
                 closed (Printf.sprintf "byte %d := %C" q v)
                   (String.mapi (fun i x -> if i = q then v else x) text))
              [ Char.chr (Char.code c lxor 1);
                Char.chr ((Char.code c + 1 + ((d + q) mod 255)) mod 256) ])
         text;
       true)

(* --- DD warm-start counters ----------------------------------------------- *)

let dd_tests =
  [ Alcotest.test_case "seed hit: one confirming query counted" `Quick
      (fun () ->
        (* oracle: passes iff 1 and 2 are kept *)
        let oracle keep = List.mem 1 keep && List.mem 2 keep in
        let keep, st = Dd.minimize ~seed:[ 1; 2 ] ~oracle [ 1; 2; 3; 4 ] in
        Alcotest.(check (list int)) "keep-set" [ 1; 2 ] (List.sort compare keep);
        Alcotest.(check int) "one warm-start query" 1 st.Dd.ws_queries;
        Alcotest.(check int) "one warm-start hit" 1 st.Dd.ws_hits);
    Alcotest.test_case "seed miss: falls back to full ddmin" `Quick (fun () ->
        let oracle keep = List.mem 1 keep && List.mem 2 keep in
        let keep, st = Dd.minimize ~seed:[ 3 ] ~oracle [ 1; 2; 3; 4 ] in
        Alcotest.(check (list int)) "keep-set" [ 1; 2 ] (List.sort compare keep);
        Alcotest.(check int) "query spent on the seed" 1 st.Dd.ws_queries;
        Alcotest.(check int) "no hit" 0 st.Dd.ws_hits);
    Alcotest.test_case "plain minimize reports zero warm-start traffic" `Quick
      (fun () ->
        let oracle keep = List.mem 1 keep in
        let _, st = Dd.minimize ~oracle [ 1; 2; 3 ] in
        Alcotest.(check int) "no ws queries" 0 st.Dd.ws_queries;
        Alcotest.(check int) "no ws hits" 0 st.Dd.ws_hits) ]

(* --- warm == cold equivalence through the pipeline ------------------------ *)

let fingerprint (r : Pipeline.report) =
  String.concat "|"
    (Minipy.Vfs.image_digest r.Pipeline.optimized.Platform.Deployment.vfs
     :: List.map
          (fun (m : Debloater.module_result) ->
             m.Debloater.dm_module ^ ":"
             ^ String.concat "+" m.Debloater.removed_attrs)
          r.Pipeline.module_results)

let run ?baseline ?manifest_path d =
  Pipeline.run
    ~options:{ Pipeline.default_options with
               k = 3; baseline; manifest_path;
               oracle_cache = Some (Oracle.Cache.create ()) }
    d

let pipeline_tests =
  [ Alcotest.test_case "unchanged app replays fully, bit-identical" `Slow
      (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        let cold = run ~manifest_path:path tiny in
        let baseline = Manifest.load ~path in
        Alcotest.(check bool) "manifest written" true (baseline <> None);
        let warm = run ?baseline tiny in
        Alcotest.(check string) "identical output" (fingerprint cold)
          (fingerprint warm);
        Alcotest.(check int) "every module replayed"
          (List.length warm.Pipeline.module_results)
          (List.length warm.Pipeline.replayed_modules);
        Alcotest.(check int) "zero oracle queries" 0
          warm.Pipeline.total_oracle_queries);
    Alcotest.test_case "edited app: warm == cold" `Slow
      (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        ignore (run ~manifest_path:path tiny);
        let baseline = Manifest.load ~path in
        (* one-module edit: tiny_b appends a comment to tinylib *)
        let cold = run tiny_b in
        let warm = run ?baseline tiny_b in
        Alcotest.(check string) "warm == cold" (fingerprint cold)
          (fingerprint warm);
        Alcotest.(check bool) "strictly fewer queries warm" true
          (warm.Pipeline.total_oracle_queries
           < cold.Pipeline.total_oracle_queries));
    Alcotest.test_case "a private oracle cache keeps the global memo out"
      `Slow (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        ignore (run ~manifest_path:path tiny);
        let baseline = Manifest.load ~path in
        let g = Oracle.Cache.global in
        let h0 = Oracle.Cache.hits g and m0 = Oracle.Cache.misses g in
        let warm = run ?baseline tiny_b in
        Alcotest.(check (pair int int)) "global memo untouched" (h0, m0)
          (Oracle.Cache.hits g, Oracle.Cache.misses g);
        Alcotest.(check bool) "a warm start queried the oracle" true
          (warm.Pipeline.warm_seeded > 0
           && warm.Pipeline.total_oracle_queries > 0));
    Alcotest.test_case "handler update: warm result still correct" `Slow
      (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        ignore (run ~manifest_path:path tiny);
        let baseline = Manifest.load ~path in
        (* the update makes the handler call one more library function;
           the baseline's keep-sets predate it *)
        let updated = Platform.Deployment.copy tiny in
        let src = Platform.Deployment.handler_source updated in
        let src' =
          Str.global_replace
            (Str.regexp_string "  result = tinylib.run_task(acc)")
            "  acc = tinylib.f0(acc)\n  result = tinylib.run_task(acc)" src
        in
        Alcotest.(check bool) "handler edited" true (src <> src');
        Minipy.Vfs.add_file updated.Platform.Deployment.vfs "handler.py" src';
        let warm = run ?baseline updated in
        let oracle, _ = Oracle.for_reference updated in
        Alcotest.(check bool) "correct after update" true
          (oracle warm.Pipeline.optimized));
    Alcotest.test_case "foreign baseline is ignored" `Slow (fun () ->
        let path = Filename.concat (fresh_dir ()) "tiny.manifest" in
        ignore (run ~manifest_path:path tiny);
        let baseline =
          Option.map
            (fun m -> { m with Manifest.mf_app = "someone-else" })
            (Manifest.load ~path)
        in
        let r = run ?baseline tiny in
        Alcotest.(check (list string)) "nothing replayed" []
          r.Pipeline.replayed_modules;
        Alcotest.(check bool) "ran a real search" true
          (r.Pipeline.total_oracle_queries > 0)) ]

let suite =
  [ ("incremental: memo store", store_tests);
    ("incremental: memo store properties",
     List.map QCheck_alcotest.to_alcotest [ qcheck_truncate; qcheck_escape ]);
    ("incremental: cache and store", cache_tests);
    ("incremental: search digest", digest_tests);
    ("incremental: manifest",
     manifest_tests @ [ QCheck_alcotest.to_alcotest qcheck_manifest_fail_closed ]);
    ("incremental: DD warm start", dd_tests);
    ("incremental: pipeline warm == cold", pipeline_tests) ]
