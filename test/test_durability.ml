(* Durability: the durable-log primitive under every on-disk format
   (mutations of any byte or line, the manifest's strict parse, two writing
   processes), the DD verdict journal (torn tails, corruption, digest
   mismatches) and the crash/resume bit-identity property — a run killed
   after any journal record and resumed reproduces the uninterrupted
   search's keep-set and every counter. *)

let digest = "test-run-digest"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ltrim-test-journal-%d-%d" (Unix.getpid ()) !n)
    in
    Trim.Journal.mkdir_p dir;
    dir

let with_journal ?resume path f =
  let j = Trim.Journal.open_ ?resume ~path ~run_digest:digest () in
  Fun.protect ~finally:(fun () -> Trim.Journal.close j) (fun () -> f j)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* --- journal unit tests --------------------------------------------------- *)

let test_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"0,1,2" true;
      Trim.Journal.append j ~key:"0,1" false);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "verdict replayed" (Some true)
        (Trim.Journal.find j "0,1,2");
      Alcotest.(check (option bool)) "negative verdict replayed" (Some false)
        (Trim.Journal.find j "0,1");
      Alcotest.(check (option bool)) "unknown key" None
        (Trim.Journal.find j "9");
      Alcotest.(check int) "replay-table answers served" 2
        (Trim.Journal.replayed j);
      Alcotest.(check int) "nothing truncated" 0 (Trim.Journal.truncated j))

let test_no_resume_resets () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j -> Trim.Journal.append j ~key:"0" true);
  with_journal path (fun j ->
      Alcotest.(check (option bool)) "reset without resume" None
        (Trim.Journal.find j "0"))

let test_torn_tail () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"0,1" true;
      Trim.Journal.append j ~key:"0" false);
  (* simulate a torn final record: half a line, no newline *)
  write_file path (read_file path ^ "o|2|0,2|T");
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "prefix survives" (Some true)
        (Trim.Journal.find j "0,1");
      Alcotest.(check (option bool)) "torn record dropped" None
        (Trim.Journal.find j "0,2");
      Alcotest.(check int) "one truncated record" 1
        (Trim.Journal.truncated j);
      (* the repair rewrote the file: reopening again is clean *)
      Trim.Journal.append j ~key:"0,2" true);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check int) "repaired file reopens clean" 0
        (Trim.Journal.truncated j);
      Alcotest.(check (option bool)) "post-repair append survives" (Some true)
        (Trim.Journal.find j "0,2"))

let test_mid_corruption () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"a" true;
      Trim.Journal.append j ~key:"b" false;
      Trim.Journal.append j ~key:"c" true);
  (* flip a byte inside the middle record: checksum mismatch *)
  let s = read_file path in
  let lines = String.split_on_char '\n' s in
  let lines =
    List.mapi
      (fun i l ->
         if i = 2 then String.map (function 'b' -> 'X' | c -> c) l else l)
      lines
  in
  write_file path (String.concat "\n" lines);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "records before the corruption replay"
        (Some true) (Trim.Journal.find j "a");
      Alcotest.(check (option bool)) "corrupted record dropped" None
        (Trim.Journal.find j "b");
      Alcotest.(check (option bool))
        "records after the corruption dropped too (valid prefix only)" None
        (Trim.Journal.find j "c");
      Alcotest.(check int) "two truncated records" 2
        (Trim.Journal.truncated j))

let test_chaos_corrupt_helper () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Trim.Journal.append j ~key:"a" true;
      Trim.Journal.append j ~key:"b" false);
  Alcotest.(check bool) "helper found a record to corrupt" true
    (Trim.Chaos.corrupt_last_record path);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "first record survives" (Some true)
        (Trim.Journal.find j "a");
      Alcotest.(check (option bool)) "corrupted tail dropped" None
        (Trim.Journal.find j "b");
      Alcotest.(check int) "one truncated record" 1
        (Trim.Journal.truncated j))

(* A blank last line is not a record: the helper must skip every trailing
   newline, and report [false] when only newlines remain. *)
let test_chaos_corrupt_trailing_newlines () =
  let path = Filename.concat (fresh_dir ()) "blank-tail" in
  write_file path "abc\n\n";
  Alcotest.(check bool) "found the record above the blank line" true
    (Trim.Chaos.corrupt_last_record path);
  Alcotest.(check string) "record overwritten, newlines kept" "XXX\n\n"
    (read_file path);
  write_file path "\n\n";
  Alcotest.(check bool) "only newlines: nothing to corrupt" false
    (Trim.Chaos.corrupt_last_record path);
  Alcotest.(check string) "file untouched" "\n\n" (read_file path)

(* An unterminated last line is a record too; an empty file has none. *)
let test_chaos_corrupt_unterminated () =
  let path = Filename.concat (fresh_dir ()) "no-newline" in
  write_file path "a\nbc";
  Alcotest.(check bool) "unterminated last line found" true
    (Trim.Chaos.corrupt_last_record path);
  Alcotest.(check string) "only the last line overwritten" "a\nXX"
    (read_file path);
  write_file path "";
  Alcotest.(check bool) "empty file: nothing to corrupt" false
    (Trim.Chaos.corrupt_last_record path);
  Alcotest.(check string) "empty file untouched" "" (read_file path)

(* The kill switch fires on exactly the N-th append, reports N, and
   disarms itself; re-arming restarts the count. *)
let test_chaos_kill_budget () =
  Fun.protect ~finally:Trim.Chaos.disarm (fun () ->
      Alcotest.check_raises "n = 0 rejected"
        (Invalid_argument "Chaos.arm_kill_after: n must be >= 1") (fun () ->
          Trim.Chaos.arm_kill_after 0);
      Trim.Chaos.note_journal_append ();
      Alcotest.(check (option int)) "unarmed appends are free" None
        (Trim.Chaos.armed ());
      List.iter
        (fun n ->
           Trim.Chaos.arm_kill_after n;
           for i = 1 to n - 1 do
             Trim.Chaos.note_journal_append ();
             Alcotest.(check (option int))
               (Printf.sprintf "n=%d: budget after %d" n i)
               (Some (n - i)) (Trim.Chaos.armed ())
           done;
           (match Trim.Chaos.note_journal_append () with
            | () -> Alcotest.failf "n=%d: expected Killed" n
            | exception Trim.Chaos.Killed { killed_after } ->
              Alcotest.(check int)
                (Printf.sprintf "n=%d: killed after" n) n killed_after);
           Alcotest.(check (option int))
             (Printf.sprintf "n=%d: disarmed once fired" n) None
             (Trim.Chaos.armed ());
           Trim.Chaos.note_journal_append ())
        [ 1; 3 ])

let test_chaos_arm_from_env () =
  let var = "LTRIM_CHAOS_KILL_AFTER" in
  let saved = Sys.getenv_opt var in
  Fun.protect
    ~finally:(fun () ->
        (* OCaml cannot unsetenv; [arm_from_env] reads "" as unset *)
        Unix.putenv var (Option.value saved ~default:"");
        Trim.Chaos.disarm ())
    (fun () ->
       Trim.Chaos.disarm ();
       (* really unset unless the suite was started with it set *)
       if saved <> None then Unix.putenv var "";
       Trim.Chaos.arm_from_env ();
       Alcotest.(check (option int)) "unset: disarmed" None
         (Trim.Chaos.armed ());
       Unix.putenv var "";
       Trim.Chaos.arm_from_env ();
       Alcotest.(check (option int)) "empty: disarmed" None
         (Trim.Chaos.armed ());
       Unix.putenv var "7";
       Trim.Chaos.arm_from_env ();
       Alcotest.(check (option int)) "\"7\" arms 7" (Some 7)
         (Trim.Chaos.armed ());
       Trim.Chaos.disarm ();
       List.iter
         (fun bad ->
            Unix.putenv var bad;
            match Trim.Chaos.arm_from_env () with
            | () -> Alcotest.failf "%S: expected Invalid_argument" bad
            | exception Invalid_argument _ ->
              Alcotest.(check (option int)) (bad ^ ": stays disarmed") None
                (Trim.Chaos.armed ()))
         [ "0"; "-3"; "x" ])

let test_digest_mismatch () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j -> Trim.Journal.append j ~key:"a" true);
  let j =
    Trim.Journal.open_ ~resume:true ~path ~run_digest:"other-revision" ()
  in
  Fun.protect ~finally:(fun () -> Trim.Journal.close j) (fun () ->
      Alcotest.(check (option bool))
        "stale journal discarded on digest mismatch" None
        (Trim.Journal.find j "a"))

let test_bad_key_rejected () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  with_journal path (fun j ->
      Alcotest.check_raises "pipe in key"
        (Invalid_argument "Journal: record keys must not contain '|' or newlines")
        (fun () -> Trim.Journal.append j ~key:"a|b" true))

(* --- the durable-log primitive (QCheck) ---------------------------------- *)

let log_header = "ltrim-test/1|digest"

(* Open the log at [path], collecting the replayed records in order. *)
let open_log path =
  let seen = ref [] in
  let log =
    Trim.Durable_log.open_ ~path ~header:log_header ~invalid:"reserved" ()
      ~replay:(fun kind fields ->
          seen := (kind, fields) :: !seen;
          true)
  in
  (log, List.rev !seen)

type mutation =
  | Truncate of int          (* keep this many bytes *)
  | Flip of int * int        (* byte position, value added to it mod 256 *)
  | Duplicate of int         (* line index, 0 = header *)
  | Swap of int * int        (* line indices *)
  | Garbage of string

let print_mutation = function
  | Truncate b -> Printf.sprintf "truncate %d" b
  | Flip (q, d) -> Printf.sprintf "flip %d by %d" q d
  | Duplicate l -> Printf.sprintf "duplicate line %d" l
  | Swap (a, b) -> Printf.sprintf "swap lines %d %d" a b
  | Garbage g -> Printf.sprintf "garbage %S" g

(* Fields as the clients write them: escaped observations, some longer
   than the log's 4 KiB read chunk, and DD keys. *)
let gen_field =
  QCheck.Gen.(
    oneof
      [ map Trim.Memo_store.escape (string_size ~gen:char (0 -- 20));
        map Trim.Memo_store.escape (string_size ~gen:char (0 -- 5000));
        map (fun l -> String.concat "," (List.map string_of_int l))
          (list_size (0 -- 4) (0 -- 30)) ])

let gen_log_case =
  let open QCheck.Gen in
  let record = pair (oneofl [ "o"; "k" ]) (list_size (1 -- 3) gen_field) in
  let pos = 0 -- 100_000 in
  let mutation =
    oneof
      [ map (fun b -> Truncate b) pos;
        map2 (fun q d -> Flip (q, d)) pos (0 -- 255);
        map (fun l -> Duplicate l) pos;
        map2 (fun a b -> Swap (a, b)) pos pos;
        map (fun g -> Garbage g) (string_size ~gen:char (0 -- 40)) ]
  in
  QCheck.make
    ~print:(fun (records, m) ->
        Printf.sprintf "%d records [%s], %s" (List.length records)
          (String.concat "; "
             (List.map (fun (k, fs) -> String.concat "|" (k :: fs)) records))
          (print_mutation m))
    (pair (list_size (0 -- 8) record) mutation)

(* Lines as [input_line] reads them: a final unterminated piece counts. *)
let count_lines s =
  let nl = List.length (String.split_on_char '\n' s) - 1 in
  if s <> "" && s.[String.length s - 1] <> '\n' then nl + 1 else nl

(* Apply [m] to [lines] (header first, each written with its newline).
   Returns the mutated text and the valid prefix it leaves, in records:
   [None] when the header no longer reads back. *)
let mutate lines m =
  let n = List.length lines - 1 in
  let text ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  let full = text lines in
  (* the line holding byte [q], its newline included *)
  let line_of q =
    let rec go i off = function
      | l :: rest ->
        let next = off + String.length l + 1 in
        if q < next then i else go (i + 1) next rest
      | [] -> n
    in
    go 0 0 lines
  in
  let prefix_before line = if line = 0 then None else Some (line - 1) in
  match m with
  | Truncate b ->
    let b = b mod (String.length full + 1) in
    let ends =
      List.rev
        (snd
           (List.fold_left
              (fun (off, acc) l ->
                 let e = off + String.length l in
                 (e + 1, e :: acc))
              (0, []) lines))
    in
    (* a line is whole, newline or not, when its last byte survives *)
    let whole = List.length (List.filter (fun e -> e <= b) ends) in
    (String.sub full 0 b, if whole = 0 then None else Some (whole - 1))
  | Flip (q, d) ->
    let q = q mod String.length full in
    let c = Char.chr ((Char.code full.[q] + d) mod 256) in
    let flipped = String.mapi (fun i x -> if i = q then c else x) full in
    (flipped, if d = 0 then Some n else prefix_before (line_of q))
  | Duplicate l ->
    let l = l mod (n + 1) in
    let dup = List.mapi (fun i x -> if i = l then [ x; x ] else [ x ]) lines in
    (text (List.concat dup), Some l)
  | Swap (a, b) ->
    let a = a mod (n + 1) and b = b mod (n + 1) in
    let a, b = (min a b, max a b) in
    let arr = Array.of_list lines in
    let la = arr.(a) in
    arr.(a) <- arr.(b);
    arr.(b) <- la;
    (text (Array.to_list arr), if a = b then Some n else prefix_before a)
  | Garbage g -> (full ^ g, Some n)

(* Any mutation of a log leaves exactly the records before it: the replay
   never serves a record that was not appended at that position, counts
   every line after the prefix as truncated, cuts the file back to header
   plus prefix, and keeps appending where the prefix ends. *)
let prop_log_mutation =
  QCheck.Test.make ~count:500
    ~name:"any byte or line mutation replays exactly the records before it"
    gen_log_case
    (fun (records, m) ->
       let path = Filename.concat (fresh_dir ()) "t.log" in
       let log, _ = open_log path in
       List.iter (fun (k, fs) -> Trim.Durable_log.append log k fs) records;
       Trim.Durable_log.close log;
       let lines =
         List.filter (( <> ) "") (String.split_on_char '\n' (read_file path))
       in
       let mutated, prefix = mutate lines m in
       write_file path mutated;
       let p = Option.value prefix ~default:0 in
       let expected = List.filteri (fun i _ -> i < p) records in
       let log, replayed = open_log path in
       if replayed <> expected then
         QCheck.Test.fail_reportf "replayed %d records, expected the first %d"
           (List.length replayed) p;
       let truncated =
         match prefix with None -> 0 | Some p -> count_lines mutated - 1 - p
       in
       if Trim.Durable_log.truncated log <> truncated then
         QCheck.Test.fail_reportf "truncated %d, expected %d"
           (Trim.Durable_log.truncated log) truncated;
       let kept = List.filteri (fun i _ -> i <= p) lines in
       if read_file path <> String.concat "" (List.map (fun l -> l ^ "\n") kept)
       then QCheck.Test.fail_reportf "file is not header plus prefix";
       if Trim.Durable_log.records log <> p then
         QCheck.Test.fail_reportf "next seq %d, expected %d"
           (Trim.Durable_log.records log) p;
       Trim.Durable_log.append log "k" [ "after" ];
       Trim.Durable_log.close log;
       let log, replayed = open_log path in
       Trim.Durable_log.close log;
       replayed = expected @ [ ("k", [ "after" ]) ]
       && Trim.Durable_log.truncated log = 0)

(* A manifest is parsed strictly: changing any one byte of a rendered
   manifest to any other value rejects the whole file. *)
let gen_manifest =
  let open QCheck.Gen in
  let ident =
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '_'; '.'; '0'; '7' ]) (1 -- 6)
  in
  let entry =
    map
      (fun ((me_module, me_file, me_digest), (me_removed, (q, ch, it))) ->
         { Trim.Manifest.me_module; me_file; me_digest; me_removed;
           me_queries = q; me_cache_hits = ch; me_iterations = it })
      (pair (triple ident ident ident)
         (pair (list_size (0 -- 3) ident) (triple nat nat nat)))
  in
  map
    (fun ((mf_app, mf_backend, mf_variant, mf_scoring), (mf_k, modules, d)) ->
       ( { Trim.Manifest.mf_app; mf_backend; mf_variant; mf_scoring; mf_k;
           mf_input_digest = "in" ^ mf_app; mf_output_digest = "out" ^ mf_app;
           mf_ranked = List.map (fun e -> e.Trim.Manifest.me_module) modules;
           mf_modules = modules },
         d ))
    (pair (quad ident ident ident ident)
       (triple nat (list_size (0 -- 3) entry) (0 -- 254)))

let prop_manifest_byte_change =
  QCheck.Test.make ~count:100
    ~name:"manifest: every single-byte change fails the parse"
    (QCheck.make gen_manifest)
    (fun (m, d) ->
       let text = Trim.Manifest.render m in
       if Trim.Manifest.parse text <> Some m then
         QCheck.Test.fail_reportf "render/parse does not round-trip";
       String.iteri
         (fun q c ->
            (* a different value at every position, spread over 1..255 *)
            let v = Char.chr ((Char.code c + 1 + ((d + q) mod 255)) mod 256) in
            let changed =
              String.mapi (fun i x -> if i = q then v else x) text
            in
            if Trim.Manifest.parse changed <> None then
              QCheck.Test.fail_reportf "byte %d changed to %C still parses" q v)
         text;
       true)

(* --- directories ------------------------------------------------------------ *)

(* Directory flags create their DIR with [mkdir_p]: missing parents are
   made, and a DIR that names a regular file is refused, never replaced. *)
let test_mkdir_p_parents () =
  let dir = Filename.concat (fresh_dir ()) "a/b/c" in
  Trim.Durable_log.mkdir_p dir;
  Alcotest.(check bool) "nested directory made" true
    (Sys.file_exists dir && Sys.is_directory dir);
  Trim.Durable_log.mkdir_p dir;
  Alcotest.(check bool) "a second call is a no-op" true (Sys.is_directory dir)

let test_mkdir_p_regular_file () =
  let file = Filename.concat (fresh_dir ()) "plain" in
  write_file file "keep me";
  let refuses path =
    match Trim.Durable_log.mkdir_p path with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "the file itself" true (refuses file);
  Alcotest.(check bool) "a path below the file" true
    (refuses (Filename.concat file "sub"));
  Alcotest.(check string) "file untouched" "keep me" (read_file file)

(* --- two writing processes ------------------------------------------------ *)

(* Run test/lock_probe.exe in a process of its own; its exit status and
   what it printed. *)
let probe args =
  let exe = Filename.concat (Sys.getcwd ()) "lock_probe.exe" in
  let out = Filename.temp_file "ltrim-probe" ".out" in
  let fd = Unix.openfile out [ O_WRONLY; O_TRUNC; O_CREAT ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd
          Unix.stderr)
  in
  let _, status = Unix.waitpid [] pid in
  (status, read_file out)

let check_probe what expected (status, printed) =
  match (expected, status) with
  | `Locked, Unix.WEXITED 3 -> ()
  | `Opened n, Unix.WEXITED 0 -> Alcotest.(check string) what n printed
  | _ -> Alcotest.failf "%s: unexpected probe status" what

let test_memo_two_writers () =
  let dir = fresh_dir () in
  let s = Trim.Memo_store.open_ ~dir in
  Trim.Memo_store.add s ~key:"ka" "1";
  check_probe "second process while the store is open" `Locked
    (probe [ "memo"; dir; "kb" ]);
  Trim.Memo_store.add s ~key:"kc" "2";
  Trim.Memo_store.close s;
  check_probe "second process after close" (`Opened "2")
    (probe [ "memo"; dir; "kb" ]);
  let s = Trim.Memo_store.open_ ~dir in
  Fun.protect ~finally:(fun () -> Trim.Memo_store.close s) (fun () ->
      Alcotest.(check int) "every record of both writers" 3
        (Trim.Memo_store.loaded s);
      Alcotest.(check int) "nothing torn" 0 (Trim.Memo_store.truncated s);
      Alcotest.(check (option string)) "the second writer's record"
        (Some "probe") (Trim.Memo_store.find s "kb"))

let test_journal_two_writers () =
  let path = Filename.concat (fresh_dir ()) "m.journal" in
  let j = Trim.Journal.open_ ~path ~run_digest:digest () in
  Trim.Journal.append j ~key:"0" true;
  check_probe "second process while the journal is open" `Locked
    (probe [ "journal"; path; digest ]);
  Trim.Journal.close j;
  check_probe "second process after close" (`Opened "1")
    (probe [ "journal"; path; digest ]);
  with_journal ~resume:true path (fun j ->
      Alcotest.(check int) "both records" 2 (Trim.Journal.records j);
      Alcotest.(check (option bool)) "the second writer's verdict" (Some true)
        (Trim.Journal.find j "probe"))

(* --- kill/resume bit-identity (QCheck) ------------------------------------ *)

(* A deterministic synthetic oracle: a subset passes iff it contains every
   [important] element — same shape the DD unit tests use. *)
let oracle_of important subset =
  List.for_all (fun x -> List.mem x subset) important

(* Run a journaled search, killed after [kill_n] records (or to completion
   when the budget outlasts the run), then resume it. Returns the killed
   flag and the resumed run's result. *)
let kill_then_resume ~kill_n ~run path =
  Trim.Chaos.arm_kill_after kill_n;
  let killed =
    Fun.protect ~finally:Trim.Chaos.disarm (fun () ->
        with_journal path (fun j ->
            try
              ignore (run j);
              false
            with Trim.Chaos.Killed _ -> true))
  in
  let result = with_journal ~resume:true path (fun j -> run j) in
  (killed, result)

let gen_case =
  QCheck.make
    ~print:(fun (n, important, kill_n) ->
        Printf.sprintf "n=%d important=[%s] kill_n=%d" n
          (String.concat ";" (List.map string_of_int important))
          kill_n)
    QCheck.Gen.(
      sized_size (int_range 4 20) (fun n ->
          let* important =
            list_size (int_range 0 (min n 5)) (int_range 0 (n - 1))
          in
          let* kill_n = int_range 1 40 in
          return (n, List.sort_uniq compare important, kill_n)))


(* Kill/resume on the one DD engine: the resumed run's keep-set and every
   counter must equal the uninterrupted run's. *)
let prop_resume =
  QCheck.Test.make ~count:60 ~name:"kill/resume == uninterrupted (minimize)"
    gen_case
    (fun (n, important, kill_n) ->
       let items = List.init n Fun.id in
       let oracle = oracle_of important in
       let keep0, s0 = Trim.Dd.minimize ~oracle items in
       let path = Filename.concat (fresh_dir ()) "dd.journal" in
       let _killed, (keep1, s1) =
         kill_then_resume ~kill_n path
           ~run:(fun j -> Trim.Dd.minimize ~journal:j ~oracle items)
       in
       keep0 = keep1 && s0 = s1)

(* A journaled pipeline run of a multi-library app resumes from its own
   journals without one fresh verdict: each module's journal digest covers
   the image it was searched against, with every earlier-ranked module
   (of its own library and of others) already trimmed, and the one
   rank-order fold rebuilds exactly that image. *)
let test_pipeline_resume_multi_library () =
  let app = Workloads.Suite.deployment_of "image-resize" in
  let journal_dir = Some (fresh_dir ()) in
  let run resume =
    Trim.Pipeline.run
      ~options:{ Trim.Pipeline.default_options with
                 k = 20; journal_dir; resume;
                 oracle_cache = Some (Trim.Oracle.Cache.create ()) }
      app
  in
  let appended =
    Obs.Metrics.counter Obs.Metrics.global "trim.journal.appended"
  in
  let first = run false in
  let roots =
    List.sort_uniq compare
      (List.map
         (fun m -> List.hd (String.split_on_char '.' m))
         first.Trim.Pipeline.ranked)
  in
  Alcotest.(check bool) "top-K spans several libraries" true
    (List.length roots > 1);
  let before = Obs.Metrics.value appended in
  let resumed = run true in
  Alcotest.(check int) "no fresh verdict on resume" 0
    (Obs.Metrics.value appended - before);
  let digest (r : Trim.Pipeline.report) =
    Platform.Deployment.image_digest r.Trim.Pipeline.optimized
  in
  Alcotest.(check string) "same optimized image" (digest first)
    (digest resumed);
  let removed (r : Trim.Pipeline.report) =
    List.map
      (fun (m : Trim.Debloater.module_result) ->
         (m.Trim.Debloater.dm_module, m.Trim.Debloater.removed_attrs))
      r.Trim.Pipeline.module_results
  in
  Alcotest.(check (list (pair string (list string)))) "same keep-sets"
    (removed first) (removed resumed)

(* Journaled pipelines fanned out on a pool of 2 (experiments --jobs 2
   --journal) resume at one domain without one fresh verdict: a module's
   journal does not depend on the domain or the order its app ran in. *)
let test_pool_journals_resume_sequentially () =
  let apps = [ ("image-resize", 20); ("markdown", 3); ("resnet", 5) ] in
  let cases =
    List.map
      (fun (name, k) ->
         (Workloads.Suite.deployment_of name, k, Some (fresh_dir ())))
      apps
  in
  let run resume (app, k, journal_dir) =
    Trim.Pipeline.run
      ~options:{ Trim.Pipeline.default_options with
                 k; journal_dir; resume;
                 oracle_cache = Some (Trim.Oracle.Cache.create ()) }
      app
  in
  let appended =
    Obs.Metrics.counter Obs.Metrics.global "trim.journal.appended"
  in
  let start = Obs.Metrics.value appended in
  let first =
    Test_parallel.with_pool ~domains:2 (fun p ->
        Parallel.Pool.map p (run false) cases)
  in
  let before = Obs.Metrics.value appended in
  Alcotest.(check bool) "the pooled pass wrote verdicts" true
    (before > start);
  let resumed = List.map (run true) cases in
  Alcotest.(check int) "no fresh verdict on resume" 0
    (Obs.Metrics.value appended - before);
  List.iter2
    (fun (name, _) ((a : Trim.Pipeline.report), (b : Trim.Pipeline.report)) ->
       Alcotest.(check string) (name ^ ": same optimized image")
         (Platform.Deployment.image_digest a.Trim.Pipeline.optimized)
         (Platform.Deployment.image_digest b.Trim.Pipeline.optimized))
    apps (List.combine first resumed)

(* Journaled DD searches running side by side on a pool of 4, each on its
   own journal, replay in full on a second pooled pass: same keep-sets and
   not one fresh oracle execution. *)
let test_pool_searches_replay () =
  let searches =
    List.init 8 (fun i ->
        let n = 6 + (2 * i) in
        ( List.init n Fun.id,
          oracle_of (List.filter (fun x -> (x + i) mod 5 = 0) (List.init n Fun.id)),
          Filename.concat (fresh_dir ()) "search.journal" ))
  in
  let fresh = Atomic.make 0 in
  let pass ~resume =
    Test_parallel.with_pool ~domains:4 (fun p ->
        Parallel.Pool.map p
          (fun (items, oracle, path) ->
             let counting subset = Atomic.incr fresh; oracle subset in
             fst
               (with_journal ~resume path (fun j ->
                    Trim.Dd.minimize ~journal:j ~oracle:counting items)))
          searches)
  in
  let first = pass ~resume:false in
  Alcotest.(check bool) "the first pass queried the oracle" true
    (Atomic.get fresh > 0);
  Atomic.set fresh 0;
  let replayed = pass ~resume:true in
  Alcotest.(check (list (list int))) "same keep-sets" first replayed;
  Alcotest.(check int) "no fresh oracle executions on replay" 0
    (Atomic.get fresh)

(* A resumed-without-crash journal replays everything: zero fresh queries
   reach the oracle on the second run, with or without a seed (passing or
   failing). *)
let test_full_replay_hits_no_oracle () =
  let items = List.init 12 Fun.id in
  let oracle = oracle_of [ 2; 7 ] in
  List.iter
    (fun seed ->
       let path = Filename.concat (fresh_dir ()) "full.journal" in
       let keep0, _ =
         with_journal path (fun j ->
             Trim.Dd.minimize ~journal:j ?seed ~oracle items)
       in
       let fresh = Atomic.make 0 in
       let counting subset = Atomic.incr fresh; oracle subset in
       let keep1, _ =
         with_journal ~resume:true path (fun j ->
             Trim.Dd.minimize ~journal:j ?seed ~oracle:counting items)
       in
       Alcotest.(check (list int)) "same keep-set" keep0 keep1;
       Alcotest.(check int) "no fresh oracle executions on full replay" 0
         (Atomic.get fresh))
    [ None; Some [ 2; 4; 7 ]; Some [ 2; 4 ] ]

(* A seeded, journaled search killed at every kill point — the seed's
   confirmation included — resumes to the uninterrupted run's keep-set and
   counters, for a passing and a failing seed. *)
let test_seeded_every_kill_point () =
  let items = List.init 12 Fun.id in
  let oracle = oracle_of [ 2; 7; 9 ] in
  List.iter
    (fun seed ->
       let run j = Trim.Dd.minimize ~journal:j ~seed ~oracle items in
       let path0 = Filename.concat (fresh_dir ()) "seeded.journal" in
       let keep0, s0 = with_journal path0 run in
       let records = with_journal ~resume:true path0 Trim.Journal.records in
       for kill_n = 1 to records do
         let path = Filename.concat (fresh_dir ()) "seeded.journal" in
         let killed, (keep1, s1) = kill_then_resume ~kill_n ~run path in
         let case = Printf.sprintf "kill after %d/%d" kill_n records in
         Alcotest.(check bool) (case ^ ": killed") true killed;
         Alcotest.(check (list int)) (case ^ ": keep-set") keep0 keep1;
         Alcotest.(check bool) (case ^ ": counters") true (s0 = s1)
       done)
    [ [ 2; 5; 7; 9 ]; [ 2; 5; 7 ] ]

(* Everything DD-level that must survive a crash: the optimized image, the
   total query count, and each module's removed attributes and search
   counters. Memo hit/miss deltas are left out: a resumed run answers
   replayed queries before they reach the observation memo. *)
let pipeline_fingerprint (r : Trim.Pipeline.report) =
  let modules =
    List.map
      (fun (m : Trim.Debloater.module_result) ->
         Printf.sprintf "%s:%s:%d:%d:%d" m.Trim.Debloater.dm_module
           (String.concat "+" m.Trim.Debloater.removed_attrs)
           m.Trim.Debloater.oracle_queries m.Trim.Debloater.cache_hits
           m.Trim.Debloater.dd_iterations)
      r.Trim.Pipeline.module_results
  in
  String.concat "|"
    (Minipy.Vfs.image_digest r.Trim.Pipeline.optimized.Platform.Deployment.vfs
     :: string_of_int r.Trim.Pipeline.total_oracle_queries :: modules)

(* A journaled pipeline run (markdown, K = 3) killed after every record n
   in 1..R+3, R the uninterrupted run's record count, and resumed,
   reproduces the uninterrupted run; the kill fires iff n <= R, and the
   resumed run appends only the R - n records the killed one never made
   durable. Each run has a private oracle memo, so no run answers from
   another's verdicts. *)
let test_pipeline_every_kill_point () =
  let app = Workloads.Suite.deployment_of "markdown" in
  let run ~journal_dir ~resume =
    Trim.Pipeline.run
      ~options:{ Trim.Pipeline.default_options with
                 k = 3; journal_dir = Some journal_dir; resume;
                 oracle_cache = Some (Trim.Oracle.Cache.create ()) }
      app
  in
  let appended =
    Obs.Metrics.counter Obs.Metrics.global "trim.journal.appended"
  in
  let before = Obs.Metrics.value appended in
  let baseline =
    pipeline_fingerprint (run ~journal_dir:(fresh_dir ()) ~resume:false)
  in
  let records = Obs.Metrics.value appended - before in
  Alcotest.(check bool) "the run journals records" true (records > 0);
  for n = 1 to records + 3 do
    let journal_dir = fresh_dir () in
    Trim.Chaos.arm_kill_after n;
    let killed =
      Fun.protect ~finally:Trim.Chaos.disarm (fun () ->
          try
            ignore (run ~journal_dir ~resume:false);
            false
          with Trim.Chaos.Killed _ -> true)
    in
    let start = Obs.Metrics.value appended in
    let resumed = pipeline_fingerprint (run ~journal_dir ~resume:true) in
    let case = Printf.sprintf "kill after %d/%d" n records in
    Alcotest.(check bool) (case ^ ": killed") (n <= records) killed;
    Alcotest.(check string) (case ^ ": fingerprint") baseline resumed;
    Alcotest.(check int) (case ^ ": records appended on resume")
      (max 0 (records - n)) (Obs.Metrics.value appended - start)
  done

(* The run digest covers the seed: a journal written under one seed is
   never replayed under another, or unseeded. *)
let test_digest_covers_seed () =
  let tiny = Workloads.Suite.tiny_app () in
  let digest ?seed () =
    Trim.Debloater.journal_run_digest ?seed tiny ~module_name:"tinylib"
      ~file:"site-packages/tinylib/__init__.py" ~protected_list:[]
      ~candidates:[ "a"; "b" ]
  in
  let digests =
    [ digest (); digest ~seed:[] (); digest ~seed:[ "a" ] ();
      digest ~seed:[ "b" ] () ]
  in
  Alcotest.(check int) "pairwise distinct" 4
    (List.length (List.sort_uniq compare digests))

(* A journal holds verdicts and nothing else: a fresh journaled search
   writes one [o|] record per fresh oracle query after its header, and no
   completion mark. *)
let test_journal_holds_only_verdicts () =
  let tiny = Workloads.Suite.tiny_app () in
  let cache = Trim.Oracle.Cache.create () in
  let oracle, _ = Trim.Oracle.for_reference ~cache tiny in
  let journal_dir = fresh_dir () in
  let _, r =
    Trim.Debloater.debloat_module ~oracle_cache:cache
      ~journal:{ Trim.Journal.journal_dir; journal_resume = false }
      ~oracle ~protected:Trim.Debloater.String_set.empty tiny
      ~module_name:"tinylib"
  in
  let records =
    match
      String.split_on_char '\n'
        (read_file (Filename.concat journal_dir "tinylib.journal"))
    with
    | _header :: records -> List.filter (( <> ) "") records
    | [] -> []
  in
  Alcotest.(check int) "one record per issued query"
    r.Trim.Debloater.oracle_queries (List.length records);
  List.iter
    (fun line ->
       Alcotest.(check string) ("verdict record: " ^ line) "o|"
         (String.sub line 0 2))
    records

let suite =
  [ ( "durability.journal",
      [ Alcotest.test_case "append/replay round trip" `Quick test_roundtrip;
        Alcotest.test_case "no resume resets the file" `Quick
          test_no_resume_resets;
        Alcotest.test_case "torn tail dropped and repaired" `Quick
          test_torn_tail;
        Alcotest.test_case "mid-file corruption keeps valid prefix" `Quick
          test_mid_corruption;
        Alcotest.test_case "chaos corrupt_last_record recovers" `Quick
          test_chaos_corrupt_helper;
        Alcotest.test_case "run-digest mismatch discards journal" `Quick
          test_digest_mismatch;
        Alcotest.test_case "reserved bytes in keys rejected" `Quick
          test_bad_key_rejected;
        Alcotest.test_case "full replay reaches the oracle zero times" `Quick
          test_full_replay_hits_no_oracle;
        Alcotest.test_case "seeded search resumes from every kill point"
          `Quick test_seeded_every_kill_point;
        Alcotest.test_case "pipeline resumes from every kill point" `Quick
          test_pipeline_every_kill_point;
        Alcotest.test_case "a fresh journal holds only verdict records"
          `Quick test_journal_holds_only_verdicts;
        Alcotest.test_case "run digest covers the seed" `Quick
          test_digest_covers_seed;
        Alcotest.test_case "chaos corrupt_last_record skips blank lines"
          `Quick test_chaos_corrupt_trailing_newlines;
        Alcotest.test_case "chaos arm_from_env parses the kill budget" `Quick
          test_chaos_arm_from_env;
        Alcotest.test_case "chaos corrupt_last_record without a final newline"
          `Quick test_chaos_corrupt_unterminated;
        Alcotest.test_case "chaos kill fires on the N-th append" `Quick
          test_chaos_kill_budget ] );
    ( "durability.log",
      [ QCheck_alcotest.to_alcotest ~long:false prop_log_mutation;
        QCheck_alcotest.to_alcotest ~long:false prop_manifest_byte_change;
        Alcotest.test_case "a second process cannot open a held memo store"
          `Quick test_memo_two_writers;
        Alcotest.test_case "a second process cannot open a held journal"
          `Quick test_journal_two_writers;
        Alcotest.test_case "mkdir_p makes missing parents" `Quick
          test_mkdir_p_parents;
        Alcotest.test_case "mkdir_p refuses a regular file" `Quick
          test_mkdir_p_regular_file ] );
    ( "durability.resume",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_resume ]
      @ [ Alcotest.test_case "multi-library pipeline resumes with no fresh \
                              verdict" `Slow
            test_pipeline_resume_multi_library;
          Alcotest.test_case "pipelines journaled on a pool of 2 resume at \
                              one domain" `Slow
            test_pool_journals_resume_sequentially;
          Alcotest.test_case "journaled searches on a pool of 4 replay with \
                              no fresh query" `Quick
            test_pool_searches_replay ] ) ]
