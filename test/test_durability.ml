(* Durability: the DD verdict journal (torn tails, corruption, digest
   mismatches) and the crash/resume bit-identity property — a run killed
   after any journal record and resumed reproduces the uninterrupted
   search's keep-set and every counter, sequentially and on a pool. *)

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
      Trim.Journal.append j ~key:"0,1" false;
      Trim.Journal.append_keepset j "0,2");
  with_journal ~resume:true path (fun j ->
      Alcotest.(check (option bool)) "verdict replayed" (Some true)
        (Trim.Journal.find j "0,1,2");
      Alcotest.(check (option bool)) "negative verdict replayed" (Some false)
        (Trim.Journal.find j "0,1");
      Alcotest.(check (option bool)) "unknown key" None
        (Trim.Journal.find j "9");
      Alcotest.(check (option string)) "keep-set mark" (Some "0,2")
        (Trim.Journal.final_keepset j);
      Alcotest.(check int) "replay-table answers served" 2
        (Trim.Journal.replayed j);
      Alcotest.(check int) "nothing truncated" 0 (Trim.Journal.truncated j);
      (* idempotent completion mark: resume of a finished run *)
      Trim.Journal.append_keepset j "0,2")

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


(* Kill/resume on the one DD engine, without a pool or on a shared pool of
   [domains] (pools are created once, not per case): the resumed run's
   keep-set and every counter — [speculative] and [rounds] included — must
   equal the uninterrupted run's. *)
let prop_resume domains =
  QCheck.Test.make ~count:(if domains = 0 then 60 else 30)
    ~name:
      (if domains = 0 then "kill/resume == uninterrupted (minimize)"
       else
         Printf.sprintf "kill/resume == uninterrupted (minimize, pool of %d)"
           domains)
    gen_case
    (fun (n, important, kill_n) ->
       let items = List.init n Fun.id in
       let oracle = oracle_of important in
       let pool = if domains = 0 then None else Some (Dd_ref.pool domains) in
       let keep0, s0 = Trim.Dd.minimize ?pool ~oracle items in
       let path = Filename.concat (fresh_dir ()) "dd.journal" in
       let _killed, (keep1, s1) =
         kill_then_resume ~kill_n path
           ~run:(fun j -> Trim.Dd.minimize ?pool ~journal:j ~oracle items)
       in
       keep0 = keep1 && s0 = s1)

(* A resumed-without-crash journal replays everything: zero fresh queries
   reach the oracle on the second run, with or without a pool or a seed
   (passing or failing). *)
let test_full_replay_hits_no_oracle () =
  let items = List.init 12 Fun.id in
  let oracle = oracle_of [ 2; 7 ] in
  List.iter
    (fun (pool, seed) ->
       let path = Filename.concat (fresh_dir ()) "full.journal" in
       let keep0, _ =
         with_journal path (fun j ->
             Trim.Dd.minimize ?pool ~journal:j ?seed ~oracle items)
       in
       let fresh = Atomic.make 0 in
       let counting subset = Atomic.incr fresh; oracle subset in
       let keep1, _ =
         with_journal ~resume:true path (fun j ->
             Trim.Dd.minimize ?pool ~journal:j ?seed ~oracle:counting items)
       in
       Alcotest.(check (list int)) "same keep-set" keep0 keep1;
       Alcotest.(check int) "no fresh oracle executions on full replay" 0
         (Atomic.get fresh))
    [ (None, None);
      (Some (Dd_ref.pool 2), None);
      (None, Some [ 2; 4; 7 ]);
      (None, Some [ 2; 4 ]) ]

(* A seeded, journaled search killed at every kill point — the seed's
   confirmation included — resumes to the uninterrupted run's keep-set and
   counters, for a passing and a failing seed, with or without a pool. *)
let test_seeded_every_kill_point () =
  let items = List.init 12 Fun.id in
  let oracle = oracle_of [ 2; 7; 9 ] in
  List.iter
    (fun (seed, pool) ->
       let run j = Trim.Dd.minimize ?pool ~journal:j ~seed ~oracle items in
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
    [ ([ 2; 5; 7; 9 ], None); ([ 2; 5; 7 ], None); ([ 2; 5; 7; 9 ], Some (Dd_ref.pool 2)) ]

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
    ( "durability.resume",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_resume 0; prop_resume 2; prop_resume 4 ] ) ]
