(* The ltrim CLI driven through the built binary: usage errors exit 2
   before any work, --resume replays a --journal, and a --baseline manifest
   that cannot serve the app is reported on stderr and the run goes cold. *)

(* bin/ltrim.exe beside this test's build directory *)
let exe = Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/ltrim.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ltrim-test-cli-%d-%d" (Unix.getpid ()) !n)
    in
    Trim.Journal.mkdir_p dir;
    dir

(* The environment minus LTRIM_* variables (the chaos hook is one). *)
let env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"LTRIM_" kv))
       (Array.to_list (Unix.environment ())))

(* Run ltrim with [args]: its exit code, stdout and stderr. *)
let ltrim args =
  let dir = fresh_dir () in
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let open_out path = Unix.openfile path [ O_WRONLY; O_TRUNC; O_CREAT ] 0o644 in
  let fd_out = open_out out and fd_err = open_out err in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd_out; Unix.close fd_err)
      (fun () ->
         Unix.create_process_env exe
           (Array.of_list (exe :: args))
           (env ()) Unix.stdin fd_out fd_err)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, read_file out, read_file err)
  | _ -> Alcotest.failf "ltrim %s did not exit" (String.concat " " args)

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let has_incremental_line out = contains ~sub:"Incremental:" out

let usage_errors =
  let resume_needs_journal cmd =
    Alcotest.test_case
      (Printf.sprintf "%s --resume without --journal exits 2" (List.hd cmd))
      `Quick (fun () ->
        let code, out, err = ltrim (cmd @ [ "--resume" ]) in
        Alcotest.(check int) "exit" 2 code;
        Alcotest.(check string) "stderr" "ltrim: --resume needs --journal DIR\n"
          err;
        Alcotest.(check string) "no output" "" out)
  in
  [ resume_needs_journal [ "debloat"; "markdown" ];
    resume_needs_journal [ "experiments"; "-o"; "table1" ] ]

(* The "Caches:" line's oracle memo misses, and every line but it and the
   wall-clock "Debloated" line. *)
let split_report out =
  let lines = String.split_on_char '\n' out in
  let caches, rest =
    List.partition (String.starts_with ~prefix:"Caches:") lines
  in
  (* "Caches: parse cache H hits / M misses, oracle memo H hits / M misses" *)
  let misses =
    match caches with
    | [ l ] ->
      Scanf.sscanf
        (List.nth (String.split_on_char ',' l) 1)
        " oracle memo %_d hits / %d misses" Option.some
    | _ -> None
  in
  (misses, List.filter (fun l -> not (String.starts_with ~prefix:"Debloated" l)) rest)

let journal =
  [ Alcotest.test_case "--resume replays the journal to the same result"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let args = [ "debloat"; "markdown"; "-k"; "2"; "--journal"; dir ] in
        let code, cold, err = ltrim args in
        Alcotest.(check (pair int string)) "journaled run" (0, "") (code, err);
        let code, warm, err = ltrim (args @ [ "--resume" ]) in
        Alcotest.(check (pair int string)) "resumed run" (0, "") (code, err);
        let cold_misses, cold_rest = split_report cold in
        let warm_misses, warm_rest = split_report warm in
        Alcotest.(check (list string)) "same keep-sets and costs" cold_rest
          warm_rest;
        match (cold_misses, warm_misses) with
        | Some c, Some w ->
          Alcotest.(check bool)
            (Printf.sprintf "fewer executions on resume (%d < %d)" w c)
            true (w < c)
        | _ -> Alcotest.fail "no Caches: line") ]

(* A manifest of a K = 2 markdown run, written once for the group. *)
let markdown_manifest =
  lazy
    (let path = Filename.concat (fresh_dir ()) "markdown.manifest" in
     let code, _, err = ltrim [ "debloat"; "markdown"; "-k"; "2"; "--manifest"; path ] in
     Alcotest.(check (pair int string)) "cold run" (0, "") (code, err);
     path)

let baselines =
  [ Alcotest.test_case "a baseline for the same app replays" `Quick (fun () ->
        let path = Lazy.force markdown_manifest in
        let code, out, err =
          ltrim [ "debloat"; "markdown"; "-k"; "2"; "--baseline"; path ]
        in
        Alcotest.(check (pair int string)) "exit, stderr" (0, "") (code, err);
        Alcotest.(check bool) "every module replayed" true
          (contains ~sub:"Incremental: 2/2 modules replayed from baseline" out));
    Alcotest.test_case "a baseline for another app is reported and ignored"
      `Quick (fun () ->
        let path = Lazy.force markdown_manifest in
        let code, out, err =
          ltrim [ "debloat"; "igraph"; "-k"; "2"; "--baseline"; path ]
        in
        Alcotest.(check int) "exit" 0 code;
        Alcotest.(check string) "stderr"
          (Printf.sprintf "baseline %s is for app markdown; running cold\n" path)
          err;
        Alcotest.(check bool) "cold: no Incremental line" false
          (has_incremental_line out);
        Alcotest.(check bool) "debloated igraph" true
          (contains ~sub:"Debloated igraph" out));
    Alcotest.test_case "a missing baseline is reported and the run goes cold"
      `Quick (fun () ->
        let path = Filename.concat (fresh_dir ()) "none.manifest" in
        let code, out, err =
          ltrim [ "debloat"; "markdown"; "-k"; "2"; "--baseline"; path ]
        in
        Alcotest.(check int) "exit" 0 code;
        Alcotest.(check string) "stderr"
          (Printf.sprintf "baseline %s is missing or invalid; running cold\n" path)
          err;
        Alcotest.(check bool) "cold: no Incremental line" false
          (has_incremental_line out)) ]

let suite =
  [ ("cli.usage_errors", usage_errors); ("cli.journal", journal);
    ("cli.baseline", baselines) ]
