(* A second process for the two-writer tests in test_durability.ml.

     lock_probe.exe memo DIR KEY           add KEY to the memo store in DIR
     lock_probe.exe journal PATH DIGEST    append one verdict to a journal

   On success it prints the records the open replayed and exits 0; it
   exits 3 when another process holds the file. *)

let () =
  match Array.to_list Sys.argv with
  | [ _; "memo"; dir; key ] ->
    (match Trim.Memo_store.open_ ~dir with
     | s ->
       print_int (Trim.Memo_store.loaded s);
       Trim.Memo_store.add s ~key "probe";
       Trim.Memo_store.close s
     | exception Trim.Durable_log.Locked _ -> exit 3)
  | [ _; "journal"; path; run_digest ] ->
    (match Trim.Journal.open_ ~resume:true ~path ~run_digest () with
     | j ->
       print_int (Trim.Journal.records j);
       Trim.Journal.append j ~key:"probe" true;
       Trim.Journal.close j
     | exception Trim.Durable_log.Locked _ -> exit 3)
  | _ ->
    prerr_endline "usage: lock_probe.exe (memo DIR KEY | journal PATH DIGEST)";
    exit 2
