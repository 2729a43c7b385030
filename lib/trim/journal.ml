(* Durable DD decision journal.

   One journal file per module search. The header binds the file to a run
   digest (base image digest + module + candidate list + engine tag), so a
   stale journal from a different revision or job layout is discarded
   instead of replayed. Every record is an append-only line

     o|<seq>|<subset key>|<T or F>|<md5 of the payload before the checksum>
     k|<seq>|<final keep-set key>|<md5 ...>                (completion mark)

   flushed before control returns to DD — the crash model is "power loss
   after any single write". Replay therefore tolerates exactly one torn
   record at the tail (and, defensively, any checksum/sequence-invalid
   suffix): the valid prefix is kept, the rest is dropped and the file is
   repaired via write-temp-then-rename. A resumed DD run answers its
   queries from the replay table in place of the oracle, reproducing the
   uninterrupted run's keep-set and counters bit for bit.

   A repair is written atomically — temp file in the same directory, then
   rename — because the valid prefix must survive a crash mid-repair. A
   fresh start writes its header straight onto the append channel instead:
   a header torn by a crash fails the header check on the next resume and
   the file starts over, which loses nothing a fresh file had. Appends go
   through that channel with a flush per record; after each flush the
   chaos harness is notified, which is how the simulated
   kill-after-record-N lands exactly on a durable boundary. *)

let magic = "ltrim-journal/1"

(* --- atomic file helpers (shared by the CSV/report writers) --------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Journal.mkdir_p: %s exists and is not a directory" dir)

(* Write [contents] to [path] via a temp file in the same directory plus
   [Sys.rename] (atomic on POSIX): a crash leaves either the old file or
   the new one, never a torn mix. *)
let write_file_atomic ~path contents =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir ".ltrim" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* --- metrics --------------------------------------------------------------

   Global registry counters; guarded by a module-level mutex because
   parallel pipeline groups journal concurrently and counters are plain
   mutable ints. *)

let counters_lock = Mutex.create ()
let c_appended = Obs.Metrics.counter Obs.Metrics.global "trim.journal.appended"
let c_replayed = Obs.Metrics.counter Obs.Metrics.global "trim.journal.replayed"
let c_truncated = Obs.Metrics.counter Obs.Metrics.global "trim.journal.truncated"

let count ?by c =
  Mutex.lock counters_lock;
  Obs.Metrics.incr ?by c;
  Mutex.unlock counters_lock

(* --- the journal ---------------------------------------------------------- *)

type t = {
  path : string;
  mutable oc : out_channel option;
  replay : (string, bool) Hashtbl.t;
  mutable keepset : string option;    (* completion mark, when present *)
  mutable next_seq : int;
  mutable replayed_served : int;      (* replay-table answers handed out *)
  mutable truncated_records : int;    (* invalid suffix lines dropped on open *)
  buf : Buffer.t;                     (* record scratch; guarded by [lock] *)
  lock : Mutex.t;
}

let checksum payload = Digest.to_hex (Digest.string payload)

(* A record body travels as one '|'-field; DD keys are index lists
   ("3,7,19") so this never fires in practice. *)
let check_key key =
  if String.exists (fun c -> c = '|' || c = '\n') key then
    invalid_arg "Journal: record keys must not contain '|' or newlines"

type parsed =
  | P_obs of int * string * bool
  | P_keepset of int * string
  | P_invalid

let parse_line line =
  match String.split_on_char '|' line with
  | [ kind; seq; body; verdict; sum ] when kind = "o" ->
    let payload = Printf.sprintf "%s|%s|%s|%s" kind seq body verdict in
    (match (int_of_string_opt seq, verdict) with
     | Some s, ("T" | "F") when String.equal (checksum payload) sum ->
       P_obs (s, body, String.equal verdict "T")
     | _ -> P_invalid)
  | [ kind; seq; body; sum ] when kind = "k" ->
    let payload = Printf.sprintf "%s|%s|%s" kind seq body in
    (match int_of_string_opt seq with
     | Some s when String.equal (checksum payload) sum -> P_keepset (s, body)
     | _ -> P_invalid)
  | _ -> P_invalid

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let header_line ~run_digest = Printf.sprintf "%s|%s" magic run_digest

(* Open (or create) the journal at [path] for a search identified by
   [run_digest]. With [resume] an existing compatible file is replayed:
   the valid record prefix fills the replay table, any invalid suffix is
   dropped and the file repaired atomically. Without [resume] — or when
   the header does not match this run — the file starts fresh. *)
let open_ ?(resume = false) ~path ~run_digest () =
  let header = header_line ~run_digest in
  let t =
    { path;
      oc = None;
      replay = Hashtbl.create 256;
      keepset = None;
      next_seq = 0;
      replayed_served = 0;
      truncated_records = 0;
      buf = Buffer.create 256;
      lock = Mutex.create () }
  in
  let existing =
    if resume && Sys.file_exists path then
      match read_lines path with
      | first :: rest when String.equal first header -> Some rest
      | _ -> None (* foreign/torn header or different run: start fresh *)
    else None
  in
  (match existing with
   | Some record_lines ->
     let rec replay_valid kept = function
       | [] -> (List.rev kept, 0)
       | line :: rest ->
         (match parse_line line with
          | P_obs (seq, key, verdict) when seq = t.next_seq ->
            Hashtbl.replace t.replay key verdict;
            t.next_seq <- t.next_seq + 1;
            replay_valid (line :: kept) rest
          | P_keepset (seq, keys) when seq = t.next_seq ->
            t.keepset <- Some keys;
            t.next_seq <- t.next_seq + 1;
            replay_valid (line :: kept) rest
          | _ -> (List.rev kept, 1 + List.length rest))
     in
     let kept, dropped = replay_valid [] record_lines in
     t.truncated_records <- dropped;
     if dropped > 0 then begin
       count ~by:dropped c_truncated;
       write_file_atomic ~path
         (String.concat "\n" (header :: kept) ^ "\n")
     end;
     t.oc <-
       Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)
   | None ->
     (* fresh start: truncate and write the header straight on the append
        channel — no atomicity needed, since a torn header reads as a
        foreign file on the next resume and the journal starts over *)
     mkdir_p (Filename.dirname path);
     let oc =
       open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
         0o644 path
     in
     output_string oc header;
     output_char oc '\n';
     flush oc;
     t.oc <- Some oc);
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Replayed verdict for [key], if the journal recorded one. *)
let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.replay key with
      | Some v ->
        t.replayed_served <- t.replayed_served + 1;
        count c_replayed;
        Some v
      | None -> None)

let out_channel_exn t =
  match t.oc with
  | Some oc -> oc
  | None -> invalid_arg "Journal: already closed"

(* Build "kind|seq|body[|verdict]" in the scratch buffer, append the
   checksum field, write the line and flush. Called with [t.lock] held —
   one allocation (the checksummed payload) and one write per record; the
   flush is the durability boundary. *)
let append_record t ~kind ~body ~verdict =
  let oc = out_channel_exn t in
  let buf = t.buf in
  Buffer.clear buf;
  Buffer.add_string buf kind;
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_int t.next_seq);
  Buffer.add_char buf '|';
  Buffer.add_string buf body;
  (match verdict with
   | Some v ->
     Buffer.add_char buf '|';
     Buffer.add_char buf (if v then 'T' else 'F')
   | None -> ());
  let sum = checksum (Buffer.contents buf) in
  Buffer.add_char buf '|';
  Buffer.add_string buf sum;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  flush oc;
  t.next_seq <- t.next_seq + 1;
  count c_appended;
  (* the record is durable; a chaos kill lands exactly here *)
  Chaos.note_journal_append ()

(* Record one oracle verdict. Durable (flushed) before returning. *)
let append t ~key verdict =
  check_key key;
  locked t (fun () -> append_record t ~kind:"o" ~body:key ~verdict:(Some verdict))

(* Record the final keep-set — the completion mark. Idempotent on resume:
   a replayed identical mark is not re-appended. *)
let append_keepset t keys =
  check_key keys;
  locked t (fun () ->
      match t.keepset with
      | Some k when String.equal k keys -> ()
      | _ ->
        t.keepset <- Some keys;
        append_record t ~kind:"k" ~body:keys ~verdict:None)

let final_keepset t = locked t (fun () -> t.keepset)

let replayed t = locked t (fun () -> t.replayed_served)

let truncated t = locked t (fun () -> t.truncated_records)

let records t = locked t (fun () -> t.next_seq)

let close t =
  locked t (fun () ->
      match t.oc with
      | Some oc ->
        flush oc;
        close_out oc;
        t.oc <- None
      | None -> ())

(* --- per-search spec and process-wide configuration -----------------------

   The pipeline hands the debloater a [spec] (directory + resume flag); the
   debloater derives the per-module path and run digest. [configure] is the
   CLI's way to journal experiment runs whose pipeline options it cannot
   reach (the experiment registry builds its own): [Pipeline.run] falls back
   to the configured directory when its options carry none. *)

type spec = { journal_dir : string; journal_resume : bool }

let conf = ref (None : spec option)
let conf_lock = Mutex.create ()

let configure ~dir ~resume =
  Mutex.lock conf_lock;
  conf :=
    (match dir with
     | Some d -> Some { journal_dir = d; journal_resume = resume }
     | None -> None);
  Mutex.unlock conf_lock

let configured () =
  Mutex.lock conf_lock;
  let c = !conf in
  Mutex.unlock conf_lock;
  c
