(* Persistent on-disk oracle memo.

   One append-only file (`observations.memo`) per store directory holding
   content-addressed oracle observations:

     ltrim-memo/1
     o|<seq>|<key>|<escaped canonical output>|<md5 of the payload>

   The key is {!Oracle.test_key} — an md5 over everything the canonical
   output can depend on (engine tag, optimizer variant, effective image digest,
   entry point, test-case inputs) — so entries are revision-safe by
   construction and one store can be shared across applications and process
   restarts: a key either means exactly one observation or is absent.

   Durability model follows {!Journal}: every record is checksummed and
   flushed before [add] returns, and a reload keeps only the valid record
   prefix — a torn or corrupt tail is dropped and the file repaired via
   write-temp-then-rename, never replayed. Unlike a DD journal the file has
   no run digest in its header: cross-revision sharing is the whole point,
   and the per-record content addressing already provides the safety a run
   digest buys a journal.

   Canonical outputs are arbitrary interpreter text (newlines and '|'
   included), so values travel escaped: '\\' -> "\\\\", '\n' -> "\\n",
   '\r' -> "\\r", '|' -> "\\p". The escaping is injective, so a checksummed
   record decodes to exactly the stored observation or not at all.

   Metrics (Obs.Metrics.global): oracle.memo_store.loaded (records replayed
   at open), oracle.memo_store.appended, oracle.memo_store.truncated
   (invalid-suffix lines dropped at open). Store *hits* are counted by the
   in-memory {!Oracle.Cache} sitting on top (oracle.memo.store_hits). *)

let magic = "ltrim-memo/1"

let file_name = "observations.memo"

let counters_lock = Mutex.create ()
let c_loaded = Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.loaded"
let c_appended =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.appended"
let c_truncated =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.truncated"

let count ?by c =
  Mutex.lock counters_lock;
  Obs.Metrics.incr ?by c;
  Mutex.unlock counters_lock

(* --- value escaping ------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '|' -> Buffer.add_string b "\\p"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Inverse of [escape]; [None] on any malformed escape (a corrupt record
   must never decode to a plausible-but-wrong observation). *)
let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else if s.[i] <> '\\' then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
    else if i + 1 >= n then None
    else begin
      (match s.[i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | 'p' -> Buffer.add_char b '|'
       | _ -> Buffer.add_char b '\x00' (* poisoned below *));
      match s.[i + 1] with
      | '\\' | 'n' | 'r' | 'p' -> go (i + 2)
      | _ -> None
    end
  in
  go 0

(* --- the store ------------------------------------------------------------ *)

type t = {
  path : string;
  mutable oc : out_channel option;
  table : (string, string) Hashtbl.t;
  mutable next_seq : int;
  mutable loaded_records : int;
  mutable appended_records : int;
  mutable truncated_records : int;
  buf : Buffer.t;
  lock : Mutex.t;
}

let checksum payload = Digest.to_hex (Digest.string payload)

let check_key key =
  if String.exists (fun c -> c = '|' || c = '\n' || c = '\r') key then
    invalid_arg "Memo_store: keys must not contain '|' or newlines"

let parse_line line =
  match String.split_on_char '|' line with
  | [ kind; seq; key; value; sum ] when kind = "o" ->
    let payload = Printf.sprintf "%s|%s|%s|%s" kind seq key value in
    (match (int_of_string_opt seq, unescape value) with
     | Some s, Some v when String.equal (checksum payload) sum ->
       Some (s, key, v)
     | _ -> None)
  | _ -> None

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

(* Open (or create) the store under [dir]. An existing file is always
   replayed: the valid record prefix fills the table, any invalid suffix
   (torn tail, flipped bytes, missing lines) is dropped and the file is
   repaired atomically. A foreign or torn header starts the file over. *)
let open_ ~dir =
  Journal.mkdir_p dir;
  let path = Filename.concat dir file_name in
  let t =
    { path;
      oc = None;
      table = Hashtbl.create 1024;
      next_seq = 0;
      loaded_records = 0;
      appended_records = 0;
      truncated_records = 0;
      buf = Buffer.create 256;
      lock = Mutex.create () }
  in
  let existing =
    if Sys.file_exists path then
      match read_lines path with
      | first :: rest when String.equal first magic -> Some rest
      | _ -> None
    else None
  in
  (match existing with
   | Some record_lines ->
     let rec replay kept = function
       | [] -> (List.rev kept, 0)
       | line :: rest ->
         (match parse_line line with
          | Some (seq, key, value) when seq = t.next_seq ->
            Hashtbl.replace t.table key value;
            t.next_seq <- t.next_seq + 1;
            replay (line :: kept) rest
          | _ -> (List.rev kept, 1 + List.length rest))
     in
     let kept, dropped = replay [] record_lines in
     t.loaded_records <- t.next_seq;
     t.truncated_records <- dropped;
     count ~by:t.loaded_records c_loaded;
     if dropped > 0 then begin
       count ~by:dropped c_truncated;
       Journal.write_file_atomic ~path
         (String.concat "\n" (magic :: kept) ^ "\n")
     end;
     t.oc <-
       Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)
   | None ->
     (* fresh start (or unreadable header): a torn header reads as foreign
        on the next open and the file starts over, losing nothing *)
     let oc =
       open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
         0o644 path
     in
     output_string oc magic;
     output_char oc '\n';
     flush oc;
     t.oc <- Some oc);
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key = locked t (fun () -> Hashtbl.find_opt t.table key)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

(* Record one observation durably (flushed before returning). Idempotent:
   a key already in the store is never re-appended — the file stays
   append-only and duplicate-free even when shared across many runs. *)
let add t ~key value =
  check_key key;
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        match t.oc with
        | None -> invalid_arg "Memo_store: already closed"
        | Some oc ->
          let buf = t.buf in
          Buffer.clear buf;
          Buffer.add_string buf "o|";
          Buffer.add_string buf (string_of_int t.next_seq);
          Buffer.add_char buf '|';
          Buffer.add_string buf key;
          Buffer.add_char buf '|';
          Buffer.add_string buf (escape value);
          let sum = checksum (Buffer.contents buf) in
          Buffer.add_char buf '|';
          Buffer.add_string buf sum;
          Buffer.add_char buf '\n';
          Buffer.output_buffer oc buf;
          flush oc;
          Hashtbl.replace t.table key value;
          t.next_seq <- t.next_seq + 1;
          t.appended_records <- t.appended_records + 1;
          count c_appended
      end)

let size t = locked t (fun () -> Hashtbl.length t.table)

let loaded t = locked t (fun () -> t.loaded_records)

let appended t = locked t (fun () -> t.appended_records)

let truncated t = locked t (fun () -> t.truncated_records)

let path t = t.path

let close t =
  locked t (fun () ->
      match t.oc with
      | Some oc ->
        flush oc;
        close_out oc;
        t.oc <- None
      | None -> ())
