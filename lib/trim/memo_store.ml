(* Persistent on-disk oracle memo: one {!Durable_log} per store directory
   holding content-addressed oracle observations:

     ltrim-memo/1
     o|<seq>|<key>|<escaped canonical output>|<md5>

   Keys are {!Oracle.test_key} digests, so entries are revision-safe by
   construction and the header carries no run digest: one store is shared
   across applications, revisions and process restarts.

   Canonical outputs are arbitrary interpreter text (newlines and '|'
   included), so values travel escaped: '\\' -> "\\\\", '\n' -> "\\n",
   '\r' -> "\\r", '|' -> "\\p". The escaping is injective, so a sealed
   record decodes to exactly the stored observation or not at all.

   Metrics (Obs.Metrics.global): oracle.memo_store.loaded (records replayed
   at open), oracle.memo_store.appended, oracle.memo_store.truncated
   (invalid-suffix lines dropped at open). Store *hits* are counted by the
   in-memory {!Oracle.Cache} sitting on top (oracle.memo.store_hits). *)

let magic = "ltrim-memo/1"

let file_name = "observations.memo"

let c_loaded = Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.loaded"
let c_appended =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.appended"
let c_truncated =
  Obs.Metrics.counter Obs.Metrics.global "oracle.memo_store.truncated"

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
    else if s.[i] <> '\\' then (Buffer.add_char b s.[i]; go (i + 1))
    else
      match if i + 1 < n then s.[i + 1] else ' ' with
      | '\\' -> Buffer.add_char b '\\'; go (i + 2)
      | 'n' -> Buffer.add_char b '\n'; go (i + 2)
      | 'r' -> Buffer.add_char b '\r'; go (i + 2)
      | 'p' -> Buffer.add_char b '|'; go (i + 2)
      | _ -> None
  in
  go 0

(* --- the store ------------------------------------------------------------ *)

type t = {
  log : Durable_log.t;
  table : (string, string) Hashtbl.t;
  loaded_records : int;
  mutable appended_records : int;
  lock : Mutex.t;   (* also guards the global counters *)
}

(* Open (or create) the store under [dir]. An existing file is always
   replayed: the valid record prefix fills the table; a foreign or torn
   header starts the file over. *)
let open_ ~dir =
  let table = Hashtbl.create 1024 in
  let log =
    Durable_log.open_ ~path:(Filename.concat dir file_name) ~header:magic
      ~invalid:"Memo_store: keys must not contain '|' or newlines" ()
      ~replay:(fun kind fields ->
          match (kind, fields) with
          | "o", [ key; value ] ->
            (match unescape value with
             | Some v ->
               Hashtbl.replace table key v;
               true
             | None -> false)
          | _ -> false)
  in
  let t =
    { log; table; loaded_records = Durable_log.records log;
      appended_records = 0; lock = Mutex.create () }
  in
  Obs.Metrics.incr ~by:t.loaded_records c_loaded;
  Obs.Metrics.incr ~by:(Durable_log.truncated log) c_truncated;
  t

let locked t f = Mutex.protect t.lock f

let find t key = locked t (fun () -> Hashtbl.find_opt t.table key)

(* Record one observation durably (flushed before returning). Idempotent:
   a key already in the store is never re-appended — the file stays
   append-only and duplicate-free even when shared across many runs. *)
let add t ~key value =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        Obs.Span.wall ~cat:"memo_store" ~name:"memo_store:append" (fun () ->
            Durable_log.append t.log "o" [ key; escape value ]);
        Hashtbl.replace t.table key value;
        t.appended_records <- t.appended_records + 1;
        Obs.Metrics.incr c_appended
      end)

let size t = locked t (fun () -> Hashtbl.length t.table)

let loaded t = t.loaded_records

let appended t = locked t (fun () -> t.appended_records)

let truncated t = Durable_log.truncated t.log

let path t = Durable_log.path t.log

let close t = locked t (fun () -> Durable_log.close t.log)
