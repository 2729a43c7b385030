(* Durable DD decision journal.

   One {!Durable_log} per module search. The header binds the file to a run
   digest (base image digest + module + candidate list + engine tag), so a
   stale journal from a different revision or options is discarded
   instead of replayed. The records are

     o|<seq>|<subset key>|<T or F>|<md5>        (one oracle verdict)
     k|<seq>|<final keep-set key>|<md5>         (completion mark)

   each flushed before control returns to DD. A resumed DD run answers its
   queries from the replay table in place of the oracle, reproducing the
   uninterrupted run's keep-set and counters bit for bit. After each flush
   the chaos harness is notified, which is how the simulated
   kill-after-record-N lands exactly on a durable boundary. *)

let magic = "ltrim-journal/1"

(* Aliases of {!Durable_log}'s file helpers, kept for e2ebench/ and
   bench/, which read them here. *)
let mkdir_p = Durable_log.mkdir_p
let write_file_atomic = Durable_log.write_file_atomic

(* Global registry counters; guarded by a module-level mutex because apps
   fanned out on the pool journal concurrently and counters are plain
   mutable ints. *)
let counters_lock = Mutex.create ()
let c_appended = Obs.Metrics.counter Obs.Metrics.global "trim.journal.appended"
let c_replayed = Obs.Metrics.counter Obs.Metrics.global "trim.journal.replayed"
let c_truncated = Obs.Metrics.counter Obs.Metrics.global "trim.journal.truncated"

let count ?by c =
  Mutex.lock counters_lock;
  Obs.Metrics.incr ?by c;
  Mutex.unlock counters_lock

type t = {
  log : Durable_log.t;
  replay : (string, bool) Hashtbl.t;
  mutable keepset : string option;    (* completion mark, when present *)
  mutable replayed_served : int;      (* replay-table answers handed out *)
  lock : Mutex.t;
}

(* Open (or create) the journal at [path] for a search identified by
   [run_digest]. With [resume] an existing compatible file is replayed into
   the table; without it, or when the header does not match this run, the
   file starts fresh. *)
let open_ ?(resume = false) ~path ~run_digest () =
  let replay = Hashtbl.create 256 and keepset = ref None in
  let log =
    (* DD keys are index lists ("3,7,19"), so the message never fires in
       practice *)
    Durable_log.open_ ~fresh:(not resume) ~path
      ~header:(magic ^ "|" ^ run_digest)
      ~invalid:"Journal: record keys must not contain '|' or newlines" ()
      ~replay:(fun kind fields ->
          match (kind, fields) with
          | "o", [ key; ("T" | "F" as v) ] ->
            Hashtbl.replace replay key (String.equal v "T");
            true
          | "k", [ keys ] ->
            keepset := Some keys;
            true
          | _ -> false)
  in
  count ~by:(Durable_log.truncated log) c_truncated;
  { log; replay; keepset = !keepset; replayed_served = 0;
    lock = Mutex.create () }

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

(* Called with [t.lock] held; the flush is the durability boundary. *)
let append_record t kind fields =
  Durable_log.append t.log kind fields;
  count c_appended;
  (* the record is durable; a chaos kill lands exactly here *)
  Chaos.note_journal_append ()

(* Record one oracle verdict. Durable (flushed) before returning. *)
let append t ~key verdict =
  locked t (fun () ->
      append_record t "o" [ key; (if verdict then "T" else "F") ])

(* Record the final keep-set — the completion mark. Idempotent on resume:
   a replayed identical mark is not re-appended. *)
let append_keepset t keys =
  locked t (fun () ->
      match t.keepset with
      | Some k when String.equal k keys -> ()
      | _ ->
        append_record t "k" [ keys ];
        t.keepset <- Some keys)

let final_keepset t = locked t (fun () -> t.keepset)

let replayed t = locked t (fun () -> t.replayed_served)

let truncated t = Durable_log.truncated t.log

let records t = locked t (fun () -> Durable_log.records t.log)

let close t = locked t (fun () -> Durable_log.close t.log)

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
