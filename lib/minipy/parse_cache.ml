(* Content-addressed parse cache.

   Every fresh interpreter (the oracle spawns one per test case, §7) used to
   re-lex and re-parse every imported module from scratch. Source text is
   immutable once written into a Vfs, and ASTs are immutable values, so a
   global digest-keyed store can hand the same Ast.program to every
   interpreter that imports the same bytes.

   Keys combine the file name with the content digest: locations inside an
   AST embed the file name, so two identical sources under different paths
   must not share a parse. Virtual measurements are unaffected by hits —
   the interpreter charges its fixed import-resolve cost independently of
   how the AST was obtained, and parsing itself never touches the virtual
   clock or the byte ledger.

   The store is thread-safe by construction (a mutex guards every table
   access; parsing runs outside the lock). Parse failures are never cached:
   the exception propagates and a retry re-parses. *)

(* Hit/miss counts live in an Obs.Metrics registry rather than in private
   mutable fields, so one aggregation point serves both the cache-stats CLI
   line and the trace exporters. Private caches default to a fresh registry
   (names must be unique per registry); the global cache registers in
   Obs.Metrics.global. *)
type t = {
  store : (string, Ast.program) Hashtbl.t;
  lock : Mutex.t;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  mutable enabled : bool;
}

let make ~registry ~prefix ~enabled =
  { store = Hashtbl.create 256;
    lock = Mutex.create ();
    c_hits = Obs.Metrics.counter registry (prefix ^ ".hits");
    c_misses = Obs.Metrics.counter registry (prefix ^ ".misses");
    enabled }

let create ?(enabled = true) ?registry ?(prefix = "minipy.parse_cache") () =
  let registry =
    match registry with Some r -> r | None -> Obs.Metrics.create ()
  in
  make ~registry ~prefix ~enabled

(* The default store shared by every interpreter that is not handed an
   explicit cache. *)
let global =
  make ~registry:Obs.Metrics.global ~prefix:"minipy.parse_cache" ~enabled:true

let set_enabled t flag = t.enabled <- flag

let enabled t = t.enabled

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let hits t = locked t (fun () -> Obs.Metrics.value t.c_hits)

let misses t = locked t (fun () -> Obs.Metrics.value t.c_misses)

let size t = locked t (fun () -> Hashtbl.length t.store)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.store;
      Obs.Metrics.incr ~by:(-Obs.Metrics.value t.c_hits) t.c_hits;
      Obs.Metrics.incr ~by:(-Obs.Metrics.value t.c_misses) t.c_misses)

(* Look up [key]; on a miss run [parse ()] outside the lock and store the
   result. Concurrent misses on the same key parse twice and converge — the
   ASTs are equal, and last-write-wins is harmless for an immutable value. *)
let find_or_parse t key parse =
  if not t.enabled then parse ()
  else
    let cached =
      locked t (fun () ->
          match Hashtbl.find_opt t.store key with
          | Some prog ->
            Obs.Metrics.incr t.c_hits;
            Some prog
          | None ->
            Obs.Metrics.incr t.c_misses;
            None)
    in
    match cached with
    | Some prog -> prog
    | None ->
      let prog = parse () in
      locked t (fun () -> Hashtbl.replace t.store key prog);
      prog

let key ~file digest = file ^ ":" ^ digest

let parse ?(cache = global) ~file source =
  find_or_parse cache
    (key ~file (Digest.to_hex (Digest.string source)))
    (fun () -> Parser.parse ~file source)

(* Parse a vfs-backed file: the content digest comes from the vfs's own memo,
   so repeated imports of an unchanged file cost two hashtable lookups. *)
let parse_vfs ?(cache = global) vfs path =
  if not cache.enabled then Parser.parse ~file:path (Vfs.read_exn vfs path)
  else
    match Vfs.file_digest vfs path with
    | None ->
      invalid_arg (Printf.sprintf "Parse_cache.parse_vfs: no such file %S" path)
    | Some digest ->
      find_or_parse cache (key ~file:path digest)
        (fun () -> Parser.parse ~file:path (Vfs.read_exn vfs path))
