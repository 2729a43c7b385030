(* In-memory virtual filesystem holding a serverless application image:
   the handler file plus a site-packages tree of library sources.

   Paths are '/'-separated, relative, e.g. "site-packages/torch/__init__.py".
   The debloater overlays the vfs, rewrites files, and re-runs the app, which
   mirrors λ-trim's manipulation of the real site-packages directory (§7).

   Two representations share one type:

   - a *root* image ([parent = None]) owns every file;
   - an *overlay* ([parent = Some base]) is a copy-on-write view: reads fall
     through to the base, writes land in the overlay's own delta table.
     Building a DD candidate is therefore O(rewritten files) instead of
     O(image files). A base must not be mutated while overlays of it are
     alive — the debloater and baselines obey this by constructing images
     fully before the first overlay is taken.

   Every file content has a content digest, memoized per owning layer and
   invalidated by rewrites; [image_digest] combines them into a single
   content address for the whole image, which the oracle memo and the parse
   cache use as keys. Each layer also memoizes its whole-image views (the
   sorted (path, digest) list, the image size and the image digest), derived
   from its parent's memos plus its own delta, so probing a DD candidate
   costs O(image paths) once instead of a walk of the whole chain per call. *)

(* The effective image as one layer sees it: every source path in sorted
   order with its content digest, and every phantom sorted by path. *)
type view = {
  v_paths : string array;
  v_digests : string array;
  v_phantoms : (string * int) list;
}

type t = {
  parent : t option;
  files : (string, string) Hashtbl.t;  (* path -> source text *)
  (* phantom entries: binary payloads (shared objects, model weights)
     represented by size only — they contribute to the image footprint but
     are never read as source *)
  phantoms : (string, int) Hashtbl.t;
  (* path -> hex content digest, for entries owned by THIS layer only; a
     lookup that falls through to the parent also shares the parent's memo *)
  digests : (string, string) Hashtbl.t;
  (* whole-image memos of this layer, dropped by any mutation of it *)
  mutable view : view option;
  mutable bytes : int option;
  mutable digest : string option;
  (* The memos are written lazily on reads, and parallel DD evaluates
     candidate overlays that share one base layer from several domains at
     once — so the memos alone are mutex-guarded. The other tables need no
     lock because of the structural invariant (see overlay): a layer's
     [files]/[phantoms] are only mutated before any overlay of it exists,
     after which all access is read-only. *)
  lock : Mutex.t;
}

let make parent ~size =
  { parent;
    files = Hashtbl.create size;
    phantoms = Hashtbl.create 4;
    digests = Hashtbl.create size;
    view = None;
    bytes = None;
    digest = None;
    lock = Mutex.create () }

let create () = make None ~size:64

let overlay base = make (Some base) ~size:8

(* A mutation of [t] (of [path], if any): drop what it invalidates. *)
let invalidate t path =
  Mutex.protect t.lock (fun () ->
      Option.iter (Hashtbl.remove t.digests) path;
      t.view <- None;
      t.bytes <- None;
      t.digest <- None)

let add_file t path content =
  Hashtbl.replace t.files path content;
  invalidate t (Some path)

let add_phantom t path ~bytes =
  Hashtbl.replace t.phantoms path bytes;
  invalidate t None

let rec read t path =
  match Hashtbl.find_opt t.files path with
  | Some c -> Some c
  | None ->
    (match t.parent with Some p -> read p path | None -> None)

let read_exn t path =
  match read t path with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Vfs.read_exn: no such file %S" path)

let exists t path = read t path <> None

(* --- content addressing -------------------------------------------------- *)

let rec file_digest t path =
  match Hashtbl.find_opt t.files path with
  | Some c ->
    (match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.digests path) with
     | Some d -> Some d
     | None ->
       (* hash outside the lock; a racing duplicate computes the same value *)
       let d = Digest.to_hex (Digest.string c) in
       Mutex.protect t.lock (fun () -> Hashtbl.replace t.digests path d);
       Some d)
  | None ->
    (match t.parent with Some p -> file_digest p path | None -> None)

(* A whole-image memo of [t]: [compute]d outside the lock on first use (a
   racing duplicate computes the same value) and published under it. *)
let memoized t get set compute =
  match Mutex.protect t.lock (fun () -> get t) with
  | Some v -> v
  | None ->
    let v = compute t in
    Mutex.protect t.lock (fun () -> set t (Some v));
    v

let empty_view = { v_paths = [||]; v_digests = [||]; v_phantoms = [] }

(* The parent's view merged with this layer's delta: each of its files
   replaces or adds its path. One pass over the parent's sorted
   arrays, so an overlay costs O(image paths) however deep its chain. *)
let rec view t =
  memoized t (fun t -> t.view) (fun t v -> t.view <- v) @@ fun t ->
  let base = match t.parent with Some p -> view p | None -> empty_view in
  let delta =
    Hashtbl.fold (fun p _ acc -> p :: acc) t.files []
    |> List.sort String.compare
  in
  let n = Array.length base.v_paths in
  let size = n + List.length delta in
  let paths = Array.make size "" and digests = Array.make size "" in
  let i = ref 0 and k = ref 0 in
  let push p d =
    paths.(!k) <- p;
    digests.(!k) <- d;
    incr k
  in
  (* copy the parent's entries sorting before [p] (all when [None]) *)
  let copy_below p =
    while
      !i < n
      && (match p with
          | Some p -> String.compare base.v_paths.(!i) p < 0
          | None -> true)
    do
      push base.v_paths.(!i) base.v_digests.(!i);
      incr i
    done
  in
  List.iter
    (fun p ->
       copy_below (Some p);
       if !i < n && String.equal base.v_paths.(!i) p then incr i;
       push p (Option.get (file_digest t p)))
    delta;
  copy_below None;
  let own =
    Hashtbl.fold (fun p b acc -> (p, b) :: acc) t.phantoms []
    |> List.sort compare
  in
  { v_paths = Array.sub paths 0 !k;
    v_digests = Array.sub digests 0 !k;
    v_phantoms =
      (if own = [] then base.v_phantoms
       else
         List.merge compare own
           (List.filter
              (fun (p, _) -> not (Hashtbl.mem t.phantoms p))
              base.v_phantoms)) }

(* Content address of the effective image: every (path, file digest) pair
   in path order, then every phantom entry. *)
let image_digest t =
  memoized t (fun t -> t.digest) (fun t d -> t.digest <- d) @@ fun t ->
  let v = view t in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i p ->
       Buffer.add_string b p;
       Buffer.add_char b '\x00';
       Buffer.add_string b v.v_digests.(i);
       Buffer.add_char b '\x01')
    v.v_paths;
  List.iter
    (fun (p, bytes) ->
       Buffer.add_char b '\x02';
       Buffer.add_string b p;
       Buffer.add_string b (string_of_int bytes))
    v.v_phantoms;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- effective views ------------------------------------------------------ *)

(* A deep copy sharing no mutable state: overlay chains are flattened into a
   fresh root image, which starts with the file digests already known. *)
let copy t =
  let v = view t in
  let t' = create () in
  Array.iteri
    (fun i p ->
       Hashtbl.replace t'.files p (read_exn t p);
       Hashtbl.replace t'.digests p v.v_digests.(i))
    v.v_paths;
  List.iter (fun (p, b) -> Hashtbl.replace t'.phantoms p b) v.v_phantoms;
  t'

let paths t = Array.to_list (view t).v_paths

let rec phantom_bytes t path =
  match Hashtbl.find_opt t.phantoms path with
  | Some b -> Some b
  | None -> Option.bind t.parent (fun p -> phantom_bytes p path)

(* One source file's share of the image: its bytes plus a per-file
   packaging overhead standing in for bytecode caches and package
   metadata. *)
let file_bytes c = String.length c + 512

(* Total image size in bytes: the parent's total, less what this layer's
   delta shadows, plus what it adds. *)
let rec image_bytes t =
  memoized t (fun t -> t.bytes) (fun t b -> t.bytes <- b) @@ fun t ->
  let base, shadowed_file, shadowed_phantom =
    match t.parent with
    | None -> (0, (fun _ -> 0), fun _ -> 0)
    | Some p ->
      ( image_bytes p,
        (fun path -> Option.fold ~none:0 ~some:file_bytes (read p path)),
        fun path -> Option.value ~default:0 (phantom_bytes p path) )
  in
  let with_files =
    Hashtbl.fold
      (fun path c acc -> acc - shadowed_file path + file_bytes c)
      t.files base
  in
  Hashtbl.fold
    (fun path b acc -> acc - shadowed_phantom path + b)
    t.phantoms with_files

let image_mb t = float_of_int (image_bytes t) /. (1024.0 *. 1024.0)

(* Paths under a directory prefix, e.g. files_under t "site-packages/torch":
   a contiguous run of the sorted view, starting at the first path not
   below the prefix. *)
let files_under t prefix =
  let prefix = if String.length prefix > 0 then prefix ^ "/" else prefix in
  let v = (view t).v_paths in
  let n = Array.length v in
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare v.(mid) prefix < 0 then first (mid + 1) hi
      else first lo mid
  in
  let rec take i =
    if i < n && String.starts_with ~prefix v.(i) then v.(i) :: take (i + 1)
    else []
  in
  take (first 0 n)
