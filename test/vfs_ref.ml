(* Reference for the per-layer whole-image memos of [Minipy.Vfs]: the
   effective-view code every size, listing and digest call used to run,
   merging the whole overlay chain into a fresh table, root first, on each
   call. It models a layer chain of its own, so a property can apply the
   same edits to both and compare every answer. *)

type t = {
  parent : t option;
  files : (string, string) Hashtbl.t;
  phantoms : (string, int) Hashtbl.t;
}

let create () =
  { parent = None; files = Hashtbl.create 16; phantoms = Hashtbl.create 4 }

let overlay base =
  { parent = Some base; files = Hashtbl.create 8; phantoms = Hashtbl.create 2 }

let add_file t path content = Hashtbl.replace t.files path content

let add_phantom t path ~bytes = Hashtbl.replace t.phantoms path bytes

let layers t =
  let rec go acc t =
    let acc = t :: acc in
    match t.parent with None -> acc | Some p -> go acc p
  in
  go [] t

let effective_files t : (string, string) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun layer ->
       Hashtbl.iter (Hashtbl.replace tbl) layer.files)
    (layers t);
  tbl

let effective_phantoms t : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun layer -> Hashtbl.iter (Hashtbl.replace tbl) layer.phantoms)
    (layers t);
  tbl

let paths t =
  Hashtbl.fold (fun p _ acc -> p :: acc) (effective_files t) []
  |> List.sort compare


let image_bytes t =
  Hashtbl.fold (fun _ c acc -> acc + String.length c + 512)
    (effective_files t) 0
  + Hashtbl.fold (fun _ b acc -> acc + b) (effective_phantoms t) 0

let files_under t prefix =
  let prefix = if String.length prefix > 0 then prefix ^ "/" else prefix in
  List.filter (fun p -> String.length p >= String.length prefix
                        && String.sub p 0 (String.length prefix) = prefix)
    (paths t)

let image_digest t =
  let files = effective_files t in
  let file_paths =
    Hashtbl.fold (fun p _ acc -> p :: acc) files [] |> List.sort compare
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun p ->
       Buffer.add_string b p;
       Buffer.add_char b '\x00';
       Buffer.add_string b
         (Digest.to_hex (Digest.string (Hashtbl.find files p)));
       Buffer.add_char b '\x01')
    file_paths;
  let phantom_entries =
    Hashtbl.fold (fun p bytes acc -> (p, bytes) :: acc) (effective_phantoms t) []
    |> List.sort compare
  in
  List.iter
    (fun (p, bytes) ->
       Buffer.add_char b '\x02';
       Buffer.add_string b p;
       Buffer.add_string b (string_of_int bytes))
    phantom_entries;
  Digest.to_hex (Digest.string (Buffer.contents b))
