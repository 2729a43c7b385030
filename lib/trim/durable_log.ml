(* One sealed-record format and one append-only log under the DD journal,
   the oracle memo store and the run manifest. See durable_log.mli for the
   format, the crash model and the lock. *)

exception Locked of string

(* --- files ---------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Durable_log.mkdir_p: %s exists and is not a directory"
         dir)

let write_file_atomic ~path contents =
  mkdir_p (Filename.dirname path);
  Obs.Export.to_file ~path contents

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* --- sealed records ------------------------------------------------------- *)

let check ~invalid field =
  if String.exists (fun c -> c = '|' || c = '\n' || c = '\r') field then
    invalid_arg invalid

let checksum payload = Digest.to_hex (Digest.string payload)

let seal ~invalid fields =
  List.iter (check ~invalid) fields;
  let payload = String.concat "|" fields in
  payload ^ "|" ^ checksum payload

let unseal line =
  match String.rindex_opt line '|' with
  | None -> None
  | Some i ->
    let sum = String.sub line (i + 1) (String.length line - i - 1) in
    if String.equal (Digest.to_hex (Digest.substring line 0 i)) sum then
      Some (String.split_on_char '|' (String.sub line 0 i))
    else None

(* --- append-only logs ----------------------------------------------------- *)

type t = {
  path : string;
  invalid : string;                 (* message for a reserved byte *)
  mutable oc : out_channel option;  (* on the locked descriptor *)
  mutable next_seq : int;
  truncated : int;
  buf : Buffer.t;                   (* record scratch, reused per append *)
}

(* [input_line] straight from [fd]: a channel on [fd] could not be closed
   without closing [fd] and dropping the lock, and an unclosed one holds
   its buffer until a major collection. *)
let line_reader fd =
  let chunk = Bytes.create 4096 and line = Buffer.create 256 in
  let pos = ref 0 and len = ref 0 in
  let rec next () =
    if !pos = !len then (pos := 0; len := Unix.read fd chunk 0 4096);
    if !len = 0 then
      if Buffer.length line = 0 then raise End_of_file
      else Buffer.contents line
    else begin
      let stop =
        match Bytes.index_from_opt chunk !pos '\n' with
        | Some i when i < !len -> i
        | _ -> !len
      in
      Buffer.add_subbytes line chunk !pos (stop - !pos);
      pos := min (stop + 1) !len;
      if stop < !len then Buffer.contents line else next ()
    end
  in
  fun () ->
    Buffer.clear line;
    next ()

(* Stream the records after the header through [replay] while they are
   sealed, carry the next sequence number and pass [replay]. Returns the
   prefix length in records and in bytes (counting a newline after every
   kept line, even a last one that lacks it) and the lines dropped after
   it. *)
let replay_prefix input_line ~header_bytes ~replay =
  let rec kept seq bytes =
    match input_line () with
    | exception End_of_file -> (seq, bytes, 0)
    | line ->
      let valid =
        match unseal line with
        | Some (kind :: s :: fields) ->
          int_of_string_opt s = Some seq && replay kind fields
        | _ -> false
      in
      if valid then kept (seq + 1) (bytes + String.length line + 1)
      else (seq, bytes, dropped 1)
  and dropped n =
    match input_line () with
    | exception End_of_file -> n
    | _ -> dropped (n + 1)
  in
  kept 0 header_bytes

let open_ ?(fresh = false) ~path ~header ~invalid ~replay () =
  mkdir_p (Filename.dirname path);
  let fd =
    Unix.openfile path [ O_RDWR; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
  in
  try
    Unix.lockf fd F_TLOCK 0;
    let size = (Unix.fstat fd).st_size in
    let next_seq, bytes, truncated =
      if fresh || size = 0 then (0, 0, 0)
      else begin
        let input_line = line_reader fd in
        match input_line () with
        | first when String.equal first header ->
          replay_prefix input_line ~header_bytes:(String.length header + 1)
            ~replay
        | _ -> (0, 0, 0)
        | exception End_of_file -> (0, 0, 0)
      end
    in
    (* Repair in place, so the locked inode stays the log's: cut the file
       after the valid prefix, and end its last line if that lacked a
       newline. A crash between the two steps leaves the same prefix. *)
    Unix.ftruncate fd (min bytes size);
    let oc = Unix.out_channel_of_descr fd in
    set_binary_mode_out oc true;
    if bytes = 0 then output_string oc (header ^ "\n")
    else if bytes > size then output_char oc '\n';
    flush oc;
    { path; invalid; oc = Some oc; next_seq; truncated;
      buf = Buffer.create 256 }
  with e ->
    Unix.close fd;
    (match e with
     | Unix.Unix_error ((EAGAIN | EACCES), "lockf", _) -> raise (Locked path)
     | e -> raise e)

let append t kind fields =
  match t.oc with
  | None -> invalid_arg ("Durable_log.append: " ^ t.path ^ " is closed")
  | Some oc ->
    let buf = t.buf in
    Buffer.clear buf;
    Buffer.add_string buf kind;
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int t.next_seq);
    List.iter
      (fun f ->
         check ~invalid:t.invalid f;
         Buffer.add_char buf '|';
         Buffer.add_string buf f)
      fields;
    let sum = checksum (Buffer.contents buf) in
    Buffer.add_char buf '|';
    Buffer.add_string buf sum;
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf;
    flush oc;
    t.next_seq <- t.next_seq + 1

let records t = t.next_seq
let truncated t = t.truncated

let close t =
  match t.oc with
  | Some oc ->
    t.oc <- None;
    close_out oc
  | None -> ()
