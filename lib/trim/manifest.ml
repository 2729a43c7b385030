(* Run manifest: the durable record of one debloat pipeline run that makes
   the next run incremental.

   A manifest binds the run configuration (app, engine, optimizer variant,
   scoring, k) to the ranked module list and, per module, the reachable-image
   search digest ({!Debloater.module_search_digest}), the removed attrs (the
   keep-set's complement), and the search's counters. `ltrim debloat
   --baseline MANIFEST` replays the recorded result for every module whose
   digest is unchanged and warm-starts DD for the rest.

   Format — line-oriented like {!Journal}, one checksummed record per line:

     ltrim-manifest/1
     a|<app>|<engine>|<variant>|<scoring>|<k>|<input digest>|<output digest>|<md5>
     r|<ranked modules, comma-joined>|<md5>
     m|<module>|<file>|<digest>|<removed attrs, +-joined>|<queries>|<cache_hits>|<iterations>|<md5>

   Parsing is strict: a foreign header, a bad checksum, a malformed record,
   or a missing section invalidates the *whole* manifest (the caller falls
   back to a cold run). Unlike the journal there is no valid-prefix replay:
   a manifest is written atomically after a completed run, so a partial file
   is not a crash to recover from but a corruption to reject. *)

let magic = "ltrim-manifest/1"

type module_entry = {
  me_module : string;
  me_file : string;            (* "<none>" for built-in modules *)
  me_digest : string;          (* Debloater.module_search_digest at run time *)
  me_removed : string list;    (* removed attrs, source order *)
  me_queries : int;
  me_cache_hits : int;
  me_iterations : int;
}

type t = {
  mf_app : string;
  mf_backend : string;
  mf_variant : string;         (* lazy-stub configuration tag, "eager" if none *)
  mf_scoring : string;
  mf_k : int;
  mf_input_digest : string;    (* image digest before debloating *)
  mf_output_digest : string;   (* image digest of the debloated result *)
  mf_ranked : string list;     (* modules in debloat order *)
  mf_modules : module_entry list;  (* same order as mf_ranked *)
}

let checksum payload = Digest.to_hex (Digest.string payload)

let check_field what s =
  if String.exists (fun c -> c = '|' || c = '\n' || c = '\r') s then
    invalid_arg (Printf.sprintf "Manifest: %s must not contain '|' or newlines" what)

let sealed payload = payload ^ "|" ^ checksum payload

let render_app m =
  check_field "app" m.mf_app;
  check_field "backend" m.mf_backend;
  check_field "variant" m.mf_variant;
  check_field "scoring" m.mf_scoring;
  sealed
    (Printf.sprintf "a|%s|%s|%s|%s|%d|%s|%s" m.mf_app m.mf_backend m.mf_variant
       m.mf_scoring m.mf_k m.mf_input_digest m.mf_output_digest)

let render_ranked m =
  List.iter (check_field "module") m.mf_ranked;
  sealed (Printf.sprintf "r|%s" (String.concat "," m.mf_ranked))

let render_module (e : module_entry) =
  check_field "module" e.me_module;
  check_field "file" e.me_file;
  check_field "digest" e.me_digest;
  List.iter (check_field "attr") e.me_removed;
  sealed
    (Printf.sprintf "m|%s|%s|%s|%s|%d|%d|%d" e.me_module e.me_file e.me_digest
       (String.concat "+" e.me_removed) e.me_queries e.me_cache_hits
       e.me_iterations)

let render m =
  String.concat "\n"
    (magic :: render_app m :: render_ranked m
     :: List.map render_module m.mf_modules)
  ^ "\n"

(* --- strict parsing ------------------------------------------------------- *)

(* Split "<payload>|<sum>" and verify; [None] on any mismatch. *)
let unseal line =
  match String.rindex_opt line '|' with
  | None -> None
  | Some i ->
    let payload = String.sub line 0 i in
    let sum = String.sub line (i + 1) (String.length line - i - 1) in
    if String.equal (checksum payload) sum then Some payload else None

let split_list ~on = function
  | "" -> []
  | s -> String.split_on_char on s

let parse_module line =
  match Option.map (String.split_on_char '|') (unseal line) with
  | Some [ "m"; m; file; digest; removed; q; ch; it ] ->
    (match (int_of_string_opt q, int_of_string_opt ch, int_of_string_opt it) with
     | Some q, Some ch, Some it ->
       Some
         { me_module = m;
           me_file = file;
           me_digest = digest;
           me_removed = split_list ~on:'+' removed;
           me_queries = q;
           me_cache_hits = ch;
           me_iterations = it }
     | _ -> None)
  | _ -> None

let parse text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | header :: app_line :: ranked_line :: module_lines
    when String.equal header magic ->
    let app =
      match Option.map (String.split_on_char '|') (unseal app_line) with
      | Some [ "a"; app; backend; variant; scoring; k; din; dout ] ->
        Option.map
          (fun k -> (app, backend, variant, scoring, k, din, dout))
          (int_of_string_opt k)
      | _ -> None
    in
    let ranked =
      match Option.map (String.split_on_char '|') (unseal ranked_line) with
      | Some [ "r"; mods ] -> Some (split_list ~on:',' mods)
      | _ -> None
    in
    let modules =
      List.fold_left
        (fun acc line ->
           match (acc, parse_module line) with
           | Some acc, Some e -> Some (e :: acc)
           | _ -> None)
        (Some []) module_lines
    in
    (match (app, ranked, modules) with
     | ( Some (app, backend, variant, scoring, k, din, dout),
         Some ranked,
         Some rev_modules )
       when List.length ranked = List.length rev_modules ->
       let modules = List.rev rev_modules in
       if
         List.for_all2
           (fun r (e : module_entry) -> String.equal r e.me_module)
           ranked modules
       then
         Some
           { mf_app = app;
             mf_backend = backend;
             mf_variant = variant;
             mf_scoring = scoring;
             mf_k = k;
             mf_input_digest = din;
             mf_output_digest = dout;
             mf_ranked = ranked;
             mf_modules = modules }
       else None
     | _ -> None)
  | _ -> None

let save ~path m =
  Journal.mkdir_p (Filename.dirname path);
  Journal.write_file_atomic ~path (render m)

let load ~path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    parse text
  end

let find_module m name =
  List.find_opt
    (fun (e : module_entry) -> String.equal e.me_module name)
    m.mf_modules
