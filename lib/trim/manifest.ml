(* Run manifest: the durable record of one debloat pipeline run that makes
   the next run incremental.

   A manifest binds the run configuration (app, engine, optimizer variant,
   scoring, k) to the ranked module list and, per module, the reachable-image
   search digest ({!Debloater.module_search_digest}), the removed attrs (the
   keep-set's complement), and the search's counters. `ltrim debloat
   --baseline MANIFEST` replays the recorded result for every module whose
   digest is unchanged and warm-starts DD for the rest.

   Format — one {!Durable_log} sealed record per line:

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

let seal =
  Durable_log.seal ~invalid:"Manifest: fields must not contain '|' or newlines"

let render_module (e : module_entry) =
  seal
    [ "m"; e.me_module; e.me_file; e.me_digest;
      String.concat "+" e.me_removed; string_of_int e.me_queries;
      string_of_int e.me_cache_hits; string_of_int e.me_iterations ]

let render m =
  String.concat "\n"
    (magic
     :: seal
       [ "a"; m.mf_app; m.mf_backend; m.mf_variant; m.mf_scoring;
         string_of_int m.mf_k; m.mf_input_digest; m.mf_output_digest ]
     :: seal [ "r"; String.concat "," m.mf_ranked ]
     :: List.map render_module m.mf_modules)
  ^ "\n"

(* --- strict parsing ------------------------------------------------------- *)

let split_list ~on = function
  | "" -> []
  | s -> String.split_on_char on s

let ( let* ) = Option.bind

let parse_module line =
  match Durable_log.unseal line with
  | Some [ "m"; me_module; me_file; me_digest; removed; q; ch; it ] ->
    let* me_queries = int_of_string_opt q in
    let* me_cache_hits = int_of_string_opt ch in
    let* me_iterations = int_of_string_opt it in
    Some
      { me_module; me_file; me_digest;
        me_removed = split_list ~on:'+' removed;
        me_queries; me_cache_hits; me_iterations }
  | _ -> None

let parse text =
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' text) with
  | header :: app_line :: ranked_line :: module_lines
    when String.equal header magic ->
    (match (Durable_log.unseal app_line, Durable_log.unseal ranked_line) with
     | ( Some [ "a"; mf_app; mf_backend; mf_variant; mf_scoring; k;
                mf_input_digest; mf_output_digest ],
         Some [ "r"; mods ] ) ->
       let* mf_k = int_of_string_opt k in
       let mf_ranked = split_list ~on:',' mods in
       let mf_modules = List.filter_map parse_module module_lines in
       (* every module line parses, in ranked order *)
       if
         List.length mf_modules = List.length module_lines
         && List.equal String.equal mf_ranked
              (List.map (fun (e : module_entry) -> e.me_module) mf_modules)
       then
         Some
           { mf_app; mf_backend; mf_variant; mf_scoring; mf_k;
             mf_input_digest; mf_output_digest; mf_ranked; mf_modules }
       else None
     | _ -> None)
  | _ -> None

let save ~path m =
  Obs.Span.wall ~cat:"manifest" ~name:"manifest:save" (fun () ->
      Durable_log.write_file_atomic ~path (render m))

let load ~path =
  if Sys.file_exists path then parse (Durable_log.read_file path) else None

let find_module m name =
  List.find_opt
    (fun (e : module_entry) -> String.equal e.me_module name)
    m.mf_modules
