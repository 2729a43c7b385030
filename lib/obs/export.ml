(* Exporters: Chrome trace-event JSON (chrome://tracing / Perfetto), flat
   CSV summaries, and the wall-clock layer table.

   The JSON is hand-rolled (the substrate is dependency-free); all floats
   are printed with fixed precision so identical runs export identical
   bytes — the golden test depends on it. *)

(* --- JSON plumbing -------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Timestamps leave the substrate in ms; Chrome wants µs. Three decimals of
   a µs (ns resolution) is finer than any virtual charge in the system. *)
let us ms = Printf.sprintf "%.3f" (ms *. 1000.0)

let args_json attrs =
  match attrs with
  | [] -> "{}"
  | attrs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v))
           attrs)
    ^ "}"

let event_json (s : Span.span) =
  match s.sp_kind with
  | Span.Complete ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\
       \"ts\":%s,\"dur\":%s,\"args\":%s}"
      (escape s.sp_name) (escape s.sp_cat) s.sp_domain s.sp_track
      (us s.sp_start_ms)
      (us (Float.max 0.0 s.sp_dur_ms))
      (args_json s.sp_attrs)
  | Span.Instant ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\
       \"tid\":%d,\"ts\":%s,\"args\":%s}"
      (escape s.sp_name) (escape s.sp_cat) s.sp_domain s.sp_track
      (us s.sp_start_ms)
      (args_json s.sp_attrs)

let process_meta domain =
  Printf.sprintf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
     \"args\":{\"name\":\"%s\"}}"
    domain
    (escape (Span.domain_name domain))

let metrics_json registry =
  let rows =
    Metrics.fold registry
      (fun acc c ->
         Printf.sprintf "\"%s\":%d"
           (escape (Metrics.counter_name c))
           (Metrics.value c)
         :: acc)
      []
  in
  "{" ^ String.concat "," (List.rev rows) ^ "}"

(* The full trace document. Events are ordered by begin sequence; one
   process-name metadata record per clock domain present. *)
let chrome_json ?metrics sink =
  let spans = Span.spans sink in
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.Span.sp_domain) spans)
  in
  let events =
    List.map process_meta domains @ List.map event_json spans
  in
  let metrics_field =
    match metrics with
    | None -> ""
    | Some r -> Printf.sprintf ",\"otherData\":{\"metrics\":%s}" (metrics_json r)
  in
  Printf.sprintf
    "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ms\"%s}\n"
    (String.concat ",\n" events)
    metrics_field

(* --- flat CSV summaries --------------------------------------------------- *)

(* Per (domain, cat, name): span count and duration aggregate. [total_ms]
   counts a span's nested time again in every enclosing row; [self_ms]
   (from the lane walk) counts each instant of a lane once. *)
let summary_csv sink =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (lane : Span.lane) ->
       List.iter
         (fun { Span.n_span = s; n_self_ms; _ } ->
            let k = (s.sp_domain, s.sp_cat, s.sp_name) in
            let count, total, self, mx =
              Option.value ~default:(0, 0.0, 0.0, 0.0) (Hashtbl.find_opt tbl k)
            in
            let d = Float.max 0.0 s.sp_dur_ms in
            Hashtbl.replace tbl k
              (count + 1, total +. d, self +. n_self_ms, Float.max mx d))
         lane.l_nodes)
    (Span.walk (Span.spans sink));
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun ((domain, cat, name), (count, total, self, mx)) ->
        Printf.sprintf "%s,%s,%s,%d,%.6f,%.6f,%.6f,%.6f\n"
          (Span.domain_name domain) cat name count total
          (total /. float_of_int count)
          mx self)
  in
  "clock,cat,name,count,total_ms,mean_ms,max_ms,self_ms\n"
  ^ String.concat "" rows

(* A wall-clock span's layer: its ["layer"] attribute when it has one (an
   oracle query learns only as it ends whether it ran fresh interpreters),
   else its category. *)
let layer (s : Span.span) =
  match List.assoc_opt "layer" s.sp_attrs with Some l -> l | None -> s.sp_cat

let layers ?(known = []) sink =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (lane : Span.lane) ->
       if lane.l_domain = Span.domain_wall then
         List.iter
           (fun { Span.n_span = s; n_self_ms; _ } ->
              let l = layer s in
              Hashtbl.replace tbl l
                (n_self_ms
                 +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
           lane.l_nodes)
    (Span.walk (Span.spans sink));
  if Hashtbl.length tbl = 0 then []
  else
    let known = if List.exists (Hashtbl.mem tbl) known then known else [] in
    let row l = (l, Option.value ~default:0.0 (Hashtbl.find_opt tbl l)) in
    let others =
      Hashtbl.fold
        (fun l ms acc -> if List.mem l known then acc else (l, ms) :: acc)
        tbl []
      |> List.sort (fun (la, a) (lb, b) ->
          match Float.compare b a with 0 -> compare la lb | c -> c)
    in
    List.map row known @ others

let layer_table ?known sink =
  match layers ?known sink with
  | [] -> ""
  | rows ->
    let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 rows in
    let line (l, ms) =
      Printf.sprintf "  %-18s %12.3f ms %6.1f%%\n" l ms
        (if total > 0.0 then 100.0 *. ms /. total else 0.0)
    in
    "wall-clock self time by layer:\n"
    ^ String.concat "" (List.map line rows)
    ^ Printf.sprintf "  %-18s %12.3f ms\n" "total" total

(* Write-temp-then-rename in the destination directory: a crash mid-write
   never leaves a torn file on disk. Trim's durable files are written
   through this one function too. *)
let to_file ~path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".ltrim" ".tmp" in
  (try
     let oc = open_out_bin tmp in
     try
       output_string oc contents;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
