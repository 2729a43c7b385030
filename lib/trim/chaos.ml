(* Fault injection for the *pipeline itself* (the fleet simulator has its
   own fault plans in Faults): a simulated crash after the N-th durable
   journal record, and journal-record corruption for the recovery tests. *)

exception Killed of { killed_after : int }
(* simulated crash: raised after the [killed_after]-th journal record was
   already durable on disk *)

let () =
  Printexc.register_printer (function
    | Killed { killed_after } ->
      Some
        (Printf.sprintf "Trim.Chaos.Killed(after %d journal records)"
           killed_after)
    | _ -> None)

(* --- kill-after-record-N -------------------------------------------------

   Process-wide on purpose: the CLI arms it from the environment before any
   pipeline work, and the journal (the only writer of durable records)
   reports each append from whatever thread orchestrates the DD search. The
   counter is mutex-guarded because apps fanned out on the pool journal
   concurrently. *)

let kill_lock = Mutex.create ()
let kill_remaining : int option ref = ref None
let kill_recorded = ref 0

let arm_kill_after n =
  if n < 1 then invalid_arg "Chaos.arm_kill_after: n must be >= 1";
  Mutex.protect kill_lock (fun () ->
      kill_remaining := Some n;
      kill_recorded := 0)

let disarm () =
  Mutex.protect kill_lock (fun () ->
      kill_remaining := None;
      kill_recorded := 0)

let armed () = Mutex.protect kill_lock (fun () -> !kill_remaining)

(* Called by the journal after each record is flushed. The record that
   exhausts the budget is already durable when [Killed] propagates — the
   crash model is "power loss immediately after a successful write". *)
let note_journal_append () =
  Mutex.lock kill_lock;
  let verdict =
    match !kill_remaining with
    | None -> None
    | Some n ->
      incr kill_recorded;
      if n <= 1 then begin
        kill_remaining := None;
        Some !kill_recorded
      end
      else begin
        kill_remaining := Some (n - 1);
        None
      end
  in
  Mutex.unlock kill_lock;
  match verdict with
  | Some recorded -> raise (Killed { killed_after = recorded })
  | None -> ()

(* LTRIM_CHAOS_KILL_AFTER=N arms the simulated crash after N records; the
   CLI calls this before any pipeline work. An empty value counts as unset:
   OCaml cannot unsetenv, so a caller restoring an unset variable sets it
   to "". *)
let arm_from_env () =
  match Option.map String.trim (Sys.getenv_opt "LTRIM_CHAOS_KILL_AFTER") with
  | None | Some "" -> ()
  | Some s ->
    (match int_of_string_opt s with
     | Some n when n >= 1 -> arm_kill_after n
     | _ ->
       invalid_arg
         (Printf.sprintf "LTRIM_CHAOS_KILL_AFTER: expected int >= 1, got %S" s))

(* --- journal corruption --------------------------------------------------- *)

(* Overwrite the body of the last non-empty line with 'X's (in place, same
   length): a checksum-invalid record the journal must drop on replay. *)
let corrupt_last_record path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  (* skip every trailing newline: a blank last line is not a record *)
  let rec last_byte i =
    if i >= 0 && contents.[i] = '\n' then last_byte (i - 1) else i
  in
  let stop = last_byte (String.length contents - 1) in
  if stop < 0 then false
  else begin
    let start =
      match String.rindex_from_opt contents stop '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    let b = Bytes.of_string contents in
    for i = start to stop do
      Bytes.set b i 'X'
    done;
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc;
    true
  end

