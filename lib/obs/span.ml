(* Span tracing on explicit timelines.

   Every [begin_]/[end_]/[instant] takes an explicit timestamp, so each
   layer records against its natural timeline — the interpreter's virtual
   clock, the fleet simulator's event time, or host wall-clock for the
   debloating pipeline (which has no virtual timeline of its own; [wall]
   reads [wall_ms] for it). Timelines that cannot be compared live in
   separate *domains* (exported as Chrome trace pids); within a domain,
   spans are laid out on *tracks* (tids) and must be well-nested per track.

   The null sink makes disabled tracing measurement-neutral by construction:
   [begin_] returns the preallocated [none] handle, [wall] calls its
   body directly, and every other operation is a single pattern match.
   Virtual measurements could not be perturbed either way (the clock and
   byte ledger are charged at fixed points), but allocation-freedom keeps
   host-side benchmarks honest too. *)

type attr = string * string

type kind = Complete | Instant

type span = {
  sp_name : string;
  sp_cat : string;            (* instrumented layer: minipy, platform, ... *)
  sp_domain : int;            (* clock domain; Chrome pid *)
  sp_track : int;             (* lane within the domain; Chrome tid *)
  sp_start_ms : float;
  mutable sp_dur_ms : float;  (* -1 while open; 0 for instants *)
  mutable sp_attrs : attr list;
  sp_kind : kind;
  sp_seq : int;               (* begin order, for stable export *)
}

(* Sink contract: a completed span (or instant) is pushed exactly once, at
   [end_]/[instant] time. [keep = false] sinks only observe the stream. *)
type state = {
  mutable spans : span list;  (* completed, newest first *)
  mutable seq : int;
  mutable next_track : int;
  keep : bool;
  on_complete : span -> unit;
  st_lock : Mutex.t;
      (* Worker domains of the parallel pool record spans concurrently (each
         on its own track), so the shared sink state — seq counter, span
         list, track allocator, custom callbacks — is mutex-guarded. Span
         records themselves need no lock: a handle is owned by the domain
         that opened it until [end_] publishes it under this lock. *)
}

type sink = Null | Active of state

let with_lock st f = Mutex.protect st.st_lock f

let null = Null

let recorder () =
  Active
    { spans = []; seq = 0; next_track = 0; keep = true; on_complete = ignore;
      st_lock = Mutex.create () }

let custom ~on_complete =
  Active
    { spans = []; seq = 0; next_track = 0; keep = false; on_complete;
      st_lock = Mutex.create () }

let enabled = function Null -> false | Active _ -> true

let spans = function
  | Null -> []
  | Active st ->
    let snapshot = with_lock st (fun () -> st.spans) in
    List.sort (fun a b -> compare a.sp_seq b.sp_seq) snapshot

let fresh_track = function
  | Null -> 0
  | Active st ->
    with_lock st (fun () ->
        st.next_track <- st.next_track + 1;
        st.next_track)

(* --- clock domains -------------------------------------------------------- *)

let domain_virtual = 1  (* interpreter / platform-simulator virtual clock *)
let domain_wall = 2     (* host wall-clock: pipeline, DD, oracle queries *)
let domain_fleet = 3    (* fleet discrete-event simulation time *)

let domain_name = function
  | 1 -> "virtual-clock"
  | 2 -> "wall-clock"
  | 3 -> "fleet-sim"
  | d -> Printf.sprintf "domain-%d" d

(* The shared wall clock for [domain_wall] spans, relative to a process
   epoch: absolute epoch microseconds (~1.8e15) exceed the double mantissa
   (ULP ≈ 0.25 µs), so exported timestamps would lose the sub-µs ordering
   that nesting checks rely on. All wall-clock instrumentation must use
   this one clock — mixing epochs breaks cross-module nesting.

   The epoch is captured once, atomically: were each domain to lazily set
   its own ref, two domains racing on first use could observe different
   epochs and their spans would no longer share a timeline. The CAS must
   compare against the exact boxed NaN read (Atomic uses physical
   equality); on CAS failure another domain won and we read its epoch. *)
let wall_epoch_s = Atomic.make Float.nan

let wall_ms () =
  let now = Unix.gettimeofday () in
  let e = Atomic.get wall_epoch_s in
  let epoch =
    if Float.is_nan e then begin
      ignore (Atomic.compare_and_set wall_epoch_s e now : bool);
      Atomic.get wall_epoch_s
    end
    else e
  in
  (now -. epoch) *. 1000.0

(* --- the global tracer ---------------------------------------------------- *)

(* One process-wide sink, installed by the CLI's [--trace] (or a test) and
   consulted by every instrumented layer. Defaults to [Null]: tracing is off
   unless something turns it on. *)
let current = ref Null

let install s = current := s

let installed () = !current

(* --- span lifecycle ------------------------------------------------------- *)

type h = No_span | Open of state * span

let ignore_v _ = []

let none = No_span

let begin_ t ~domain ~track ~cat ~name ~ts_ms =
  match t with
  | Null -> No_span
  | Active st ->
    let seq =
      with_lock st (fun () ->
          st.seq <- st.seq + 1;
          st.seq)
    in
    Open
      ( st,
        { sp_name = name;
          sp_cat = cat;
          sp_domain = domain;
          sp_track = track;
          sp_start_ms = ts_ms;
          sp_dur_ms = -1.0;
          sp_attrs = [];
          sp_kind = Complete;
          sp_seq = seq } )

let add_attr h key value =
  match h with
  | No_span -> ()
  | Open (_, sp) -> sp.sp_attrs <- sp.sp_attrs @ [ (key, value) ]

let end_ ?(attrs = []) h ~ts_ms =
  match h with
  | No_span -> ()
  | Open (st, sp) ->
    (* defensive clamp: wall clocks are not guaranteed monotone *)
    sp.sp_dur_ms <- Float.max 0.0 (ts_ms -. sp.sp_start_ms);
    if attrs <> [] then sp.sp_attrs <- sp.sp_attrs @ attrs;
    with_lock st (fun () ->
        if st.keep then st.spans <- sp :: st.spans;
        st.on_complete sp)

let instant ?(attrs = []) t ~domain ~track ~cat ~name ~ts_ms =
  match t with
  | Null -> ()
  | Active st ->
    with_lock st (fun () ->
        st.seq <- st.seq + 1;
        let sp =
          { sp_name = name;
            sp_cat = cat;
            sp_domain = domain;
            sp_track = track;
            sp_start_ms = ts_ms;
            sp_dur_ms = 0.0;
            sp_attrs = attrs;
            sp_kind = Instant;
            sp_seq = st.seq }
        in
        if st.keep then st.spans <- sp :: st.spans;
        st.on_complete sp)

(* [f] inside a span of the active sink [t], timed by [clock]; [attrs]
   sees [f]'s result (an exception ends the span without them). *)
let around t ~domain ~track ~cat ~name ~clock ~attrs f =
  let h = begin_ t ~domain ~track ~cat ~name ~ts_ms:(clock ()) in
  match f () with
  | v -> end_ ~attrs:(attrs v) h ~ts_ms:(clock ()); v
  | exception e -> end_ h ~ts_ms:(clock ()); raise e

let with_span t ~domain ~track ~cat ~name ~clock f =
  match t with
  | Null -> f ()
  | Active _ -> around t ~domain ~track ~cat ~name ~clock ~attrs:ignore_v f

(* --- wall-clock lanes -------------------------------------------------------

   The one rule for which track a [domain_wall] span lands on: the lane of
   the domain executing it. The main domain (and any domain that claims
   none) records on lane 1; a parallel-pool worker claims a private lane
   when it starts, from one atomic counter starting well above the
   handful of static track ids the instrumentation uses. A domain runs one
   thing at a time — a pool's submitter runs queued tasks inside its own
   [map] call — so every wall-clock lane nests by construction at any
   worker count. *)

let next_wall_lane = Atomic.make 16

let wall_lane : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 1)

let claim_wall_lane () =
  Domain.DLS.set wall_lane (Atomic.fetch_and_add next_wall_lane 1)

let wall ?(attrs = ignore_v) ~cat ~name f =
  match !current with
  | Null -> f ()
  | Active _ as t ->
    around t ~domain:domain_wall ~track:(Domain.DLS.get wall_lane) ~cat ~name
      ~clock:wall_ms ~attrs f

(* --- the lane walk ---------------------------------------------------------

   One pre-order walk per (domain, track) answers every question asked of
   a recorded lane: its tree (each span's depth), each span's self time
   (its duration minus its children's), and whether it nests at all.
   Spans are ordered by start, longer first on a tied start, then in begin
   order (some spans are emitted retroactively, so begin order alone is
   not tree order). A stack holds the open ancestors: a span closes every
   ancestor that ended at or before its start, and the innermost one left
   must contain it, or the lane is not well-nested. Instants are points:
   they get a depth but never parent anything. *)

type node = { n_span : span; n_depth : int; mutable n_self_ms : float }

type lane = {
  l_domain : int;
  l_track : int;
  l_nodes : node list;
  l_overlap : (span * span) option;
}

let end_ms s = s.sp_start_ms +. s.sp_dur_ms

let walk_lane spans =
  let overlap = ref None and stack = ref [] in
  let visit s =
    let rec close = function
      | p :: up when end_ms p.n_span <= s.sp_start_ms -> close up
      | open_ -> open_
    in
    stack := close !stack;
    let n_depth =
      match !stack with
      | [] -> 0
      | p :: _ ->
        p.n_self_ms <- p.n_self_ms -. s.sp_dur_ms;
        if !overlap = None && end_ms s > end_ms p.n_span then
          overlap := Some (p.n_span, s);
        p.n_depth + 1
    in
    let n = { n_span = s; n_depth; n_self_ms = s.sp_dur_ms } in
    if s.sp_kind = Complete then stack := n :: !stack;
    n
  in
  let by_start a b =
    match Float.compare a.sp_start_ms b.sp_start_ms with
    | 0 -> Float.compare b.sp_dur_ms a.sp_dur_ms
    | c -> c
  in
  let nodes = List.map visit (List.stable_sort by_start spans) in
  (nodes, !overlap)

let walk all =
  let by_lane = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let k = (s.sp_domain, s.sp_track) in
       Hashtbl.replace by_lane k
         (s :: Option.value ~default:[] (Hashtbl.find_opt by_lane k)))
    all;
  Hashtbl.fold (fun k spans acc -> (k, List.rev spans) :: acc) by_lane []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun ((l_domain, l_track), spans) ->
      let l_nodes, l_overlap = walk_lane spans in
      { l_domain; l_track; l_nodes; l_overlap })

let nesting_violation all = List.find_map (fun l -> l.l_overlap) (walk all)

let well_nested all = nesting_violation all = None
