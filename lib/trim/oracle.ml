(* The correctness oracle (§5.3): a candidate program passes iff, for every
   test case in the oracle specification, it produces the same observable
   output as the original program.

   Observable output = captured stdout plus the handler's return value (or
   the raised exception). Each test case runs in a fresh interpreter — the
   paper's per-process module isolation (§7) — so module caching can never
   leak state between oracle queries. Interpreter timeouts and init-time
   crashes count as failures.

   Observations are memoized by (image digest, test case): the simulated
   platform is deterministic, so two deployments with identical effective
   images and identical test cases produce identical canonical outputs. DD
   complement re-tests, seeded/continuous re-runs, and baseline comparisons
   over the same image answer from the cache instead of re-interpreting.
   Memoization returns the same observation values, so it cannot perturb any
   virtual-time or virtual-memory measurement. *)

type observation = {
  per_test : (string * string) list;  (* test-case name -> canonical output *)
}

(* --- observation memo ----------------------------------------------------- *)

module Cache = struct
  (* Hit/miss counts live in an Obs.Metrics registry (the global memo in
     Obs.Metrics.global as oracle.memo.hits/misses) so trace exports see the
     same numbers the cache-stats line prints.

     Two optional extensions, both off by default so historical behavior is
     byte-identical:

     - [backing]: a persistent Memo_store underneath the table. Misses
       consult the store and promote hits into memory (counted as a hit
       plus <prefix>.store_hits); fresh observations write through
       durably. Keys are content-addressed, so store answers are exactly
       what a fresh execution would produce.

     - [capacity]: a bound on the in-memory table for long multi-app runs.
       Insertion-order (FIFO) eviction via [order]; evictions count in
       <prefix>.evicted. An evicted key backed by a store is re-promoted
       on its next miss, so with a store attached the bound trades memory
       for re-reads, never for re-executions. *)
  type t = {
    store : (string, string) Hashtbl.t;  (* per-test key -> canonical output *)
    order : string Queue.t;              (* in-memory insertion order *)
    lock : Mutex.t;
    c_hits : Obs.Metrics.counter;
    c_misses : Obs.Metrics.counter;
    c_store_hits : Obs.Metrics.counter;
    c_evicted : Obs.Metrics.counter;
    mutable enabled : bool;
    mutable capacity : int option;
    mutable backing : Memo_store.t option;
  }

  let make ~registry ~prefix ~enabled =
    { store = Hashtbl.create 1024;
      order = Queue.create ();
      lock = Mutex.create ();
      c_hits = Obs.Metrics.counter registry (prefix ^ ".hits");
      c_misses = Obs.Metrics.counter registry (prefix ^ ".misses");
      c_store_hits = Obs.Metrics.counter registry (prefix ^ ".store_hits");
      c_evicted = Obs.Metrics.counter registry (prefix ^ ".evicted");
      enabled;
      capacity = None;
      backing = None }

  let create ?(enabled = true) ?registry ?(prefix = "oracle.memo") () =
    let registry =
      match registry with Some r -> r | None -> Obs.Metrics.create ()
    in
    make ~registry ~prefix ~enabled

  let global =
    make ~registry:Obs.Metrics.global ~prefix:"oracle.memo" ~enabled:true

  let set_enabled t flag = t.enabled <- flag

  let enabled t = t.enabled

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let hits t = locked t (fun () -> Obs.Metrics.value t.c_hits)

  let misses t = locked t (fun () -> Obs.Metrics.value t.c_misses)

  let store_hits t = locked t (fun () -> Obs.Metrics.value t.c_store_hits)

  let evicted t = locked t (fun () -> Obs.Metrics.value t.c_evicted)

  let size t = locked t (fun () -> Hashtbl.length t.store)

  let set_capacity t cap =
    (match cap with
     | Some n when n < 1 -> invalid_arg "Oracle.Cache.set_capacity: cap < 1"
     | _ -> ());
    locked t (fun () -> t.capacity <- cap)

  let capacity t = locked t (fun () -> t.capacity)

  let attach_store t backing = locked t (fun () -> t.backing <- backing)

  let backing t = locked t (fun () -> t.backing)

  let clear t =
    locked t (fun () ->
        Hashtbl.reset t.store;
        Queue.clear t.order;
        List.iter
          (fun c -> Obs.Metrics.incr ~by:(-Obs.Metrics.value c) c)
          [ t.c_hits; t.c_misses; t.c_store_hits; t.c_evicted ])

  (* Insert under the lock, enforcing the capacity bound. The order queue
     only ever holds keys present in the table (eviction is the only
     removal apart from [clear]), so popping is always productive. *)
  let insert_locked t key out =
    if Hashtbl.mem t.store key then Hashtbl.replace t.store key out
    else begin
      (match t.capacity with
       | Some cap ->
         while Hashtbl.length t.store >= cap && not (Queue.is_empty t.order) do
           let victim = Queue.pop t.order in
           Hashtbl.remove t.store victim;
           Obs.Metrics.incr t.c_evicted
         done
       | None -> ());
      Hashtbl.replace t.store key out;
      Queue.push key t.order
    end

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.store key with
        | Some out ->
          Obs.Metrics.incr t.c_hits;
          Some out
        | None ->
          let promoted =
            match t.backing with
            | None -> None
            | Some ms ->
              (match Memo_store.find ms key with
               | Some out ->
                 Obs.Metrics.incr t.c_hits;
                 Obs.Metrics.incr t.c_store_hits;
                 insert_locked t key out;
                 Some out
               | None -> None)
          in
          (match promoted with
           | Some _ -> promoted
           | None ->
             Obs.Metrics.incr t.c_misses;
             None))

  let store t key out =
    locked t (fun () ->
        insert_locked t key out;
        match t.backing with
        | Some ms -> Memo_store.add ms ~key out
        | None -> ())
end

let canonical_of_record (r : Platform.Lambda_sim.record) =
  let calls =
    match r.Platform.Lambda_sim.external_calls with
    | [] -> ""
    | cs -> "CALLS:[" ^ String.concat "; " cs ^ "]"
  in
  match r.Platform.Lambda_sim.outcome with
  | Platform.Lambda_sim.Ok v ->
    Printf.sprintf "%sRET:%s%s" r.Platform.Lambda_sim.stdout
      (Minipy.Value.to_repr v) calls
  | Platform.Lambda_sim.Error e ->
    Printf.sprintf "%sERR:%s:%s%s" r.Platform.Lambda_sim.stdout
      e.Minipy.Value.exc_class e.Minipy.Value.exc_msg calls

(* Run one test case in a fresh interpreter — the uncached path. The probe
   sim is untraced: DD issues thousands of these per module, and their
   per-invocation spans would drown the trace (the query itself is spanned
   at the DD layer, with memo traffic attached). *)
let run_test_case ?params ?on_read (d : Platform.Deployment.t)
    (tc : Platform.Deployment.test_case) : string =
  let sim = Platform.Lambda_sim.create ?params ?on_read ~obs:false d in
  match
    Platform.Lambda_sim.invoke sim ~now_s:0.0
      ~event:tc.Platform.Deployment.tc_event
      ~context:tc.Platform.Deployment.tc_context ()
  with
  | r -> canonical_of_record r
  | exception Minipy.Value.Py_error e ->
    (* initialization-time failure *)
    Printf.sprintf "INITERR:%s" e.Minipy.Value.exc_class
  | exception Minipy.Interp.Timeout _ -> "CRASH:timeout"
  | exception Stack_overflow -> "CRASH:stack-overflow"

(* Memo key: everything the canonical output can depend on — the effective
   image, the entry point, and the test case's inputs — plus the engine tag,
   which keys have always carried (a constant now; keeping it keeps stored
   memo entries valid). Of custom simulator params only [max_steps] can
   change a canonical output (it decides [CRASH:timeout]); runs with a
   custom budget key separately, default-param runs keep the historical
   key. *)
let test_key ?params ~image_digest (d : Platform.Deployment.t)
    (tc : Platform.Deployment.test_case) =
  (* optimizer variant / stub configuration: a lazy image must never share
     verdicts with its eager twin, even if digests collide. Eager images
     keep the historical key (like default-param runs below). *)
  let lazy_cfg =
    Minipy.Interp.lazy_config_of_vfs d.Platform.Deployment.vfs
  in
  let variant_tag =
    if String.equal lazy_cfg "eager" then [] else [ lazy_cfg ]
  in
  let base =
    variant_tag
    @ [ Minipy.Interp.engine_tag;
      image_digest;
      d.Platform.Deployment.handler_file;
      d.Platform.Deployment.handler_name;
      tc.Platform.Deployment.tc_name;
      tc.Platform.Deployment.tc_event;
      tc.Platform.Deployment.tc_context ]
  in
  let parts =
    match params with
    | None -> base
    | Some (p : Platform.Lambda_sim.params) ->
      base @ [ Printf.sprintf "max_steps=%d" p.Platform.Lambda_sim.max_steps ]
  in
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* [run] each test case of [d], answering from [cache] under [key] when it
   is enabled and storing fresh answers. *)
let memo_per_test cache (d : Platform.Deployment.t) ~key ~run =
  let tests = d.Platform.Deployment.test_cases in
  if not (Cache.enabled cache) then List.map run tests
  else begin
    let image_digest = Platform.Deployment.image_digest d in
    List.map
      (fun tc ->
         let key = key ~image_digest tc in
         match Cache.find cache key with
         | Some out -> out
         | None ->
           let out = run tc in
           Cache.store cache key out;
           out)
      tests
  end

(* Observe one deployment across its test cases. Any non-Python-level crash
   (timeout, stack overflow) yields a distinguished CRASH observation. *)
let observe ?(cache = Cache.global) ?params (d : Platform.Deployment.t) :
  observation =
  let outs =
    memo_per_test cache d ~key:(test_key ?params d)
      ~run:(run_test_case ?params d)
  in
  { per_test =
      List.map2
        (fun (tc : Platform.Deployment.test_case) out ->
           (tc.Platform.Deployment.tc_name, out))
        d.Platform.Deployment.test_cases outs }

let equivalent (a : observation) (b : observation) =
  List.length a.per_test = List.length b.per_test
  && List.for_all2
       (fun (n1, o1) (n2, o2) -> String.equal n1 n2 && String.equal o1 o2)
       a.per_test b.per_test

(* The attributes of [module_name] that [d]'s test cases read, recorded
   in fresh interpreters. A profile is as deterministic as an observation,
   so it is memoized per (observation key, module) under a tag of its own;
   a memo hit returns exactly what a fresh run would record. *)
let module_reads ?(cache = Cache.global) (d : Platform.Deployment.t)
    ~module_name =
  let key ~image_digest tc =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [ "reads"; module_name; test_key ~image_digest d tc ]))
  in
  let run tc =
    let reads = ref [] in
    let on_read m a =
      if String.equal m module_name then reads := a :: !reads
    in
    ignore (run_test_case ~on_read d tc);
    String.concat " " (List.sort_uniq String.compare !reads)
  in
  memo_per_test cache d ~key ~run
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")
  |> List.sort_uniq String.compare

(* Build the oracle predicate for DD: candidate deployments pass iff they
   reproduce the reference observation. The reference runs once (or is
   answered by the memo when an identical image was already observed). *)
let for_reference ?(cache = Cache.global) ?params
    (reference : Platform.Deployment.t) :
  (Platform.Deployment.t -> bool) * observation =
  let expected = observe ~cache ?params reference in
  ( (fun candidate -> equivalent (observe ~cache ?params candidate) expected),
    expected )

(* --- hardened oracle (quorum + quarantine + watchdog) ---------------------

   The plain oracle trusts every execution; one flaky observation silently
   poisons the memo and with it the keep-set. The hardened wrapper defends
   the memo at both boundaries:

   - store time: a fresh key is executed twice; on agreement the value is
     stored, on disagreement a k-of-n quorum (n = 2·retries + 1 total
     attempts, extended while no absolute majority emerges) decides, and
     the test is quarantined as flaky. Flaky injections produce distinct
     outputs per attempt, so the genuine observation is the only value that
     can accumulate votes.

   - hit time: the first memo hit per key re-executes once and compares
     against the memoized baseline. Disagreement escalates to a quorum
     whose shape classifies the divergence — re-executions unanimous
     against the baseline mean the behaviour genuinely changed
     (Behavior_changed); anything unstable is Flaky. Either way the
     memoized baseline stays authoritative, keeping the search
     deterministic; the report tells the operator what to re-baseline.

   A test already in quarantine skips the cheap dual-attempt and goes
   straight to a full quorum on every fresh key.

   The wall-clock watchdog bounds one *execution* (the virtual-step budget
   [Interp.Timeout] remains the primary in-interpreter limit): an attempt
   over budget observes as CRASH:watchdog-timeout, so a hung-host query
   degrades into an ordinary failing observation instead of wedging DD.

   Metrics (Obs.Metrics.global): oracle.quorum.retries counts
   disagreement-triggered re-executions (beyond the routine confirmation /
   verification probes — zero on a deterministic suite),
   oracle.quorum.quarantined counts quarantined tests,
   oracle.watchdog.trips counts over-budget executions. *)

module Hardened = struct
  type classification = Flaky | Behavior_changed

  let classification_name = function
    | Flaky -> "flaky"
    | Behavior_changed -> "behavior-changed"

  type quarantine_entry = {
    q_test : string;
    q_class : classification;
    q_events : int;          (* divergent quorums observed for this test *)
    q_executions : int;      (* executions those quorums consumed *)
    q_outputs : string list; (* distinct outputs seen, first-seen order *)
  }

  type config = {
    retries : int;             (* k: quorum is 2k + 1 total attempts *)
    verify_hits : bool;        (* re-execute first memo hit per key *)
    watchdog_ms : float option;
    clock : unit -> float;     (* wall-clock source, injectable for tests *)
    inject : Chaos.injector option;  (* fault injection (tests, chaos runs) *)
  }

  let default_config =
    { retries = 1;
      verify_hits = true;
      watchdog_ms = None;
      clock = Obs.Span.wall_ms;
      inject = None }

  type entry = {
    mutable e_class : classification;
    mutable e_events : int;
    mutable e_executions : int;
    mutable e_outputs : string list;  (* reversed first-seen order *)
  }

  type t = {
    h_cache : Cache.t;
    cfg : config;
    attempts : (string, int) Hashtbl.t;    (* key -> next attempt index *)
    verified : (string, unit) Hashtbl.t;   (* keys whose memo hit re-checked *)
    quarantine : (string, entry) Hashtbl.t;  (* by test-case name *)
    h_lock : Mutex.t;
    c_retries : Obs.Metrics.counter;
    c_quarantined : Obs.Metrics.counter;
    c_watchdog : Obs.Metrics.counter;
  }

  let create ?(cache = Cache.global) cfg =
    if cfg.retries < 0 then invalid_arg "Oracle.Hardened: retries < 0";
    { h_cache = cache;
      cfg;
      attempts = Hashtbl.create 256;
      verified = Hashtbl.create 256;
      quarantine = Hashtbl.create 16;
      h_lock = Mutex.create ();
      c_retries = Obs.Metrics.counter Obs.Metrics.global "oracle.quorum.retries";
      c_quarantined =
        Obs.Metrics.counter Obs.Metrics.global "oracle.quorum.quarantined";
      c_watchdog =
        Obs.Metrics.counter Obs.Metrics.global "oracle.watchdog.trips" }

  let locked t f =
    Mutex.lock t.h_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.h_lock) f

  let full t = (2 * t.cfg.retries) + 1

  (* One oracle execution: attempt indices per key are monotonic so the
     (seeded, stateless) injector sees a deterministic stream. *)
  let exec_once t ?params d tc ~key =
    let attempt =
      locked t (fun () ->
          let a =
            match Hashtbl.find_opt t.attempts key with Some a -> a | None -> 0
          in
          Hashtbl.replace t.attempts key (a + 1);
          a)
    in
    let t0 = t.cfg.clock () in
    let out = run_test_case ?params d tc in
    let elapsed = t.cfg.clock () -. t0 in
    match t.cfg.watchdog_ms with
    | Some budget when elapsed > budget ->
      locked t (fun () -> Obs.Metrics.incr t.c_watchdog);
      "CRASH:watchdog-timeout"
    | _ ->
      (match t.cfg.inject with
       | Some f -> f ~key ~attempt out
       | None -> out)

  (* Modal value with first-seen tie-break. *)
  let majority outs =
    let tbl = Hashtbl.create 8 in
    List.iteri
      (fun i o ->
         match Hashtbl.find_opt tbl o with
         | Some (c, first) -> Hashtbl.replace tbl o (c + 1, first)
         | None -> Hashtbl.add tbl o (1, i))
      outs;
    let best =
      Hashtbl.fold
        (fun o (c, first) best ->
           match best with
           | Some (_, bc, bfirst) when bc > c || (bc = c && bfirst < first) ->
             best
           | _ -> Some (o, c, first))
        tbl None
    in
    match best with
    | Some (o, c, _) -> (o, c)
    | None -> invalid_arg "Hardened.majority: empty"

  (* Extend the quorum until an absolute majority emerges (or a hard cap —
     all-distinct votes mean near-total corruption; first-seen then wins). *)
  let rec settle t exec atts =
    let value, count = majority atts in
    let n = List.length atts in
    if 2 * count > n || n >= full t + (2 * t.cfg.retries) then (value, atts)
    else settle t exec (atts @ [ exec (); exec () ])

  let all_equal = function
    | [] -> true
    | x :: rest -> List.for_all (String.equal x) rest

  let distinct outs =
    List.rev
      (List.fold_left
         (fun acc o -> if List.exists (String.equal o) acc then acc else o :: acc)
         [] outs)

  let note_quarantine t ~test ~cls ~outputs ~executions =
    locked t (fun () ->
        let outs = distinct outputs in
        match Hashtbl.find_opt t.quarantine test with
        | Some e ->
          e.e_events <- e.e_events + 1;
          e.e_executions <- e.e_executions + executions;
          if cls = Behavior_changed then e.e_class <- Behavior_changed;
          List.iter
            (fun o ->
               if not (List.exists (String.equal o) e.e_outputs) then
                 e.e_outputs <- o :: e.e_outputs)
            outs
        | None ->
          Obs.Metrics.incr t.c_quarantined;
          Hashtbl.add t.quarantine test
            { e_class = cls;
              e_events = 1;
              e_executions = executions;
              e_outputs = List.rev outs })

  let is_quarantined t test =
    locked t (fun () -> Hashtbl.mem t.quarantine test)

  let retried t ~by = locked t (fun () -> Obs.Metrics.incr ~by t.c_retries)

  (* One hardened query: returns the canonical output to memoize/compare. *)
  let query t ?params d tc ~key =
    let test = tc.Platform.Deployment.tc_name in
    let exec () = exec_once t ?params d tc ~key in
    match Cache.find t.h_cache key with
    | Some memo ->
      let should_verify =
        t.cfg.verify_hits && t.cfg.retries > 0
        && locked t (fun () ->
               if Hashtbl.mem t.verified key then false
               else begin
                 Hashtbl.replace t.verified key ();
                 true
               end)
      in
      if not should_verify then memo
      else begin
        let v0 = exec () in
        if String.equal v0 memo then memo
        else begin
          (* the baseline is contested: quorum to classify, baseline kept *)
          let n = full t - 1 in
          retried t ~by:n;
          let rest = List.init n (fun _ -> exec ()) in
          let cls =
            if rest <> [] && all_equal rest then begin
              let r = List.hd rest in
              if String.equal r memo then Flaky (* v0 itself was the flake *)
              else if String.equal r v0 then Behavior_changed
              else Flaky
            end
            else Flaky
          in
          note_quarantine t ~test ~cls
            ~outputs:(memo :: v0 :: rest)
            ~executions:(n + 1);
          memo
        end
      end
    | None ->
      let out =
        if t.cfg.retries = 0 then exec ()
        else if is_quarantined t test then begin
          (* no trust left: full quorum up front *)
          let atts = List.init (full t) (fun _ -> exec ()) in
          let value, atts = settle t exec atts in
          retried t ~by:(List.length atts - 1);
          if not (all_equal atts) then
            note_quarantine t ~test ~cls:Flaky ~outputs:atts
              ~executions:(List.length atts);
          value
        end
        else begin
          let a0 = exec () in
          let a1 = exec () in
          if String.equal a0 a1 then a0
          else begin
            let more = List.init (full t - 2) (fun _ -> exec ()) in
            let value, atts = settle t exec (a0 :: a1 :: more) in
            retried t ~by:(List.length atts - 2);
            note_quarantine t ~test ~cls:Flaky ~outputs:atts
              ~executions:(List.length atts);
            value
          end
        end
      in
      Cache.store t.h_cache key out;
      out

  let observe t ?params (d : Platform.Deployment.t) : observation =
    let image_digest = Platform.Deployment.image_digest d in
    { per_test =
        List.map
          (fun (tc : Platform.Deployment.test_case) ->
             let key = test_key ?params ~image_digest d tc in
             (tc.Platform.Deployment.tc_name, query t ?params d tc ~key))
          d.Platform.Deployment.test_cases }

  let for_reference t ?params (reference : Platform.Deployment.t) :
    (Platform.Deployment.t -> bool) * observation =
    let expected = observe t ?params reference in
    ( (fun candidate -> equivalent (observe t ?params candidate) expected),
      expected )

  let quarantined t = locked t (fun () -> Hashtbl.length t.quarantine)

  let report t : quarantine_entry list =
    let entries =
      locked t (fun () ->
          Hashtbl.fold
            (fun test e acc ->
               { q_test = test;
                 q_class = e.e_class;
                 q_events = e.e_events;
                 q_executions = e.e_executions;
                 q_outputs = List.rev e.e_outputs }
               :: acc)
            t.quarantine [])
    in
    List.sort (fun a b -> compare a.q_test b.q_test) entries

  (* Divergence-classification report. Outputs are arbitrary interpreter
     text, so the CSV carries their count, not their bytes; the typed
     [report] keeps the strings. *)
  let report_csv t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "test,class,events,executions,distinct_outputs\n";
    List.iter
      (fun q ->
         Buffer.add_string buf
           (Printf.sprintf "%s,%s,%d,%d,%d\n" q.q_test
              (classification_name q.q_class)
              q.q_events q.q_executions
              (List.length q.q_outputs)))
      (report t);
    Buffer.contents buf
end
