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

(* Every attribute one run read, by module: module name -> attribute set. *)
type reads = (string, (string, unit) Hashtbl.t) Hashtbl.t

(* --- observation memo ----------------------------------------------------- *)

module Cache = struct
  (* The memo proper, shared by a root memo and every run view over it.

     [backing], off by default, is a persistent Memo_store underneath the
     table. Misses consult the store and promote hits into memory (counted
     as a hit plus <prefix>.store_hits); fresh observations write through
     durably. Keys are content-addressed, so store answers are exactly
     what a fresh execution would produce. *)
  type memo = {
    table : (string, string) Hashtbl.t;  (* per-test key -> canonical output *)
    lock : Mutex.t;
    mutable enabled : bool;
    mutable backing : Memo_store.t option;
  }

  (* A root memo ([parent = None]) or a run's view of one, counting its own
     lookups in an Obs.Metrics registry (the global memo's in
     Obs.Metrics.global as oracle.memo.*, so trace exports see the numbers
     the cache-stats line prints); a view's count in its parent too. *)
  type t = {
    memo : memo;
    parent : t option;
    c_hits : Obs.Metrics.counter;
    c_misses : Obs.Metrics.counter;
    c_store_hits : Obs.Metrics.counter;
    mutable kept : (string * reads) list;  (* see [keep] *)
  }

  let make ?parent ~memo ~registry ~prefix () =
    { memo;
      parent;
      c_hits = Obs.Metrics.counter registry (prefix ^ ".hits");
      c_misses = Obs.Metrics.counter registry (prefix ^ ".misses");
      c_store_hits = Obs.Metrics.counter registry (prefix ^ ".store_hits");
      kept = [] }

  let create ?(enabled = true) ?(registry = Obs.Metrics.create ())
      ?(prefix = "oracle.memo") () =
    let memo =
      { table = Hashtbl.create 1024; lock = Mutex.create (); enabled;
        backing = None }
    in
    make ~memo ~registry ~prefix ()

  let global = create ~registry:Obs.Metrics.global ()

  let view parent =
    make ~parent ~memo:parent.memo ~registry:(Obs.Metrics.create ())
      ~prefix:"oracle.memo" ()

  let set_enabled t flag = t.memo.enabled <- flag

  let enabled t = t.memo.enabled

  let locked t f = Mutex.protect t.memo.lock f

  (* One lookup's outcome, counted in [t] and every memo above it; called
     under the memo's lock, which [t] and its parents share. *)
  let rec count t counter =
    Obs.Metrics.incr (counter t);
    match t.parent with Some p -> count p counter | None -> ()

  let hits t = locked t (fun () -> Obs.Metrics.value t.c_hits)

  let misses t = locked t (fun () -> Obs.Metrics.value t.c_misses)

  let store_hits t = locked t (fun () -> Obs.Metrics.value t.c_store_hits)

  let size t = locked t (fun () -> Hashtbl.length t.memo.table)

  let attach_store t backing = locked t (fun () -> t.memo.backing <- backing)

  let clear t =
    locked t (fun () ->
        Hashtbl.reset t.memo.table;
        t.kept <- [];
        List.iter
          (fun c -> Obs.Metrics.incr ~by:(-Obs.Metrics.value c) c)
          [ t.c_hits; t.c_misses; t.c_store_hits ])

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.memo.table key with
        | Some out ->
          count t (fun t -> t.c_hits);
          Some out
        | None ->
          let promoted =
            Option.bind t.memo.backing (fun ms -> Memo_store.find ms key)
          in
          (match promoted with
           | Some out ->
             count t (fun t -> t.c_hits);
             count t (fun t -> t.c_store_hits);
             Hashtbl.replace t.memo.table key out
           | None -> count t (fun t -> t.c_misses));
          promoted)

  let store t key out =
    locked t (fun () ->
        Hashtbl.replace t.memo.table key out;
        Option.iter (fun ms -> Memo_store.add ms ~key out) t.memo.backing)

  (* The per-test reads of a run's last passing fresh query, by
     observation key, kept for the profile of the next module. DD's result
     is its last passing configuration, so one slot per run view is
     enough; keys are content-addressed, so a slot only ever saves a fresh
     run. [keep t []] (a run's start) empties it. *)
  let keep t reads = locked t (fun () -> t.kept <- reads)

  let kept t key = locked t (fun () -> List.assoc_opt key t.kept)
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

(* [run_test_case] with every module's reads recorded. The recorder moves
   no tick, step or heap byte, so the output is an unrecorded run's.
   Consecutive reads mostly hit one module, whose table is found again by
   its (physically shared) name. *)
let run_recording ?params d tc : string * reads =
  let reads = Hashtbl.create 8 in
  let last_module = ref "" and last = ref (Hashtbl.create 0) in
  let on_read m a =
    if m != !last_module then begin
      last_module := m;
      last :=
        (match Hashtbl.find_opt reads m with
         | Some attrs -> attrs
         | None ->
           let attrs = Hashtbl.create 16 in
           Hashtbl.add reads m attrs;
           attrs)
    end;
    Hashtbl.replace !last a ()
  in
  let out = run_test_case ?params ~on_read d tc in
  (out, reads)

(* One module's read profile of a run: its attributes, sorted, space-joined
   (the memoized form). *)
let profile_of (reads : reads) ~module_name =
  match Hashtbl.find_opt reads module_name with
  | None -> ""
  | Some attrs ->
    Hashtbl.fold (fun a () acc -> a :: acc) attrs []
    |> List.sort String.compare
    |> String.concat " "

(* The optimizer variant / stub configuration's part of every key that
   must separate a lazy image from its eager twin (memo, journal run and
   module search digests): nothing for an eager image, so eager keys stay
   the historical ones, otherwise the image's lazy-config tag. *)
let variant_key_part (d : Platform.Deployment.t) =
  match Minipy.Interp.lazy_config_of_vfs d.Platform.Deployment.vfs with
  | "eager" -> []
  | lazy_cfg -> [ lazy_cfg ]

(* Memo key: everything the canonical output can depend on — the effective
   image, the entry point, and the test case's inputs — plus the engine tag,
   which keys have always carried (a constant now; keeping it keeps stored
   memo entries valid). Of custom simulator params only [max_steps] can
   change a canonical output (it decides [CRASH:timeout]); runs with a
   custom budget key separately, default-param runs keep the historical
   key. *)
let test_key ?params ~image_digest (d : Platform.Deployment.t)
    (tc : Platform.Deployment.test_case) =
  let base =
    variant_key_part d
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
   is enabled and storing fresh answers. An answer [known] before the memo
   is looked up is stored too, but counts as neither a hit nor a miss. *)
let memo_per_test ?(known = fun ~image_digest:_ _ -> None) cache
    (d : Platform.Deployment.t) ~key ~run =
  let tests = d.Platform.Deployment.test_cases in
  if not (Cache.enabled cache) then List.map run tests
  else begin
    let image_digest = Platform.Deployment.image_digest d in
    List.map
      (fun tc ->
         let key = key ~image_digest tc in
         match known ~image_digest tc with
         | Some out ->
           Cache.store cache key out;
           out
         | None ->
           (match Cache.find cache key with
            | Some out -> out
            | None ->
              let out = run tc in
              Cache.store cache key out;
              out))
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

(* The attributes of [module_name] that [d]'s test cases read. A profile
   is as deterministic as an observation, so it is memoized per
   (observation key, module) under a tag of its own; a memo hit returns
   exactly what a fresh run would record. Before the memo come the reads
   [cache] kept from its last passing fresh query ([Cache.keep]): when [d]
   is that query's image, as the base of the module after a DD search is,
   they are this very run's reads. *)
let module_reads ?(cache = Cache.global) (d : Platform.Deployment.t)
    ~module_name =
  let key ~image_digest tc =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [ "reads"; module_name; test_key ~image_digest d tc ]))
  in
  let known ~image_digest tc =
    Cache.kept cache (test_key ~image_digest d tc)
    |> Option.map (profile_of ~module_name)
  in
  let run tc = profile_of (snd (run_recording d tc)) ~module_name in
  memo_per_test ~known cache d ~key ~run
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")
  |> List.sort_uniq String.compare

(* [d]'s per-test outputs through [cache]: a memo answer, or a fresh run
   that records every module's reads and stores its output. [fresh ()] is
   what the fresh runs so far read, by observation key. *)
let recording_outputs ~cache ?params (d : Platform.Deployment.t) =
  if not (Cache.enabled cache) then
    ((fun tc -> run_test_case ?params d tc), fun () -> [])
  else begin
    let image_digest = Platform.Deployment.image_digest d in
    let fresh = ref [] in
    ( (fun tc ->
          let key = test_key ?params ~image_digest d tc in
          match Cache.find cache key with
          | Some out -> out
          | None ->
            let out, reads = run_recording ?params d tc in
            Cache.store cache key out;
            fresh := (key, reads) :: !fresh;
            out),
      fun () -> !fresh )
  end

(* Keep the reads of a passing run for [module_reads], if it ran fresh. *)
let keep_reads cache fresh =
  match fresh () with [] -> () | reads -> Cache.keep cache reads

(* Build the oracle predicate for DD: candidate deployments pass iff they
   reproduce the reference observation. The reference runs once (or is
   answered by the memo when an identical image was already observed),
   and starts the run's kept reads afresh. A candidate's test cases run in
   order and the first mismatch decides: the verdict is
   [equivalent (observe candidate) expected], but a failing query runs and
   stores only the test cases up to its mismatch. *)
let for_reference ?(cache = Cache.global) ?params
    (reference : Platform.Deployment.t) :
  (Platform.Deployment.t -> bool) * observation =
  Cache.keep cache [];
  let output, fresh = recording_outputs ~cache ?params reference in
  let expected =
    { per_test =
        List.map
          (fun (tc : Platform.Deployment.test_case) ->
             (tc.Platform.Deployment.tc_name, output tc))
          reference.Platform.Deployment.test_cases }
  in
  keep_reads cache fresh;
  let passes (candidate : Platform.Deployment.t) =
    let tests = candidate.Platform.Deployment.test_cases in
    List.compare_lengths tests expected.per_test = 0
    &&
    let output, fresh = recording_outputs ~cache ?params candidate in
    let pass =
      List.for_all2
        (fun (tc : Platform.Deployment.test_case) (name, want) ->
           String.equal tc.Platform.Deployment.tc_name name
           && String.equal (output tc) want)
        tests expected.per_test
    in
    if pass then keep_reads cache fresh;
    pass
  in
  (passes, expected)
