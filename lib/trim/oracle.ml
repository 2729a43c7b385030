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

     [backing], off by default, is a persistent Memo_store underneath the
     table. Misses consult the store and promote hits into memory (counted
     as a hit plus <prefix>.store_hits); fresh observations write through
     durably. Keys are content-addressed, so store answers are exactly
     what a fresh execution would produce. *)
  type t = {
    store : (string, string) Hashtbl.t;  (* per-test key -> canonical output *)
    lock : Mutex.t;
    c_hits : Obs.Metrics.counter;
    c_misses : Obs.Metrics.counter;
    c_store_hits : Obs.Metrics.counter;
    mutable enabled : bool;
    mutable backing : Memo_store.t option;
  }

  let make ~registry ~prefix ~enabled =
    { store = Hashtbl.create 1024;
      lock = Mutex.create ();
      c_hits = Obs.Metrics.counter registry (prefix ^ ".hits");
      c_misses = Obs.Metrics.counter registry (prefix ^ ".misses");
      c_store_hits = Obs.Metrics.counter registry (prefix ^ ".store_hits");
      enabled;
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

  let locked t f = Mutex.protect t.lock f

  (* Hits and misses of every memo on the calling domain, tallied only
     while a tracer is installed. A domain answers one oracle query at a
     time, so a traced query reads its own traffic from how these move,
     whatever other domains' pipelines do meanwhile. *)
  let on_domain = Domain.DLS.new_key (fun () -> [| 0; 0 |])

  let count t i =
    Obs.Metrics.incr (if i = 0 then t.c_hits else t.c_misses);
    if Obs.Span.enabled (Obs.Span.installed ()) then
      let a = Domain.DLS.get on_domain in
      a.(i) <- a.(i) + 1

  let domain_traffic () =
    let a = Domain.DLS.get on_domain in
    (a.(0), a.(1))

  let hits t = locked t (fun () -> Obs.Metrics.value t.c_hits)

  let misses t = locked t (fun () -> Obs.Metrics.value t.c_misses)

  let store_hits t = locked t (fun () -> Obs.Metrics.value t.c_store_hits)

  let size t = locked t (fun () -> Hashtbl.length t.store)

  let attach_store t backing = locked t (fun () -> t.backing <- backing)

  let backing t = locked t (fun () -> t.backing)

  let clear t =
    locked t (fun () ->
        Hashtbl.reset t.store;
        List.iter
          (fun c -> Obs.Metrics.incr ~by:(-Obs.Metrics.value c) c)
          [ t.c_hits; t.c_misses; t.c_store_hits ])

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.store key with
        | Some out ->
          count t 0;
          Some out
        | None ->
          let promoted =
            match t.backing with
            | None -> None
            | Some ms ->
              (match Memo_store.find ms key with
               | Some out ->
                 count t 0;
                 Obs.Metrics.incr t.c_store_hits;
                 Hashtbl.replace t.store key out;
                 Some out
               | None -> None)
          in
          (match promoted with
           | Some _ -> promoted
           | None ->
             count t 1;
             None))

  let store t key out =
    locked t (fun () ->
        Hashtbl.replace t.store key out;
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
