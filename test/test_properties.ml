(* Property-based tests (qcheck via QCheck_alcotest). *)

open Minipy
module Gen = QCheck2.Gen

(* --- AST generators ------------------------------------------------------ *)

let gen_name =
  let raw =
    Gen.map
      (fun (c, rest) ->
         String.init (1 + List.length rest) (fun i ->
             if i = 0 then c else List.nth rest (i - 1)))
      (Gen.pair (Gen.char_range 'a' 'z')
         (Gen.list_size (Gen.int_range 0 5)
            (Gen.oneof [ Gen.char_range 'a' 'z'; Gen.char_range '0' '9' ])))
  in
  Gen.map (fun s -> if Token.is_keyword s then s ^ "_k" else s) raw

let gen_const =
  Gen.oneof
    [ Gen.map (fun i -> Ast.Cint i) (Gen.int_range 0 10_000);
      Gen.map (fun f -> Ast.Cfloat (Float.abs f))
        (Gen.map (fun i -> float_of_int i /. 8.0) (Gen.int_range 0 1000));
      Gen.map (fun s -> Ast.Cstr s) (Gen.small_string ~gen:(Gen.char_range 'a' 'z'));
      Gen.map (fun b -> Ast.Cbool b) Gen.bool;
      Gen.return Ast.Cnone ]

let gen_binop =
  Gen.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.FloorDiv; Ast.Mod; Ast.Pow;
      Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or;
      Ast.In; Ast.NotIn ]

let rec gen_expr n =
  if n <= 0 then
    Gen.oneof
      [ Gen.map (fun c -> Ast.e (Ast.Const c)) gen_const;
        Gen.map (fun v -> Ast.e (Ast.Name v)) gen_name ]
  else
    let sub = gen_expr (n / 2) in
    Gen.oneof
      [ Gen.map (fun c -> Ast.e (Ast.Const c)) gen_const;
        Gen.map (fun v -> Ast.e (Ast.Name v)) gen_name;
        Gen.map2 (fun b a -> Ast.e (Ast.Attr (b, a))) sub gen_name;
        Gen.map2 (fun b k -> Ast.e (Ast.Subscript (b, k))) sub sub;
        Gen.map3 (fun f a k -> Ast.e (Ast.Call (f, a, k)))
          sub
          (Gen.list_size (Gen.int_range 0 3) sub)
          (Gen.list_size (Gen.int_range 0 2) (Gen.pair gen_name sub));
        Gen.map3 (fun op l r -> Ast.e (Ast.Binop (op, l, r))) gen_binop sub sub;
        Gen.map (fun x -> Ast.e (Ast.Unop (Ast.Not, x))) sub;
        Gen.map (fun x -> Ast.e (Ast.Unop (Ast.Neg, x))) sub;
        Gen.map (fun xs -> Ast.e (Ast.ListLit xs))
          (Gen.list_size (Gen.int_range 0 4) sub);
        Gen.map (fun xs -> Ast.e (Ast.TupleLit xs))
          (Gen.list_size (Gen.int_range 0 3) sub);
        Gen.map (fun kvs -> Ast.e (Ast.DictLit kvs))
          (Gen.list_size (Gen.int_range 0 3) (Gen.pair sub sub));
        Gen.map2 (fun ps b -> Ast.e (Ast.Lambda (ps, b)))
          (Gen.list_size (Gen.int_range 1 3) gen_name)
          sub;
        Gen.map3 (fun c t f -> Ast.e (Ast.IfExp (c, t, f))) sub sub sub ]

let gen_target =
  Gen.oneof
    [ Gen.map (fun n -> Ast.Tname n) gen_name;
      Gen.map2 (fun b a -> Ast.Tattr (Ast.e (Ast.Name b), a)) gen_name gen_name;
      Gen.map2 (fun b k -> Ast.Tsubscript (Ast.e (Ast.Name b), Ast.e (Ast.Const k)))
        gen_name gen_const;
      Gen.map (fun ns -> Ast.Ttuple (List.map (fun n -> Ast.Tname n) ns))
        (Gen.list_size (Gen.int_range 2 3) gen_name) ]

let rec gen_stmt n =
  let e = gen_expr 2 in
  let block k = Gen.list_size (Gen.int_range 1 2) (gen_stmt k) in
  if n <= 0 then
    Gen.oneof
      [ Gen.map (fun x -> Ast.s (Ast.Expr_stmt x)) e;
        Gen.map2 (fun t x -> Ast.s (Ast.Assign (t, x))) gen_target e;
        Gen.return (Ast.s Ast.Pass);
        Gen.map (fun x -> Ast.s (Ast.Return (Some x))) e;
        Gen.map2 (fun p a -> Ast.s (Ast.Import (p, a)))
          (Gen.list_size (Gen.int_range 1 3) gen_name)
          (Gen.option gen_name);
        Gen.map3
          (fun lvl p ns ->
             (* absolute imports need a non-empty path *)
             let fc_path = if lvl = 0 && p = [] then [ "m" ] else p in
             Ast.s (Ast.From_import ({ Ast.fc_level = lvl; fc_path }, ns)))
          (Gen.int_range 0 2)
          (Gen.list_size (Gen.int_range 0 2) gen_name)
          (Gen.list_size (Gen.int_range 1 3) (Gen.pair gen_name (Gen.option gen_name))) ]
  else
    let sub = block (n - 1) in
    Gen.oneof
      [ Gen.map (fun x -> Ast.s (Ast.Expr_stmt x)) e;
        Gen.map2 (fun t x -> Ast.s (Ast.Assign (t, x))) gen_target e;
        Gen.map3 (fun c b orelse -> Ast.s (Ast.If ([ (c, b) ], orelse)))
          e sub (Gen.oneof [ Gen.return []; sub ]);
        Gen.map2 (fun c b -> Ast.s (Ast.While (c, b))) e sub;
        Gen.map3 (fun t x b -> Ast.s (Ast.For (t, x, b))) gen_target e sub;
        Gen.map3
          (fun nm ps b ->
             Ast.s (Ast.Def { Ast.dname = nm;
                              dparams = List.map (fun p -> { Ast.pname = p;
                                                             pdefault = None }) ps;
                              dbody = b }))
          gen_name
          (Gen.list_size (Gen.int_range 0 3) gen_name)
          sub;
        Gen.map2
          (fun nm b -> Ast.s (Ast.Class { Ast.cname = nm; cbases = []; cbody = b }))
          gen_name sub;
        Gen.map3
          (fun b exc fin ->
             Ast.s (Ast.Try (b, [ { Ast.hexc = Some "ValueError";
                                    hbind = Some exc; hbody = [ Ast.s Ast.Pass ] } ],
                             fin)))
          sub gen_name (Gen.oneof [ Gen.return []; sub ]) ]

let gen_program = Gen.list_size (Gen.int_range 1 8) (gen_stmt 2)

(* duplicate parameter names break re-binding; filter those out *)
let rec program_ok (stmts : Ast.stmt list) =
  List.for_all
    (fun (st : Ast.stmt) ->
       match st.Ast.sdesc with
       | Ast.Def { dparams; dbody; _ } ->
         let names = List.map (fun p -> p.Ast.pname) dparams in
         List.length names = List.length (List.sort_uniq compare names)
         && program_ok dbody
       | Ast.Class { cbody; _ } -> program_ok cbody
       | Ast.If (branches, orelse) ->
         List.for_all (fun (_, b) -> program_ok b) branches && program_ok orelse
       | Ast.While (_, b) | Ast.For (_, _, b) -> program_ok b
       | Ast.Try (b, hs, fin) ->
         program_ok b
         && List.for_all (fun h -> program_ok h.Ast.hbody) hs
         && program_ok fin
       | _ -> true)
    stmts

let roundtrip =
  QCheck2.Test.make ~name:"pretty . parse round-trips" ~count:500 ~print:Pretty.program_to_string gen_program
    (fun prog ->
       QCheck2.assume (program_ok prog);
       let printed = Pretty.program_to_string prog in
       match Parser.parse ~file:"<gen>" printed with
       | reparsed -> Ast_ref.program_equal prog reparsed
       | exception _ -> false)

let pretty_stable =
  QCheck2.Test.make ~name:"pretty is a fixpoint after one round" ~count:300
    gen_program (fun prog ->
        QCheck2.assume (program_ok prog);
        let p1 = Pretty.program_to_string prog in
        match Parser.parse ~file:"<gen>" p1 with
        | reparsed -> String.equal p1 (Pretty.program_to_string reparsed)
        | exception _ -> false)

(* --- DD properties ------------------------------------------------------- *)

let gen_dd_case =
  Gen.bind (Gen.int_range 1 24) (fun n ->
      Gen.map
        (fun needed_mask ->
           let items = List.init n Fun.id in
           let needed = List.filter (fun i -> List.mem i needed_mask) items in
           (items, needed))
        (Gen.list_size (Gen.int_range 0 6) (Gen.int_range 0 (n - 1))))

let dd_monotone_exact =
  QCheck2.Test.make ~name:"DD finds exactly the needed set (monotone oracle)"
    ~count:300 gen_dd_case (fun (items, needed) ->
        let oracle subset = List.for_all (fun x -> List.mem x subset) needed in
        let result, _ = Trim.Dd.minimize ~oracle items in
        List.sort_uniq compare result = List.sort_uniq compare needed)

let dd_one_minimal =
  QCheck2.Test.make ~name:"DD output is 1-minimal and passing" ~count:200
    gen_dd_case (fun (items, needed) ->
        (* non-monotone twist: also pass if the subset is empty *)
        let oracle subset =
          subset = [] || List.for_all (fun x -> List.mem x subset) needed
        in
        let result, _ = Trim.Dd.minimize ~oracle items in
        Dd_ref.is_one_minimal ~oracle result)

let dd_subset =
  QCheck2.Test.make ~name:"DD output is a subset of the input" ~count:200
    gen_dd_case (fun (items, needed) ->
        let oracle subset = List.for_all (fun x -> List.mem x subset) needed in
        let result, _ = Trim.Dd.minimize ~oracle items in
        List.for_all (fun x -> List.mem x items) result)

(* --- attrs properties ---------------------------------------------------- *)

let attrs_restrict_sound =
  (* a surviving binding is kept, magic, or co-bound in a tuple assignment
     with a kept name (tuple targets are removed all-or-nothing) *)
  QCheck2.Test.make ~name:"restrict keeps only kept/magic/tuple-co-bound"
    ~count:300
    (Gen.pair gen_program (Gen.list_size (Gen.int_range 0 4) gen_name))
    (fun (prog, keep_list) ->
       QCheck2.assume (program_ok prog);
       let keep =
         List.fold_left (fun s x -> Trim.Attrs.String_set.add x s)
           Trim.Attrs.String_set.empty keep_list
       in
       let ok_name a = Trim.Attrs.is_magic a || Trim.Attrs.String_set.mem a keep in
       let restricted = Trim.Attrs.restrict prog ~keep in
       List.for_all
         (fun (st : Minipy.Ast.stmt) ->
            match Trim.Attrs.bound_names st with
            | [] -> true
            | names ->
              (match st.Minipy.Ast.sdesc with
               | Minipy.Ast.Assign (Minipy.Ast.Ttuple _, _) ->
                 List.exists ok_name names
               | _ -> List.for_all ok_name names))
         restricted)

let attrs_restrict_idempotent =
  QCheck2.Test.make ~name:"restrict is idempotent" ~count:300
    (Gen.pair gen_program (Gen.list_size (Gen.int_range 0 4) gen_name))
    (fun (prog, keep_list) ->
       QCheck2.assume (program_ok prog);
       let keep =
         List.fold_left (fun s x -> Trim.Attrs.String_set.add x s)
           Trim.Attrs.String_set.empty keep_list
       in
       let once = Trim.Attrs.restrict prog ~keep in
       let twice = Trim.Attrs.restrict once ~keep in
       Ast_ref.program_equal once twice)

let attrs_full_keep_identity =
  QCheck2.Test.make ~name:"restrict to all attrs is identity" ~count:300
    gen_program (fun prog ->
        QCheck2.assume (program_ok prog);
        let keep =
          List.fold_left (fun s x -> Trim.Attrs.String_set.add x s)
            Trim.Attrs.String_set.empty
            (Trim.Attrs.attrs_of_program prog)
        in
        Ast_ref.program_equal prog (Trim.Attrs.restrict prog ~keep))

(* --- pricing / scoring properties ---------------------------------------- *)

let gen_pos = Gen.map (fun i -> float_of_int i /. 4.0) (Gen.int_range 1 100_000)

let pricing_monotone =
  QCheck2.Test.make ~name:"cost monotone in duration and memory" ~count:300
    (Gen.quad gen_pos gen_pos gen_pos gen_pos)
    (fun (d1, d2, m1, m2) ->
       let lo_d = Float.min d1 d2 and hi_d = Float.max d1 d2 in
       let lo_m = Float.min m1 m2 and hi_m = Float.max m1 m2 in
       let c d m = Platform.Pricing.invocation_cost Platform.Pricing.aws
           ~duration_ms:d ~memory_mb:m
       in
       c lo_d lo_m <= c hi_d lo_m +. 1e-15 && c lo_d lo_m <= c lo_d hi_m +. 1e-15)

let billed_duration_props =
  QCheck2.Test.make ~name:"billed duration rounds up to granularity" ~count:300
    gen_pos (fun d ->
        let b = Platform.Pricing.billed_duration_ms Platform.Pricing.aws d in
        b >= d -. 1e-9 && b -. d < 1.0 +. 1e-9
        && Float.rem b 1.0 < 1e-9)

let eq2_monotone =
  QCheck2.Test.make ~name:"marginal monetary cost monotone in t and m"
    ~count:300
    (Gen.quad gen_pos gen_pos gen_pos gen_pos)
    (fun (total_ms, total_mb, t, m) ->
       let t = Float.min t total_ms and m = Float.min m total_mb in
       let c = Trim.Scoring.marginal_monetary_cost ~total_ms ~total_mb in
       c ~t ~m <= c ~t:total_ms ~m +. 1e-6
       && c ~t ~m <= c ~t ~m:total_mb +. 1e-6)

(* --- trace properties ----------------------------------------------------- *)

let trace_replay_total =
  QCheck2.Test.make ~name:"replay accounts for every arrival" ~count:200
    (Gen.pair (Gen.int_range 0 1000) (Gen.int_range 1 50))
    (fun (seed, rate_x) ->
       let t =
         Platform.Trace.poisson ~seed ~rate_per_s:(float_of_int rate_x /. 100.0)
           ~duration_s:5000.0 ~name:"prop"
       in
       let r = Platform.Trace.replay t ~keep_alive_s:600.0 in
       r.Platform.Trace.cold_starts + r.Platform.Trace.warm_starts
       = Platform.Trace.length t)

let trace_keepalive_monotone =
  QCheck2.Test.make ~name:"warm starts monotone in keep-alive" ~count:100
    (Gen.int_range 0 1000)
    (fun seed ->
       let t =
         Platform.Trace.poisson ~seed ~rate_per_s:0.005 ~duration_s:50_000.0
           ~name:"prop"
       in
       let warm k =
         (Platform.Trace.replay t ~keep_alive_s:k).Platform.Trace.warm_starts
       in
       warm 60.0 <= warm 300.0 && warm 300.0 <= warm 1800.0)

(* --- percentiles off one sort ------------------------------------------- *)

(* [sort_samples] + [percentile_sorted] against the list reference
   ([Metrics_ref]): bit-identical answers at several ranks off one sort,
   on lists with duplicates, NaNs, infinities and both zeros, empty and
   singleton ones included, and the same NaN count in
   [platform.metrics.nan_dropped]. *)
let percentile_one_sort =
  let sample =
    Gen.frequency
      [ (4, Gen.map float_of_int (Gen.int_range (-3) 3));
        (3, Gen.float_range (-1e3) 1e3);
        (2, Gen.oneofl [ Float.nan; infinity; neg_infinity; 0.0; -0.0 ]);
        (1, Gen.float) ]
  in
  let ps =
    Gen.map
      (fun r -> [ 0.0; 50.0; 95.0; 99.0; 100.0; r ])
      (Gen.float_range 0.0 100.0)
  in
  let nan_dropped =
    Obs.Metrics.counter Obs.Metrics.global "platform.metrics.nan_dropped"
  in
  QCheck2.Test.make ~name:"sort-once percentiles = list reference" ~count:500
    ~print:(fun (xs, ps) ->
        Printf.sprintf "[%s] at [%s]"
          (String.concat "; " (List.map (Printf.sprintf "%h") xs))
          (String.concat "; " (List.map (Printf.sprintf "%g") ps)))
    (Gen.pair (Gen.list_size (Gen.int_range 0 40) sample) ps)
    (fun (xs, ps) ->
       let before = Obs.Metrics.value nan_dropped in
       let sorted = Platform.Metrics.sort_samples (Float.Array.of_list xs) in
       let counted = Obs.Metrics.value nan_dropped - before in
       let bits = Int64.bits_of_float in
       List.for_all
         (fun p ->
            let expected, dropped = Metrics_ref.percentile p xs in
            counted = dropped
            && bits (Platform.Metrics.percentile_sorted p sorted)
               = bits expected
            && bits (Platform.Metrics.percentile p xs) = bits expected)
         ps)

let to_alcotest = List.map (QCheck_alcotest.to_alcotest ~long:false)

let suite =
  [ ("properties.parser", to_alcotest [ roundtrip; pretty_stable ]);
    ("properties.dd", to_alcotest [ dd_monotone_exact; dd_one_minimal; dd_subset ]);
    ("properties.attrs",
     to_alcotest
       [ attrs_restrict_sound; attrs_restrict_idempotent; attrs_full_keep_identity ]);
    ("properties.pricing",
     to_alcotest [ pricing_monotone; billed_duration_props; eq2_monotone ]);
    ("properties.trace", to_alcotest [ trace_replay_total; trace_keepalive_monotone ]);
    ("properties.metrics", to_alcotest [ percentile_one_sort ]) ]

(* --- json properties ------------------------------------------------------ *)

let rec gen_json_value n =
  if n <= 0 then
    Gen.oneof
      [ Gen.return Value.Vnone;
        Gen.map (fun b -> Value.Vbool b) Gen.bool;
        Gen.map (fun i -> Value.Vint i) (Gen.int_range (-10_000) 10_000);
        Gen.map (fun i -> Value.Vfloat (float_of_int i /. 8.0))
          (Gen.int_range (-1000) 1000);
        Gen.map (fun s -> Value.Vstr s)
          (Gen.small_string ~gen:(Gen.char_range 'a' 'z')) ]
  else
    let sub = gen_json_value (n / 2) in
    Gen.oneof
      [ gen_json_value 0;
        Gen.map
          (fun xs -> Value.Vlist { Value.items = Array.of_list xs })
          (Gen.list_size (Gen.int_range 0 4) sub);
        Gen.map
          (fun kvs ->
             (* distinct string keys: JSON objects cannot hold duplicates *)
             let seen = Hashtbl.create 8 in
             let pairs =
               List.filter_map
                 (fun (k, v) ->
                    if Hashtbl.mem seen k then None
                    else begin
                      Hashtbl.replace seen k ();
                      Some (Value.Vstr k, v)
                    end)
                 kvs
             in
             Value.Vdict { Value.pairs })
          (Gen.list_size (Gen.int_range 0 4)
             (Gen.pair (Gen.small_string ~gen:(Gen.char_range 'a' 'z')) sub)) ]

let json_roundtrip =
  QCheck2.Test.make ~name:"json loads . dumps round-trips" ~count:300
    (gen_json_value 3)
    (fun v ->
       let v' = Json_support.loads (Json_support.dumps v) in
       Value.equal v v')

let json_dumps_stable =
  QCheck2.Test.make ~name:"json dumps is a fixpoint after one round" ~count:300
    (gen_json_value 3)
    (fun v ->
       let s1 = Json_support.dumps v in
       String.equal s1 (Json_support.dumps (Json_support.loads s1)))

(* --- interpreter determinism ---------------------------------------------- *)

let interp_deterministic =
  QCheck2.Test.make ~name:"interpreter is deterministic" ~count:100 gen_program
    (fun prog ->
       QCheck2.assume (program_ok prog);
       let run () =
         let t = Interp.create ~max_steps:50_000 (Vfs.create ()) in
         let out =
           match Interp.exec_main t prog with
           | _ -> Interp.stdout_contents t
           | exception Value.Py_error e -> "ERR:" ^ e.Value.exc_class
           | exception Interp.Timeout _ -> "TIMEOUT"
           | exception _ -> "OTHER"
         in
         (out, t.Interp.vtime_ms, t.Interp.heap_bytes)
       in
       run () = run ())

let suite =
  suite
  @ [ ("properties.json", to_alcotest [ json_roundtrip; json_dumps_stable ]);
      ("properties.interp", to_alcotest [ interp_deterministic ]) ]

(* --- end-to-end pipeline fuzzing ------------------------------------------ *)

(* Random synthetic deployments: a generated library plus a handler that uses
   a random subset of its API. The pipeline must always produce an oracle-
   passing image, and every attribute the handler names must survive. *)

type fuzz_case = {
  fz_attrs : int;
  fz_needed : int;
  fz_heavies : int;
  fz_api_used : int list;   (* filler API indices the handler calls *)
  fz_event_x : int;
}

let gen_fuzz_case =
  Gen.bind (Gen.int_range 14 40) (fun attrs ->
      Gen.bind (Gen.int_range 1 3) (fun needed ->
          Gen.bind (Gen.int_range 1 3) (fun heavies ->
              Gen.bind
                (Gen.list_size (Gen.int_range 0 3) (Gen.int_range 0 3))
                (fun api_used ->
                   Gen.map
                     (fun x ->
                        { fz_attrs = attrs; fz_needed = needed;
                          fz_heavies = heavies;
                          fz_api_used = List.sort_uniq compare api_used;
                          fz_event_x = x })
                     (Gen.int_range 0 20)))))

let fuzz_deployment (c : fuzz_case) =
  let libspec =
    Workloads.Libspec.spec ~name:"fuzzlib" ~import_ms:20.0 ~alloc_mb:4.0
      ~image_mb:0.5 ~attrs:c.fz_attrs ~needed_funcs:c.fz_needed
      ~removable_time_frac:0.6 ~removable_mem_frac:0.5
      ~heavy_subs:c.fz_heavies ~exec_ms:1.0 ()
  in
  let vfs = Minipy.Vfs.create () in
  Workloads.Libspec.install libspec vfs;
  let api_calls =
    String.concat ""
      (List.map
         (fun i -> Printf.sprintf "  acc = fuzzlib.api_%d(acc)\n" i)
         (List.filter
            (fun i -> i < Workloads.Libspec.filler_count libspec)
            c.fz_api_used))
  in
  let handler =
    Printf.sprintf
      "import fuzzlib\n\
       def handler(event, context):\n\
      \  acc = event.get(\"x\", 1)\n\
      \  acc = fuzzlib.f0(acc)\n\
       %s\
      \  result = fuzzlib.run_task(acc)\n\
      \  print(\"fuzz:\", result)\n\
      \  return result\n"
      api_calls
  in
  Minipy.Vfs.add_file vfs "handler.py" handler;
  Platform.Deployment.make ~name:"fuzz" ~vfs ~handler_file:"handler.py"
    ~handler_name:"handler"
    ~test_cases:
      [ Platform.Deployment.test_case ~name:"t1"
          (Printf.sprintf "{\"x\": %d}" c.fz_event_x) ]

let pipeline_fuzz =
  QCheck2.Test.make ~name:"pipeline output always passes its oracle" ~count:25
    gen_fuzz_case
    (fun c ->
       let d = fuzz_deployment c in
       let report =
         Trim.Pipeline.run
           ~options:{ Trim.Pipeline.default_options with k = 4 } d
       in
       let oracle, _ = Trim.Oracle.for_reference d in
       oracle report.Trim.Pipeline.optimized)

let pipeline_fuzz_keeps_used =
  QCheck2.Test.make
    ~name:"pipeline never removes attributes the handler names" ~count:25
    gen_fuzz_case
    (fun c ->
       let d = fuzz_deployment c in
       let report =
         Trim.Pipeline.run
           ~options:{ Trim.Pipeline.default_options with k = 4 } d
       in
       let removed =
         List.concat_map
           (fun m -> m.Trim.Debloater.removed_attrs)
           report.Trim.Pipeline.module_results
       in
       let used =
         "f0" :: "run_task"
         :: List.map (fun i -> Printf.sprintf "api_%d" i)
              (List.filter
                 (fun i ->
                    i
                    < Workloads.Libspec.filler_count
                        (Workloads.Libspec.spec ~name:"fuzzlib" ~import_ms:20.0
                           ~alloc_mb:4.0 ~image_mb:0.5 ~attrs:c.fz_attrs
                           ~needed_funcs:c.fz_needed
                           ~removable_time_frac:0.6 ~removable_mem_frac:0.5
                           ~heavy_subs:c.fz_heavies ~exec_ms:1.0 ()))
                 c.fz_api_used)
       in
       List.for_all (fun u -> not (List.mem u removed)) used)

let suite =
  suite
  @ [ ("properties.pipeline_fuzz",
       to_alcotest [ pipeline_fuzz; pipeline_fuzz_keeps_used ]) ]

(* --- per-layer vfs memos against the chain-walking reference -------------- *)

(* One edit of a layer chain: a rewrite, a phantom, a comparison of every
   whole-image answer (which takes the digest the next edits must
   invalidate), or a new overlay on top. Paths come from a small pool with
   shared and near-miss prefixes. *)
type vfs_op =
  | Write of int * int
  | Phantom of int * int
  | Check
  | Overlay

let vfs_pool =
  [| "handler.py"; "lib/__init__.py"; "lib/a.py"; "lib/sub/b.py";
     "lib2/c.py"; "libx.py"; "lib/sub/deep/d.py" |]

let vfs_prefixes = [ ""; "lib"; "lib/sub"; "lib2"; "libx"; "nosuch" ]

let gen_vfs_op =
  let path = Gen.int_bound (Array.length vfs_pool - 1) in
  Gen.frequency
    [ (5, Gen.map2 (fun p c -> Write (p, c)) path (Gen.int_bound 5));
      (1, Gen.map2 (fun p b -> Phantom (p, b)) path (Gen.int_bound 4096));
      (3, Gen.return Check);
      (2, Gen.return Overlay) ]

let vfs_answers_match v r =
  Vfs.image_digest v = Vfs_ref.image_digest r
  && Vfs.image_mb v = float_of_int (Vfs_ref.image_bytes r) /. (1024.0 *. 1024.0)
  && Vfs.paths v = Vfs_ref.paths r
  && List.for_all
       (fun p -> Vfs.files_under v p = Vfs_ref.files_under r p)
       vfs_prefixes
  && Vfs.image_digest (Vfs.copy v) = Vfs_ref.image_digest r

let vfs_layer_memos =
  QCheck2.Test.make ~count:300
    ~name:"per-layer image digest, size and listings equal the chain walk"
    (Gen.list_size (Gen.int_range 1 40) gen_vfs_op)
    (fun ops ->
       let v = ref (Vfs.create ()) and r = ref (Vfs_ref.create ()) in
       (* every frozen layer below the top, to re-check at the end *)
       let below = ref [] in
       let ok =
         List.for_all
           (fun op ->
              match op with
              | Write (p, c) ->
                let content = Printf.sprintf "x = %d\n" c in
                Vfs.add_file !v vfs_pool.(p) content;
                Vfs_ref.add_file !r vfs_pool.(p) content;
                true
              | Phantom (p, bytes) ->
                Vfs.add_phantom !v (vfs_pool.(p) ^ ".so") ~bytes;
                Vfs_ref.add_phantom !r (vfs_pool.(p) ^ ".so") ~bytes;
                true
              | Check -> vfs_answers_match !v !r
              | Overlay ->
                below := (!v, !r) :: !below;
                v := Vfs.overlay !v;
                r := Vfs_ref.overlay !r;
                true)
           ops
       in
       ok
       && List.for_all (fun (v, r) -> vfs_answers_match v r)
            ((!v, !r) :: !below))

(* --- early exit and kept reads on generated libraries --------------------- *)

(* A fuzz deployment with 1-3 test cases, and a random subset of its
   library's attributes kept: DD's candidate shape. *)
let gen_oracle_case =
  Gen.triple gen_fuzz_case
    (Gen.list_size (Gen.int_range 1 3) (Gen.int_range 0 40))
    (Gen.pair (Gen.oneofl [ 0.2; 0.5; 0.8; 1.0 ])
       (Gen.array_size (Gen.return 64) (Gen.float_bound_exclusive 1.0)))

let oracle_case (c, xs, (p, coins)) =
  let d = fuzz_deployment c in
  let d =
    { d with
      Platform.Deployment.test_cases =
        List.mapi
          (fun i x ->
             Platform.Deployment.test_case ~name:(Printf.sprintf "t%d" i)
               (Printf.sprintf "{\"x\": %d}" x))
          xs }
  in
  let file =
    Option.get (Importer.init_file_of d.Platform.Deployment.vfs "fuzzlib")
  in
  let attrs =
    Trim.Attrs.attrs_of_program
      (Parse_cache.parse_vfs d.Platform.Deployment.vfs file)
  in
  let keep = List.filteri (fun j _ -> coins.(j mod 64) < p) attrs in
  (d, Trim.Debloater.with_restricted d ~file ~keep)

let lookups c = Trim.Oracle.Cache.hits c + Trim.Oracle.Cache.misses c

let early_exit_verdict =
  QCheck2.Test.make ~count:40
    ~name:"early-exit verdict = equivalent (observe candidate) expected"
    gen_oracle_case
    (fun case ->
       let d, candidate = oracle_case case in
       let c = Trim.Oracle.Cache.create () in
       let oracle, expected = Trim.Oracle.for_reference ~cache:c d in
       let full =
         Trim.Oracle.observe
           ~cache:(Trim.Oracle.Cache.create ~enabled:false ())
           candidate
       in
       let l0 = lookups c in
       let verdict = oracle candidate in
       (* the query stops at its first mismatch: its lookups are the test
          cases up to and including it *)
       let rec upto_mismatch n = function
         | (_, o) :: rest, (_, o') :: rest' ->
           if String.equal o o' then upto_mismatch (n + 1) (rest, rest')
           else n + 1
         | _ -> n
       in
       let off = Trim.Oracle.Cache.create ~enabled:false () in
       let oracle_off, _ = Trim.Oracle.for_reference ~cache:off d in
       verdict = Trim.Oracle.equivalent full expected
       && lookups c - l0 = upto_mismatch 0 (full.per_test, expected.per_test)
       && oracle_off candidate = verdict
       && lookups off = 0)

let module_names = [ "fuzzlib"; "fuzzlib._core"; "fuzzlib._api"; "nosuch" ]

let kept_reads_profile =
  QCheck2.Test.make ~count:40
    ~name:"a profile from kept reads equals a fresh one on a private memo"
    gen_oracle_case
    (fun case ->
       let d, candidate = oracle_case case in
       let c = Trim.Oracle.Cache.create () in
       let oracle, _ = Trim.Oracle.for_reference ~cache:c d in
       (* the image whose reads this run kept last: the candidate when it
          passed, else the reference *)
       let last = if oracle candidate then candidate else d in
       let fresh =
         List.map
           (fun module_name ->
              Trim.Oracle.module_reads ~cache:(Trim.Oracle.Cache.create ())
                last ~module_name)
           module_names
       in
       let counts () =
         (Trim.Oracle.Cache.hits c, Trim.Oracle.Cache.misses c)
       in
       let reads () =
         List.map
           (fun module_name ->
              Trim.Oracle.module_reads ~cache:c last ~module_name)
           module_names
       in
       (* answered from the kept reads: neither a hit nor a miss *)
       let before = counts () in
       let kept = reads () in
       let uncounted = counts () = before in
       (* a new run starts with nothing kept (its reference is a memo hit),
          so the same profiles now come from the memo: all hits *)
       ignore (Trim.Oracle.for_reference ~cache:c d);
       let h0, m0 = counts () in
       let memo = reads () in
       let h1, m1 = counts () in
       kept = fresh && uncounted && memo = fresh && m1 = m0
       && h1 - h0
          = List.length module_names
            * List.length last.Platform.Deployment.test_cases)

let suite =
  suite
  @ [ ("properties.vfs", to_alcotest [ vfs_layer_memos ]);
      ("properties.oracle", to_alcotest [ early_exit_verdict; kept_reads_profile ]) ]
