(* Scoring: Eq. 2 marginal monetary cost and the ranking methods of §8.2. *)

open Trim

let tiny = Workloads.Suite.tiny_app ()

let eq2 =
  [ Alcotest.test_case "marginal cost formula" `Quick (fun () ->
        (* T=10, M=8, t=2, m=3: TM - (T-t)(M-m) = 80 - 8*5 = 40 *)
        Alcotest.(check (float 1e-9)) "value" 40.0
          (Scoring.marginal_monetary_cost ~total_ms:10.0 ~total_mb:8.0 ~t:2.0
             ~m:3.0));
    Alcotest.test_case "removing everything saves the whole bill" `Quick
      (fun () ->
        Alcotest.(check (float 1e-9)) "TM" 80.0
          (Scoring.marginal_monetary_cost ~total_ms:10.0 ~total_mb:8.0 ~t:10.0
             ~m:8.0));
    Alcotest.test_case "zero-footprint module scores by time leverage" `Quick
      (fun () ->
        (* the §5.2 strawman: slow but memoryless module *)
        let slow_no_mem =
          Scoring.marginal_monetary_cost ~total_ms:10.0 ~total_mb:8.0 ~t:5.0
            ~m:0.0
        in
        let balanced =
          Scoring.marginal_monetary_cost ~total_ms:10.0 ~total_mb:8.0 ~t:3.0
            ~m:3.0
        in
        Alcotest.(check bool) "balanced beats time-only pathological" true
          (balanced > slow_no_mem)) ]

let ranking =
  [ Alcotest.test_case "combined ranks root module first" `Quick (fun () ->
        let r = Profiler.profile tiny in
        match Scoring.rank Scoring.Combined r with
        | first :: _ ->
          Alcotest.(check string) "root" "tinylib" first.Profiler.mp_name
        | [] -> Alcotest.fail "empty ranking");
    Alcotest.test_case "top_k truncates" `Quick (fun () ->
        let r = Profiler.profile tiny in
        Alcotest.(check int) "k=2" 2
          (List.length (Scoring.top_k Scoring.Combined r ~k:2)));
    Alcotest.test_case "time method orders by import time" `Quick (fun () ->
        let r = Profiler.profile tiny in
        let ranked = Scoring.rank Scoring.Time r in
        let times = List.map (fun m -> m.Profiler.mp_incl_ms) ranked in
        Alcotest.(check (list (float 1e-9))) "descending"
          (List.sort (fun a b -> compare b a) times)
          times);
    Alcotest.test_case "memory method orders by footprint" `Quick (fun () ->
        let r = Profiler.profile tiny in
        let ranked = Scoring.rank Scoring.Memory r in
        let mems = List.map (fun m -> m.Profiler.mp_incl_mb) ranked in
        Alcotest.(check (list (float 1e-9))) "descending"
          (List.sort (fun a b -> compare b a) mems)
          mems);
    Alcotest.test_case "random method is deterministic per seed" `Quick
      (fun () ->
        let r = Profiler.profile tiny in
        let names m = List.map (fun x -> x.Profiler.mp_name) m in
        Alcotest.(check (list string)) "same seed same order"
          (names (Scoring.rank (Scoring.Random 7) r))
          (names (Scoring.rank (Scoring.Random 7) r)));
    Alcotest.test_case "method names are distinct" `Quick (fun () ->
        (* the CLI parses -s/--scoring against these names *)
        Alcotest.(check (list string)) "names"
          [ "combined"; "memory"; "random"; "time" ]
          (List.sort_uniq compare
             (List.map Scoring.method_name
                Scoring.[ Combined; Time; Memory; Random 42 ]))) ]

let suite = [ ("scoring.eq2", eq2); ("scoring.ranking", ranking) ]
