(* Delta Debugging: Algorithm 1 behaviour on synthetic oracles. *)

let contains_all needed subset = List.for_all (fun x -> List.mem x subset) needed

(* Oracle: passes iff the subset contains all of [needed]. Monotone, the
   common case for debloating. *)
let needs needed subset = contains_all needed subset

open Trim

let check_minimize name items needed =
  Alcotest.test_case name `Quick (fun () ->
      let result, _ = Dd.minimize ~oracle:(needs needed) items
      and sort = List.sort compare in
      Alcotest.(check (list int)) "finds exactly the needed set" (sort needed)
        (sort result))

let minimize_cases =
  [ check_minimize "single needed of 6" [ 1; 2; 3; 4; 5; 6 ] [ 4 ];
    check_minimize "two needed" [ 1; 2; 3; 4; 5; 6 ] [ 2; 5 ];
    check_minimize "all needed" [ 1; 2; 3 ] [ 1; 2; 3 ];
    check_minimize "none needed" [ 1; 2; 3; 4 ] [];
    check_minimize "adjacent needed" [ 1; 2; 3; 4; 5; 6; 7; 8 ] [ 3; 4 ];
    check_minimize "spread needed" (List.init 32 Fun.id) [ 0; 15; 31 ];
    check_minimize "single element list" [ 9 ] [ 9 ];
    check_minimize "empty list" [] [];
    check_minimize "large mostly removable" (List.init 100 Fun.id) [ 37 ] ]

let fig6 =
  [ Alcotest.test_case "fig6 torch walkthrough" `Quick (fun () ->
        (* §6.2: six attributes; MSELoss and SGD are redundant *)
        let attrs = [ "tensor"; "add"; "view"; "Linear"; "SGD"; "MSELoss" ] in
        let needed = [ "tensor"; "add"; "view"; "Linear" ] in
        let result, stats = Dd.minimize ~oracle:(needs needed) attrs in
        Alcotest.(check (list string)) "keeps the four used attrs"
          (List.sort compare needed)
          (List.sort compare result);
        Alcotest.(check bool) "used multiple granularity rounds" true
          (stats.Dd.iterations > 1)) ]

let one_minimality =
  [ Alcotest.test_case "result is 1-minimal (monotone oracle)" `Quick (fun () ->
        let oracle = needs [ 2; 7; 11 ] in
        let result, _ = Dd.minimize ~oracle (List.init 16 Fun.id) in
        Alcotest.(check bool) "1-minimal" true (Dd_ref.is_one_minimal ~oracle result));
    Alcotest.test_case "result is 1-minimal (non-monotone oracle)" `Quick
      (fun () ->
        (* passes iff contains 3 AND (contains 5 XOR contains 6) — full set
           must pass for DD's precondition, so: contains 3 and (5 or 6) *)
        let oracle subset =
          List.mem 3 subset && (List.mem 5 subset || List.mem 6 subset)
        in
        let result, _ = Dd.minimize ~oracle (List.init 10 Fun.id) in
        Alcotest.(check bool) "passes" true (oracle result);
        Alcotest.(check bool) "1-minimal" true (Dd_ref.is_one_minimal ~oracle result)) ]

let mechanics =
  [ Alcotest.test_case "partitions cover and are disjoint" `Quick (fun () ->
        let items = List.init 11 Fun.id in
        List.iter
          (fun n ->
             let parts = Dd_ref.partitions items n in
             let flat = List.concat parts in
             Alcotest.(check (list int)) "cover" items (List.sort compare flat);
             Alcotest.(check bool) "count <= n" true (List.length parts <= n))
          [ 1; 2; 3; 4; 5; 11 ]);
    Alcotest.test_case "partition count for n > len collapses" `Quick (fun () ->
        let parts = Dd_ref.partitions [ 1; 2 ] 5 in
        Alcotest.(check int) "two singleton parts" 2 (List.length parts));
    Alcotest.test_case "complement" `Quick (fun () ->
        Alcotest.(check (list int)) "complement" [ 1; 3 ]
          (Dd_ref.complement ~of_:[ 1; 2; 3; 4 ] [ 2; 4 ]));
    Alcotest.test_case "oracle memoization avoids duplicate queries" `Quick
      (fun () ->
        let queries = ref [] in
        let oracle subset =
          queries := subset :: !queries;
          contains_all [ 0 ] subset
        in
        let _, stats = Dd.minimize ~oracle (List.init 12 Fun.id) in
        let distinct =
          List.sort_uniq compare (List.map (List.sort compare) !queries)
        in
        Alcotest.(check int) "every actual query is distinct"
          (List.length distinct) stats.Dd.oracle_queries);
    Alcotest.test_case "on_step observes every query" `Quick (fun () ->
        let steps = ref 0 in
        let _, stats =
          Dd.minimize
            ~on_step:(fun _ -> incr steps)
            ~oracle:(needs [ 1 ])
            [ 0; 1; 2; 3 ]
        in
        Alcotest.(check int) "steps = queries" stats.Dd.oracle_queries !steps);
    Alcotest.test_case "query count stays near linear for single target" `Quick
      (fun () ->
        (* ddmin is O(n log n) in the best case; ensure no exponential blowup *)
        let n = 256 in
        let _, stats = Dd.minimize ~oracle:(needs [ 100 ]) (List.init n Fun.id) in
        Alcotest.(check bool)
          (Printf.sprintf "queries %d < 20n" stats.Dd.oracle_queries)
          true
          (stats.Dd.oracle_queries < 20 * n)) ]

let duplicates =
  [ Alcotest.test_case "duplicate items are removed positionally" `Quick
      (fun () ->
        (* [5; 5] passes a mem-oracle but is not 1-minimal: dropping either
           copy still passes. The former physical-inequality filter removed
           both structurally equal copies at once, so the oracle saw [] and
           the doubleton was wrongly judged minimal. *)
        let oracle subset = List.mem 5 subset in
        Alcotest.(check bool) "[5] is 1-minimal" true
          (Dd_ref.is_one_minimal ~oracle [ 5 ]);
        Alcotest.(check bool) "[5; 5] is not 1-minimal" false
          (Dd_ref.is_one_minimal ~oracle [ 5; 5 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"mem-oracle: 1-minimal iff exactly the needed singleton"
         (* a tiny value domain so duplicates and hits are common *)
         QCheck.(pair (int_bound 3) (small_list (int_bound 3)))
         (fun (t, l) ->
            let oracle subset = List.mem t subset in
            Dd_ref.is_one_minimal ~oracle l = (l = [ t ]))) ]

let suite =
  [ ("dd.minimize", minimize_cases);
    ("dd.fig6", fig6);
    ("dd.one_minimality", one_minimality);
    ("dd.duplicates", duplicates);
    ("dd.mechanics", mechanics) ]
