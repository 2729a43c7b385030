(* Value semantics: display/repr, equality, ordering, allocation costs,
   class machinery. *)

open Minipy.Value

let v_list xs = Vlist { items = Array.of_list xs }
let v_dict kvs = Vdict { pairs = kvs }

let display =
  [ Alcotest.test_case "scalars" `Quick (fun () ->
        Alcotest.(check string) "none" "None" (to_display Vnone);
        Alcotest.(check string) "true" "True" (to_display (Vbool true));
        Alcotest.(check string) "int" "-7" (to_display (Vint (-7)));
        Alcotest.(check string) "float int" "2.0" (to_display (Vfloat 2.0));
        Alcotest.(check string) "float frac" "2.5" (to_display (Vfloat 2.5));
        Alcotest.(check string) "str bare" "hi" (to_display (Vstr "hi")));
    Alcotest.test_case "repr quotes strings" `Quick (fun () ->
        Alcotest.(check string) "quoted" "'hi'" (to_repr (Vstr "hi")));
    Alcotest.test_case "containers repr like python" `Quick (fun () ->
        Alcotest.(check string) "list" "[1, 'a']"
          (to_repr (v_list [ Vint 1; Vstr "a" ]));
        Alcotest.(check string) "singleton tuple" "(1,)"
          (to_repr (Vtuple [| Vint 1 |]));
        Alcotest.(check string) "dict" "{'k': [1]}"
          (to_repr (v_dict [ (Vstr "k", v_list [ Vint 1 ]) ])));
    Alcotest.test_case "nested display uses repr inside" `Quick (fun () ->
        Alcotest.(check string) "inner quoted" "['a']"
          (to_display (v_list [ Vstr "a" ]))) ]

let equality =
  [ Alcotest.test_case "int float cross equality" `Quick (fun () ->
        Alcotest.(check bool) "1 == 1.0" true (equal (Vint 1) (Vfloat 1.0));
        Alcotest.(check bool) "1 != 1.5" false (equal (Vint 1) (Vfloat 1.5)));
    Alcotest.test_case "structural list equality" `Quick (fun () ->
        Alcotest.(check bool) "equal" true
          (equal (v_list [ Vint 1; Vint 2 ]) (v_list [ Vint 1; Vint 2 ]));
        Alcotest.(check bool) "length differs" false
          (equal (v_list [ Vint 1 ]) (v_list [ Vint 1; Vint 2 ])));
    Alcotest.test_case "dict equality is order-insensitive" `Quick (fun () ->
        let a = v_dict [ (Vstr "x", Vint 1); (Vstr "y", Vint 2) ] in
        let b = v_dict [ (Vstr "y", Vint 2); (Vstr "x", Vint 1) ] in
        Alcotest.(check bool) "equal" true (equal a b));
    Alcotest.test_case "functions compare physically" `Quick (fun () ->
        let f =
          Vfunc { fname = "f"; fparams = []; fbody = []; fglobals = Hashtbl.create 1;
                  fmodule = "m" }
        in
        Alcotest.(check bool) "same" true (equal f f)) ]

let ordering =
  [ Alcotest.test_case "numeric and lexicographic" `Quick (fun () ->
        Alcotest.(check bool) "1 < 2" true (compare_values (Vint 1) (Vint 2) < 0);
        Alcotest.(check bool) "1 < 1.5" true
          (compare_values (Vint 1) (Vfloat 1.5) < 0);
        Alcotest.(check bool) "abc < abd" true
          (compare_values (Vstr "abc") (Vstr "abd") < 0));
    Alcotest.test_case "list ordering is elementwise then length" `Quick
      (fun () ->
        Alcotest.(check bool) "prefix smaller" true
          (compare_values (v_list [ Vint 1 ]) (v_list [ Vint 1; Vint 0 ]) < 0));
    Alcotest.test_case "incomparable types raise TypeError" `Quick (fun () ->
        match compare_values (Vint 1) (Vstr "a") with
        | _ -> Alcotest.fail "expected TypeError"
        | exception Py_error e ->
          Alcotest.(check string) "class" "TypeError" e.exc_class) ]

let truthiness =
  [ Alcotest.test_case "falsy values" `Quick (fun () ->
        List.iter
          (fun v -> Alcotest.(check bool) "falsy" false (truthy v))
          [ Vnone; Vbool false; Vint 0; Vfloat 0.0; Vstr ""; v_list [];
            Vtuple [||]; v_dict [] ]);
    Alcotest.test_case "truthy values" `Quick (fun () ->
        List.iter
          (fun v -> Alcotest.(check bool) "truthy" true (truthy v))
          [ Vbool true; Vint (-1); Vfloat 0.5; Vstr "x"; v_list [ Vnone ] ]) ]

let allocation =
  [ Alcotest.test_case "bigger strings cost more" `Quick (fun () ->
        Alcotest.(check bool) "monotone" true
          (bytes_of_alloc (Vstr "aaaa") > bytes_of_alloc (Vstr "a")));
    Alcotest.test_case "longer lists cost more" `Quick (fun () ->
        Alcotest.(check bool) "monotone" true
          (bytes_of_alloc (v_list [ Vint 1; Vint 2 ])
           > bytes_of_alloc (v_list [ Vint 1 ])));
    Alcotest.test_case "classes cost more than instances" `Quick (fun () ->
        let cls = { cname = "C"; cattrs = Hashtbl.create 1; cbases = [];
                    cmodule = "m" }
        in
        Alcotest.(check bool) "class > instance" true
          (bytes_of_alloc (Vclass cls)
           > bytes_of_alloc (Vinstance { icls = cls; iattrs = Hashtbl.create 1 }))) ]

let classes =
  [ Alcotest.test_case "class_lookup searches bases depth-first" `Quick
      (fun () ->
        let base = { cname = "Base"; cattrs = Hashtbl.create 2; cbases = [];
                     cmodule = "m" }
        in
        Hashtbl.replace base.cattrs "tag" (Vint 1);
        let child = { cname = "Child"; cattrs = Hashtbl.create 2;
                      cbases = [ base ]; cmodule = "m" }
        in
        (match class_lookup child "tag" with
         | Some (Vint 1) -> ()
         | _ -> Alcotest.fail "expected inherited attr");
        Hashtbl.replace child.cattrs "tag" (Vint 2);
        (match class_lookup child "tag" with
         | Some (Vint 2) -> ()
         | _ -> Alcotest.fail "override wins"));
    Alcotest.test_case "is_subclass transitive" `Quick (fun () ->
        let a = { cname = "A"; cattrs = Hashtbl.create 1; cbases = [];
                  cmodule = "m" }
        in
        let b = { cname = "B"; cattrs = Hashtbl.create 1; cbases = [ a ];
                  cmodule = "m" }
        in
        let c = { cname = "C"; cattrs = Hashtbl.create 1; cbases = [ b ];
                  cmodule = "m" }
        in
        Alcotest.(check bool) "C <= A" true (is_subclass c "A");
        Alcotest.(check bool) "A not <= C" false (is_subclass a "C")) ]

let dict_ops =
  [ Alcotest.test_case "set/get/del" `Quick (fun () ->
        let d = { pairs = [] } in
        dict_set d (Vstr "k") (Vint 1);
        dict_set d (Vstr "k") (Vint 2);
        Alcotest.(check bool) "updated" true
          (dict_lookup d (Vstr "k") = Some (Vint 2));
        dict_del d (Vstr "k");
        Alcotest.(check bool) "gone" true (dict_lookup d (Vstr "k") = None));
    Alcotest.test_case "del missing key raises KeyError" `Quick (fun () ->
        match dict_del { pairs = [] } (Vstr "nope") with
        | _ -> Alcotest.fail "expected KeyError"
        | exception Py_error e ->
          Alcotest.(check string) "class" "KeyError" e.exc_class);
    Alcotest.test_case "insertion order preserved" `Quick (fun () ->
        let d = { pairs = [] } in
        dict_set d (Vstr "b") (Vint 1);
        dict_set d (Vstr "a") (Vint 2);
        Alcotest.(check (list string)) "order" [ "b"; "a" ]
          (List.map (fun (k, _) -> to_display k) d.pairs)) ]

let suite =
  [ ("value.display", display);
    ("value.equality", equality);
    ("value.ordering", ordering);
    ("value.truthiness", truthiness);
    ("value.allocation", allocation);
    ("value.classes", classes);
    ("value.dict_ops", dict_ops) ]
