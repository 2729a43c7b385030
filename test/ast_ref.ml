(* Structural equality of minipy programs ignoring source locations: the
   notion of "same program" behind the parse/pretty round-trip properties
   (test_pretty.ml, test_properties.ml) and the parse-cache checks
   (test_caching.ml). Floats compare by value, NaN equal to NaN. *)

open Minipy.Ast

let const_equal (a : const) (b : const) =
  match a, b with
  | Cfloat x, Cfloat y -> x = y || (Float.is_nan x && Float.is_nan y)
  | _ -> a = b

let rec expr_equal (a : expr) (b : expr) =
  match a.desc, b.desc with
  | Const x, Const y -> const_equal x y
  | Name x, Name y -> String.equal x y
  | Attr (e1, a1), Attr (e2, a2) -> expr_equal e1 e2 && String.equal a1 a2
  | Subscript (e1, k1), Subscript (e2, k2) -> expr_equal e1 e2 && expr_equal k1 k2
  | Call (f1, a1, k1), Call (f2, a2, k2) ->
    expr_equal f1 f2 && exprs_equal a1 a2
    && List.length k1 = List.length k2
    && List.for_all2
         (fun (n1, e1) (n2, e2) -> String.equal n1 n2 && expr_equal e1 e2)
         k1 k2
  | Binop (o1, l1, r1), Binop (o2, l2, r2) ->
    o1 = o2 && expr_equal l1 l2 && expr_equal r1 r2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && expr_equal e1 e2
  | ListLit l1, ListLit l2 | TupleLit l1, TupleLit l2 -> exprs_equal l1 l2
  | DictLit l1, DictLit l2 ->
    List.length l1 = List.length l2
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> expr_equal k1 k2 && expr_equal v1 v2)
         l1 l2
  | Lambda (p1, b1), Lambda (p2, b2) -> p1 = p2 && expr_equal b1 b2
  | IfExp (c1, t1, f1), IfExp (c2, t2, f2) ->
    expr_equal c1 c2 && expr_equal t1 t2 && expr_equal f1 f2
  | Slice (b1, l1, h1), Slice (b2, l2, h2) ->
    expr_equal b1 b2 && Option.equal expr_equal l1 l2
    && Option.equal expr_equal h1 h2
  | ListComp c1, ListComp c2 ->
    expr_equal c1.celt c2.celt && target_equal c1.cvar c2.cvar
    && expr_equal c1.citer c2.citer
    && Option.equal expr_equal c1.ccond c2.ccond
  | DictComp c1, DictComp c2 ->
    expr_equal c1.dckey c2.dckey && expr_equal c1.dcval c2.dcval
    && target_equal c1.dcvar c2.dcvar && expr_equal c1.dciter c2.dciter
    && Option.equal expr_equal c1.dccond c2.dccond
  | ( ( Const _ | Name _ | Attr _ | Subscript _ | Call _ | Binop _ | Unop _
      | ListLit _ | TupleLit _ | DictLit _ | Lambda _ | IfExp _ | Slice _
      | ListComp _ | DictComp _ ),
      _ ) -> false

and exprs_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 expr_equal l1 l2

and target_equal (a : target) (b : target) =
  match a, b with
  | Tname x, Tname y -> String.equal x y
  | Tattr (e1, a1), Tattr (e2, a2) -> expr_equal e1 e2 && String.equal a1 a2
  | Tsubscript (e1, k1), Tsubscript (e2, k2) ->
    expr_equal e1 e2 && expr_equal k1 k2
  | Ttuple l1, Ttuple l2 ->
    List.length l1 = List.length l2 && List.for_all2 target_equal l1 l2
  | (Tname _ | Tattr _ | Tsubscript _ | Ttuple _), _ -> false

let rec stmt_equal (a : stmt) (b : stmt) =
  match a.sdesc, b.sdesc with
  | Expr_stmt e1, Expr_stmt e2 -> expr_equal e1 e2
  | Assign (t1, e1), Assign (t2, e2) -> target_equal t1 t2 && expr_equal e1 e2
  | AugAssign (t1, o1, e1), AugAssign (t2, o2, e2) ->
    target_equal t1 t2 && o1 = o2 && expr_equal e1 e2
  | Import (d1, a1), Import (d2, a2) -> d1 = d2 && a1 = a2
  | From_import (c1, n1), From_import (c2, n2) -> c1 = c2 && n1 = n2
  | Def d1, Def d2 ->
    String.equal d1.dname d2.dname
    && List.length d1.dparams = List.length d2.dparams
    && List.for_all2 param_equal d1.dparams d2.dparams
    && stmts_equal d1.dbody d2.dbody
  | Class c1, Class c2 ->
    String.equal c1.cname c2.cname
    && exprs_equal c1.cbases c2.cbases
    && stmts_equal c1.cbody c2.cbody
  | Return e1, Return e2 -> Option.equal expr_equal e1 e2
  | If (br1, el1), If (br2, el2) ->
    List.length br1 = List.length br2
    && List.for_all2
         (fun (c1, b1) (c2, b2) -> expr_equal c1 c2 && stmts_equal b1 b2)
         br1 br2
    && stmts_equal el1 el2
  | While (c1, b1), While (c2, b2) -> expr_equal c1 c2 && stmts_equal b1 b2
  | For (t1, e1, b1), For (t2, e2, b2) ->
    target_equal t1 t2 && expr_equal e1 e2 && stmts_equal b1 b2
  | Try (b1, h1, f1), Try (b2, h2, f2) ->
    stmts_equal b1 b2
    && List.length h1 = List.length h2
    && List.for_all2 handler_equal h1 h2
    && stmts_equal f1 f2
  | Raise e1, Raise e2 -> Option.equal expr_equal e1 e2
  | Pass, Pass | Break, Break | Continue, Continue -> true
  | Global n1, Global n2 -> n1 = n2
  | Del t1, Del t2 -> target_equal t1 t2
  | Assert (e1, m1), Assert (e2, m2) ->
    expr_equal e1 e2 && Option.equal expr_equal m1 m2
  | ( ( Expr_stmt _ | Assign _ | AugAssign _ | Import _ | From_import _
      | Def _ | Class _ | Return _ | If _ | While _ | For _ | Try _ | Raise _
      | Pass | Break | Continue | Global _ | Del _ | Assert _ ),
      _ ) -> false

and param_equal (p1 : param) (p2 : param) =
  String.equal p1.pname p2.pname && Option.equal expr_equal p1.pdefault p2.pdefault

and handler_equal (h1 : handler) (h2 : handler) =
  h1.hexc = h2.hexc && h1.hbind = h2.hbind && stmts_equal h1.hbody h2.hbody

and stmts_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 stmt_equal l1 l2

let program_equal = stmts_equal
