(* PyCG-style static analysis (Salis et al., ICSE'21), simplified to the two
   questions λ-trim asks of it (§5.1, §5.3):

   1. which attributes of each imported module are *definitely accessed* by
      the application (these are exempt from Delta Debugging), and
   2. which names a program references anywhere (the FaaSLight and Vulture
      baselines' dead-code question).

   The analysis is flow-insensitive and over-approximating: any attribute
   access whose base *may* alias a module is recorded. Over-approximation is
   sound for λ-trim — attributes marked accessed are merely kept, never
   removed. *)

module String_set = Set.Make (String)
module String_map = Map.Make (String)

type result = {
  accessed : String_set.t String_map.t;
      (* dotted module name -> attribute names accessed on it *)
  module_aliases : string String_map.t;
      (* local binding -> dotted module name *)
  ctx_module : string option;
      (* dotted name of the module being analyzed (for relative imports);
         None when unknown — relative imports are then skipped *)
  ctx_is_package : bool;
}

let empty =
  { accessed = String_map.empty; module_aliases = String_map.empty;
    ctx_module = None; ctx_is_package = false }

let record_access r modname attr =
  let prev =
    Option.value (String_map.find_opt modname r.accessed) ~default:String_set.empty
  in
  { r with accessed = String_map.add modname (String_set.add attr prev) r.accessed }

let bind_alias r name modname =
  { r with module_aliases = String_map.add name modname r.module_aliases }

(* Resolve an expression to the dotted module it may denote, if any. *)
let rec module_of r (e : Minipy.Ast.expr) : string option =
  match e.Minipy.Ast.desc with
  | Minipy.Ast.Name n -> String_map.find_opt n r.module_aliases
  | Minipy.Ast.Attr (base, attr) ->
    (* a.b may denote submodule b of module a *)
    (match module_of r base with
     | Some m -> Some (m ^ "." ^ attr)
     | None -> None)
  | _ -> None

let rec walk_expr r (e_ : Minipy.Ast.expr) : result =
  let open Minipy.Ast in
  match e_.desc with
  | Const _ | Name _ -> r
  | Attr (base, attr) ->
    let r = walk_expr r base in
    (match module_of r base with
     | Some m -> record_access r m attr
     | None -> r)
  | Subscript (b, k) -> walk_expr (walk_expr r b) k
  | Call (f, args, kwargs) ->
    let r = walk_expr r f in
    let r = List.fold_left walk_expr r args in
    List.fold_left (fun r (_, v) -> walk_expr r v) r kwargs
  | Binop (_, l, rr) -> walk_expr (walk_expr r l) rr
  | Unop (_, x) -> walk_expr r x
  | ListLit xs | TupleLit xs -> List.fold_left walk_expr r xs
  | DictLit kvs -> List.fold_left (fun r (k, v) -> walk_expr (walk_expr r k) v) r kvs
  | Lambda (_, body) -> walk_expr r body
  | IfExp (c, t, f) -> walk_expr (walk_expr (walk_expr r c) t) f
  | Slice (b, lo, hi) ->
    let r = walk_expr r b in
    let r = match lo with Some e -> walk_expr r e | None -> r in
    (match hi with Some e -> walk_expr r e | None -> r)
  | ListComp { celt; citer; ccond; cvar = _ } ->
    let r = walk_expr r citer in
    let r = walk_expr r celt in
    (match ccond with Some c -> walk_expr r c | None -> r)
  | DictComp { dckey; dcval; dciter; dccond; dcvar = _ } ->
    let r = walk_expr r dciter in
    let r = walk_expr r dckey in
    let r = walk_expr r dcval in
    (match dccond with Some c -> walk_expr r c | None -> r)

let rec walk_target r (t : Minipy.Ast.target) =
  let open Minipy.Ast in
  match t with
  | Tname _ -> r
  | Tattr (b, _) -> walk_expr r b
  | Tsubscript (b, k) -> walk_expr (walk_expr r b) k
  | Ttuple ts -> List.fold_left walk_target r ts

let rec walk_stmts r stmts = List.fold_left walk_stmt r stmts

and walk_stmt r (s_ : Minipy.Ast.stmt) : result =
  let open Minipy.Ast in
  match s_.sdesc with
  | Import (path, alias) ->
    let dotted = dotted_to_string path in
    (match alias with
     | Some a -> bind_alias r a dotted
     | None ->
       (* import a.b binds `a`; accessing a.b.x records `b` on a, x on a.b *)
       let root = List.hd path in
       let r = bind_alias r root root in
       (* the written path itself counts as accessed attributes down the chain *)
       let rec chain r prefix = function
         | [] -> r
         | p :: rest ->
           let r = record_access r prefix p in
           chain r (prefix ^ "." ^ p) rest
       in
       (match path with
        | [] -> r
        | root :: rest -> chain r root rest))
  | From_import (clause, names) ->
    let resolved =
      if clause.fc_level = 0 then Some (dotted_to_string clause.fc_path)
      else
        match r.ctx_module with
        | None -> None
        | Some current ->
          let parts = String.split_on_char '.' current in
          let rec drop_last = function
            | [] | [ _ ] -> []
            | x :: rest -> x :: drop_last rest
          in
          let base = if r.ctx_is_package then parts else drop_last parts in
          let rec strip base n =
            if n <= 1 then Some base
            else
              match base with [] -> None | _ -> strip (drop_last base) (n - 1)
          in
          (match strip base clause.fc_level with
           | Some [] | None -> None
           | Some base -> Some (String.concat "." (base @ clause.fc_path)))
    in
    (match resolved with
     | None -> r
     | Some dotted ->
       List.fold_left
         (fun r (name, alias) ->
            let r = record_access r dotted name in
            (* the bound name may itself alias a submodule *)
            bind_alias r (Option.value alias ~default:name) (dotted ^ "." ^ name))
         r names)
  | Assign (t, e) ->
    let r = walk_expr r e in
    let r = walk_target r t in
    (match t, module_of r e with
     | Tname n, Some m -> bind_alias r n m
     | _ -> r)
  | AugAssign (t, _, e) -> walk_target (walk_expr r e) t
  | Expr_stmt e -> walk_expr r e
  | Def { dbody; _ } -> walk_stmts r dbody
  | Class { cbody; cbases; _ } ->
    let r = List.fold_left walk_expr r cbases in
    walk_stmts r cbody
  | Return (Some e) -> walk_expr r e
  | Return None -> r
  | If (branches, orelse) ->
    let r =
      List.fold_left
        (fun r (c, b) -> walk_stmts (walk_expr r c) b)
        r branches
    in
    walk_stmts r orelse
  | While (c, b) -> walk_stmts (walk_expr r c) b
  | For (t, e, b) ->
    let r = walk_expr r e in
    let r = walk_target r t in
    walk_stmts r b
  | Try (b, handlers, fin) ->
    let r = walk_stmts r b in
    let r = List.fold_left (fun r h -> walk_stmts r h.hbody) r handlers in
    walk_stmts r fin
  | Raise (Some e) -> walk_expr r e
  | Raise None | Pass | Break | Continue | Global _ -> r
  | Del t -> walk_target r t
  | Assert (c, m) ->
    let r = walk_expr r c in
    (match m with Some m -> walk_expr r m | None -> r)

let analyze ?current_module ?(is_package = false) (prog : Minipy.Ast.program) :
  result =
  walk_stmts
    { empty with ctx_module = current_module; ctx_is_package = is_package }
    prog

(* All attribute names accessed on [root] or any of its submodules — λ-trim
   excludes these from DD at the granularity of the root module's namespace. *)
let accessed_under (r : result) root : String_set.t =
  String_map.fold
    (fun m attrs acc ->
       if String.equal m root
          || (String.length m > String.length root
              && String.sub m 0 (String.length root + 1) = root ^ ".")
       then String_set.union attrs acc
       else acc)
    r.accessed String_set.empty

(* --- referenced names ---------------------------------------------------- *)

(* Names referenced in expression position by a statement list, def and
   class bodies excepted; [referenced_names] descends into those. *)
let rec called_names_expr acc (e_ : Minipy.Ast.expr) =
  let open Minipy.Ast in
  match e_.desc with
  | Call ({ desc = Name n; _ }, args, kwargs) ->
    let acc = String_set.add n acc in
    let acc = List.fold_left called_names_expr acc args in
    List.fold_left (fun acc (_, v) -> called_names_expr acc v) acc kwargs
  | Call (f, args, kwargs) ->
    let acc = called_names_expr acc f in
    let acc = List.fold_left called_names_expr acc args in
    List.fold_left (fun acc (_, v) -> called_names_expr acc v) acc kwargs
  | Name n -> String_set.add n acc
      (* a bare reference may be passed as a callback; keep it reachable *)
  | Attr (b, _) -> called_names_expr acc b
  | Subscript (b, k) -> called_names_expr (called_names_expr acc b) k
  | Binop (_, l, r) -> called_names_expr (called_names_expr acc l) r
  | Unop (_, x) -> called_names_expr acc x
  | ListLit xs | TupleLit xs -> List.fold_left called_names_expr acc xs
  | DictLit kvs ->
    List.fold_left (fun acc (k, v) -> called_names_expr (called_names_expr acc k) v)
      acc kvs
  | Lambda (_, b) -> called_names_expr acc b
  | IfExp (c, t, f) ->
    called_names_expr (called_names_expr (called_names_expr acc c) t) f
  | Slice (b, lo, hi) ->
    let acc = called_names_expr acc b in
    let acc = match lo with Some e -> called_names_expr acc e | None -> acc in
    (match hi with Some e -> called_names_expr acc e | None -> acc)
  | ListComp { celt; citer; ccond; cvar = _ } ->
    let acc = called_names_expr acc citer in
    let acc = called_names_expr acc celt in
    (match ccond with Some c -> called_names_expr acc c | None -> acc)
  | DictComp { dckey; dcval; dciter; dccond; dcvar = _ } ->
    let acc = called_names_expr acc dciter in
    let acc = called_names_expr acc dckey in
    let acc = called_names_expr acc dcval in
    (match dccond with Some c -> called_names_expr acc c | None -> acc)
  | Const _ -> acc

and called_names_stmts acc stmts = List.fold_left called_names_stmt acc stmts

and called_names_stmt acc (s_ : Minipy.Ast.stmt) =
  let open Minipy.Ast in
  match s_.sdesc with
  | Expr_stmt e | Raise (Some e) | Return (Some e) -> called_names_expr acc e
  | Assign (_, e) | AugAssign (_, _, e) -> called_names_expr acc e
  | Def _ | Class _ -> acc  (* nested bodies handled via the def table *)
  | If (branches, orelse) ->
    let acc =
      List.fold_left
        (fun acc (c, b) -> called_names_stmts (called_names_expr acc c) b)
        acc branches
    in
    called_names_stmts acc orelse
  | While (c, b) -> called_names_stmts (called_names_expr acc c) b
  | For (_, e, b) -> called_names_stmts (called_names_expr acc e) b
  | Try (b, handlers, fin) ->
    let acc = called_names_stmts acc b in
    let acc =
      List.fold_left (fun acc h -> called_names_stmts acc h.hbody) acc handlers
    in
    called_names_stmts acc fin
  | Assert (c, m) ->
    let acc = called_names_expr acc c in
    (match m with Some m -> called_names_expr acc m | None -> acc)
  | Return None | Raise None | Pass | Break | Continue | Global _ | Del _
  | Import _ | From_import _ -> acc

(* Every identifier referenced in expression position anywhere in the
   program, including inside def/class bodies — the conservative "is this
   name used?" question a static dead-code eliminator must ask. *)
let rec referenced_names_stmts acc stmts =
  List.fold_left referenced_names_stmt acc stmts

and referenced_names_stmt acc (s_ : Minipy.Ast.stmt) =
  let open Minipy.Ast in
  match s_.sdesc with
  | Def { dbody; dparams; _ } ->
    let acc =
      List.fold_left
        (fun acc p ->
           match p.pdefault with
           | Some e -> called_names_expr acc e
           | None -> acc)
        acc dparams
    in
    referenced_names_stmts acc dbody
  | Class { cbody; cbases; _ } ->
    let acc = List.fold_left called_names_expr acc cbases in
    referenced_names_stmts acc cbody
  | If (branches, orelse) ->
    let acc =
      List.fold_left
        (fun acc (c, b) -> referenced_names_stmts (called_names_expr acc c) b)
        acc branches
    in
    referenced_names_stmts acc orelse
  | While (c, b) -> referenced_names_stmts (called_names_expr acc c) b
  | For (_, e, b) -> referenced_names_stmts (called_names_expr acc e) b
  | Try (b, handlers, fin) ->
    let acc = referenced_names_stmts acc b in
    let acc =
      List.fold_left (fun acc h -> referenced_names_stmts acc h.hbody) acc
        handlers
    in
    referenced_names_stmts acc fin
  | _ -> called_names_stmt acc s_

let referenced_names (prog : Minipy.Ast.program) : String_set.t =
  referenced_names_stmts String_set.empty prog
