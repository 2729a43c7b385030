(* Pretty-printer emitting valid minipy source.

   [Parser.parse (Pretty.program_to_string p)] is structurally equal to [p]
   for parser output and its restrictions, with [] reparsing as [Pass] (see
   pretty.mli); Parse_cache.write_program relies on this round-trip when
   the debloater writes rewritten modules back to the virtual filesystem. *)

open Ast

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | FloorDiv -> "//"
  | Mod -> "%" | Pow -> "**"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "and" | Or -> "or" | In -> "in" | NotIn -> "not in"

(* Precedence levels for minimal parenthesization. *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge | In | NotIn -> 4
  | Add | Sub -> 5
  | Mul | Div | FloorDiv | Mod -> 6
  | Pow -> 8

let prec (e : expr) =
  match e.desc with
  | Lambda _ -> 0
  | IfExp _ -> 0
  | Binop (op, _, _) -> binop_prec op
  | Unop (Not, _) -> 3
  | Unop ((Neg | Pos), _) -> 7
  | Const _ | Name _ | Attr _ | Subscript _ | Call _ | ListLit _ | TupleLit _
  | DictLit _ | Slice _ | ListComp _ | DictComp _ -> 10

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\\' -> Buffer.add_string buf "\\\\"
       | '"' -> Buffer.add_string buf "\\\""
       | '\000' -> Buffer.add_string buf "\\0"
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let const_str = function
  | Cint i -> if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
  | Cfloat f ->
    let s = Printf.sprintf "%.17g" f in
    let s =
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      then s
      else s ^ ".0"
    in
    if f < 0.0 then "(" ^ s ^ ")" else s
  | Cstr s -> "\"" ^ escape_string s ^ "\""
  | Cbool true -> "True"
  | Cbool false -> "False"
  | Cnone -> "None"

let rec expr_str ?(ctx = 0) (e : expr) =
  let p = prec e in
  let body =
    match e.desc with
    | Const c -> const_str c
    | Name n -> n
    | Attr (b, a) -> atom_str b ^ "." ^ a
    | Subscript (b, k) -> atom_str b ^ "[" ^ expr_str k ^ "]"
    | Call (f, args, kwargs) ->
      let args = List.map expr_str args in
      let kwargs = List.map (fun (n, v) -> n ^ "=" ^ expr_str v) kwargs in
      atom_str f ^ "(" ^ String.concat ", " (args @ kwargs) ^ ")"
    | Binop (((And | Or) as op), l, r) ->
      (* and/or are right-folded by the parser *)
      expr_str ~ctx:(binop_prec op + 1) l
      ^ " " ^ binop_str op ^ " "
      ^ expr_str ~ctx:(binop_prec op) r
    | Binop (Pow, l, r) ->
      expr_str ~ctx:9 l ^ " ** " ^ expr_str ~ctx:8 r
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge | In | NotIn) as op), l, r) ->
      (* comparisons chain in the grammar (a < b < c desugars to `and`), so
         a comparison operand must be parenthesized on both sides *)
      expr_str ~ctx:(binop_prec op + 1) l
      ^ " " ^ binop_str op ^ " "
      ^ expr_str ~ctx:(binop_prec op + 1) r
    | Binop (op, l, r) ->
      expr_str ~ctx:(binop_prec op) l
      ^ " " ^ binop_str op ^ " "
      ^ expr_str ~ctx:(binop_prec op + 1) r
    | Unop (Not, x) -> "not " ^ expr_str ~ctx:3 x
    | Unop (Neg, x) -> "-" ^ expr_str ~ctx:8 x
    | Unop (Pos, x) -> "+" ^ expr_str ~ctx:8 x
    | ListLit items -> "[" ^ String.concat ", " (List.map expr_str items) ^ "]"
    | TupleLit [] -> "()"
    | TupleLit [ x ] -> "(" ^ expr_str x ^ ",)"
    | TupleLit items -> "(" ^ String.concat ", " (List.map expr_str items) ^ ")"
    | DictLit items ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> expr_str k ^ ": " ^ expr_str v) items)
      ^ "}"
    | Lambda (params, body) ->
      "lambda " ^ String.concat ", " params ^ ": " ^ expr_str body
    | IfExp (cond, then_, else_) ->
      expr_str ~ctx:1 then_ ^ " if " ^ expr_str ~ctx:1 cond ^ " else "
      ^ expr_str else_
    | Slice (b, lo, hi) ->
      let opt = function Some e -> expr_str e | None -> "" in
      atom_str b ^ "[" ^ opt lo ^ ":" ^ opt hi ^ "]"
    | ListComp { celt; cvar; citer; ccond } ->
      "[" ^ expr_str celt ^ " for " ^ target_str cvar ^ " in "
      ^ expr_str ~ctx:4 citer
      ^ (match ccond with
         | Some c -> " if " ^ expr_str ~ctx:4 c
         | None -> "")
      ^ "]"
    | DictComp { dckey; dcval; dcvar; dciter; dccond } ->
      "{" ^ expr_str dckey ^ ": " ^ expr_str dcval ^ " for "
      ^ target_str dcvar ^ " in " ^ expr_str ~ctx:4 dciter
      ^ (match dccond with
         | Some c -> " if " ^ expr_str ~ctx:4 c
         | None -> "")
      ^ "}"
  in
  if p < ctx then "(" ^ body ^ ")" else body

and target_str = function
  | Tname n -> n
  | Tattr (b, a) -> atom_str b ^ "." ^ a
  | Tsubscript (b, k) -> atom_str b ^ "[" ^ expr_str k ^ "]"
  | Ttuple items -> String.concat ", " (List.map target_str items)

(* Trailer bases (before '.', '[', '(') need full parenthesization of
   anything below atom precedence. *)
and atom_str e =
  match e.desc with
  | Const (Cint i) when i < 0 -> Printf.sprintf "(%d)" i
  | Const (Cfloat f) when f < 0.0 -> "(" ^ const_str (Cfloat f) ^ ")"
  | Const (Cint _ | Cfloat _) ->
    (* 1.x parses as a float followed by x; parenthesize to be safe *)
    "(" ^ expr_str e ^ ")"
  | _ -> expr_str ~ctx:10 e


let indent n = String.make (2 * n) ' '

let rec stmt_lines ~depth (s : stmt) : string list =
  let pad = indent depth in
  match s.sdesc with
  | Expr_stmt e -> [ pad ^ expr_str e ]
  | Assign (t, e) -> [ pad ^ target_str t ^ " = " ^ expr_str e ]
  | AugAssign (t, op, e) ->
    [ pad ^ target_str t ^ " " ^ binop_str op ^ "= " ^ expr_str e ]
  | Import (path, alias) ->
    let base = pad ^ "import " ^ dotted_to_string path in
    [ (match alias with Some a -> base ^ " as " ^ a | None -> base) ]
  | From_import ({ fc_level; fc_path }, names) ->
    let name_str (n, alias) =
      match alias with Some a -> n ^ " as " ^ a | None -> n
    in
    [ pad ^ "from " ^ String.make fc_level '.' ^ dotted_to_string fc_path
      ^ " import " ^ String.concat ", " (List.map name_str names) ]
  | Def { dname; dparams; dbody } ->
    let param_str { pname; pdefault } =
      match pdefault with
      | Some d -> pname ^ "=" ^ expr_str d
      | None -> pname
    in
    (pad ^ "def " ^ dname ^ "("
     ^ String.concat ", " (List.map param_str dparams)
     ^ "):")
    :: block_lines ~depth dbody
  | Class { cname; cbases; cbody } ->
    let bases =
      match cbases with
      | [] -> ""
      | bs -> "(" ^ String.concat ", " (List.map expr_str bs) ^ ")"
    in
    (pad ^ "class " ^ cname ^ bases ^ ":") :: block_lines ~depth cbody
  | Return None -> [ pad ^ "return" ]
  | Return (Some e) -> [ pad ^ "return " ^ expr_str e ]
  | If (branches, orelse) ->
    let rec branch_lines first = function
      | [] -> []
      | (cond, body) :: rest ->
        let kw = if first then "if" else "elif" in
        ((pad ^ kw ^ " " ^ expr_str cond ^ ":") :: block_lines ~depth body)
        @ branch_lines false rest
    in
    branch_lines true branches
    @ (match orelse with
       | [] -> []
       | body -> (pad ^ "else:") :: block_lines ~depth body)
  | While (cond, body) ->
    (pad ^ "while " ^ expr_str cond ^ ":") :: block_lines ~depth body
  | For (t, iter, body) ->
    (pad ^ "for " ^ target_str t ^ " in " ^ expr_str iter ^ ":")
    :: block_lines ~depth body
  | Try (body, handlers, finally) ->
    let handler_lines { hexc; hbind; hbody } =
      let head =
        match hexc, hbind with
        | Some e, Some b -> pad ^ "except " ^ e ^ " as " ^ b ^ ":"
        | Some e, None -> pad ^ "except " ^ e ^ ":"
        | None, _ -> pad ^ "except:"
      in
      head :: block_lines ~depth hbody
    in
    ((pad ^ "try:") :: block_lines ~depth body)
    @ List.concat_map handler_lines handlers
    @ (match finally with
       | [] -> []
       | body -> (pad ^ "finally:") :: block_lines ~depth body)
  | Raise None -> [ pad ^ "raise" ]
  | Raise (Some e) -> [ pad ^ "raise " ^ expr_str e ]
  | Pass -> [ pad ^ "pass" ]
  | Break -> [ pad ^ "break" ]
  | Continue -> [ pad ^ "continue" ]
  | Global names -> [ pad ^ "global " ^ String.concat ", " names ]
  | Del t -> [ pad ^ "del " ^ target_str t ]
  | Assert (cond, None) -> [ pad ^ "assert " ^ expr_str cond ]
  | Assert (cond, Some m) ->
    [ pad ^ "assert " ^ expr_str cond ^ ", " ^ expr_str m ]

and block_lines ~depth body =
  match body with
  | [] -> [ indent (depth + 1) ^ "pass" ]
  | _ -> List.concat_map (stmt_lines ~depth:(depth + 1)) body

let program_to_string (p : program) =
  match p with
  | [] -> "pass\n"
  | _ ->
    String.concat "\n" (List.concat_map (stmt_lines ~depth:0) p) ^ "\n"

let expr_to_string e = expr_str e
