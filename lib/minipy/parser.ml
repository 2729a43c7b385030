(* Recursive-descent parser for minipy.

   Precedence (low to high):
     lambda < ternary < or < and < not < comparison < +,- < *,/,//,% <
     unary -,+ < ** < trailers (call, attribute, subscript) < atom *)

exception Error of string * Loc.t

(* Tokens are pulled from the lexer on demand: [tok]/[loc] is the current
   token, and [ahead] holds at most one token of lookahead. Once [tok] is
   [Eof] the parser stays on it. *)
type state = {
  lex : Lexer.state;
  mutable tok : Token.t;
  mutable loc : Loc.t;
  mutable ahead : (Token.t * Loc.t) option;
}

let make lex =
  let tok, loc = Lexer.next lex in
  { lex; tok; loc; ahead = None }

let current st = st.tok
let current_loc st = st.loc

let advance st =
  match st.tok with
  | Token.Eof -> ()
  | _ ->
    let tok, loc =
      match st.ahead with
      | Some t -> st.ahead <- None; t
      | None -> Lexer.next st.lex
    in
    st.tok <- tok;
    st.loc <- loc

(* The token after the current one (never called on [Eof]). *)
let peek_next st =
  match st.ahead with
  | Some (tok, _) -> tok
  | None ->
    let ((tok, _) as t) = Lexer.next st.lex in
    st.ahead <- Some t;
    tok

let error st msg =
  raise (Error (Fmt.str "%s (found %a)" msg Token.pp (current st), current_loc st))

(* Tokens are compared by pattern, so no [Token.t] is built to look for an
   operator or keyword. *)
let accept st tok =
  if Token.equal (current st) tok then begin advance st; true end else false

let is_op st op =
  match current st with Token.Op o -> String.equal o op | _ -> false

let accept_op st op = if is_op st op then begin advance st; true end else false

let accept_kw st kw =
  match current st with
  | Token.Keyword k when String.equal k kw -> advance st; true
  | _ -> false

let expected st tok = error st (Fmt.str "expected %a" Token.pp tok)
let eat st tok = if not (accept st tok) then expected st tok
let eat_op st op = if not (accept_op st op) then expected st (Token.Op op)
let eat_kw st kw = if not (accept_kw st kw) then expected st (Token.Keyword kw)

let expect_name st =
  match current st with
  | Token.Name n -> advance st; n
  | _ -> error st "expected identifier"

(* Skip blank logical lines (stray newlines between statements). *)
let rec skip_newlines st =
  match current st with
  | Token.Newline -> advance st; skip_newlines st
  | _ -> ()

(* --- expressions ------------------------------------------------------- *)

let binop_of_op = function
  | "+" -> Ast.Add | "-" -> Ast.Sub | "*" -> Ast.Mul | "/" -> Ast.Div
  | "//" -> Ast.FloorDiv | "%" -> Ast.Mod | "**" -> Ast.Pow
  | "==" -> Ast.Eq | "!=" -> Ast.Ne | "<" -> Ast.Lt | "<=" -> Ast.Le
  | ">" -> Ast.Gt | ">=" -> Ast.Ge
  | op -> invalid_arg ("binop_of_op: " ^ op)

let rec parse_expr st : Ast.expr =
  match current st with
  | Token.Keyword "lambda" ->
    let loc = current_loc st in
    advance st;
    let params = parse_name_list st in
    eat_op st ":";
    let body = parse_expr st in
    Ast.e ~loc (Ast.Lambda (params, body))
  | _ -> parse_ternary st

and parse_name_list st =
  if is_op st ":" then []
  else
    let rec go acc =
      let n = expect_name st in
      if accept_op st "," then go (n :: acc) else List.rev (n :: acc)
    in
    go []

and parse_ternary st =
  let body = parse_or st in
  if accept_kw st "if" then begin
    let cond = parse_or st in
    eat_kw st "else";
    let orelse = parse_expr st in
    Ast.e ~loc:body.Ast.eloc (Ast.IfExp (cond, body, orelse))
  end
  else body

and parse_or st =
  let lhs = parse_and st in
  if accept_kw st "or" then
    let rhs = parse_or st in
    Ast.e ~loc:lhs.Ast.eloc (Ast.Binop (Ast.Or, lhs, rhs))
  else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "and" then
    let rhs = parse_and st in
    Ast.e ~loc:lhs.Ast.eloc (Ast.Binop (Ast.And, lhs, rhs))
  else lhs

and parse_not st =
  let loc = current_loc st in
  if accept_kw st "not" then
    let operand = parse_not st in
    Ast.e ~loc (Ast.Unop (Ast.Not, operand))
  else parse_comparison st

(* Python chains comparisons: a < b < c means (a < b) and (b < c). We
   desugar to the `and` form (middle operands are re-evaluated, a documented
   deviation from CPython's evaluate-once semantics). *)
and parse_comparison st =
  let lhs = parse_arith st in
  let next_op () =
    match current st with
    | Token.Op (("==" | "!=" | "<" | "<=" | ">" | ">=") as op) ->
      advance st;
      Some (binop_of_op op)
    | Token.Keyword "in" -> advance st; Some Ast.In
    | Token.Keyword "not" ->
      advance st;
      eat_kw st "in";
      Some Ast.NotIn
    | _ -> None
  in
  match next_op () with
  | None -> lhs
  | Some op0 ->
    let rhs0 = parse_arith st in
    let rec chain acc prev =
      match next_op () with
      | None -> acc
      | Some op ->
        let rhs = parse_arith st in
        let link = Ast.e ~loc:prev.Ast.eloc (Ast.Binop (op, prev, rhs)) in
        chain (Ast.e ~loc:acc.Ast.eloc (Ast.Binop (Ast.And, acc, link))) rhs
    in
    chain (Ast.e ~loc:lhs.Ast.eloc (Ast.Binop (op0, lhs, rhs0))) rhs0

and parse_arith st =
  let lhs = parse_term st in
  let rec go lhs =
    match current st with
    | Token.Op (("+" | "-") as op) ->
      advance st;
      let rhs = parse_term st in
      go (Ast.e ~loc:lhs.Ast.eloc (Ast.Binop (binop_of_op op, lhs, rhs)))
    | _ -> lhs
  in
  go lhs

and parse_term st =
  let lhs = parse_unary st in
  let rec go lhs =
    match current st with
    | Token.Op (("*" | "/" | "//" | "%") as op) ->
      advance st;
      let rhs = parse_unary st in
      go (Ast.e ~loc:lhs.Ast.eloc (Ast.Binop (binop_of_op op, lhs, rhs)))
    | _ -> lhs
  in
  go lhs

and parse_unary st =
  let loc = current_loc st in
  match current st with
  | Token.Op "-" -> advance st; Ast.e ~loc (Ast.Unop (Ast.Neg, parse_unary st))
  | Token.Op "+" -> advance st; Ast.e ~loc (Ast.Unop (Ast.Pos, parse_unary st))
  | _ -> parse_power st

and parse_power st =
  let base = parse_postfix st in
  if accept_op st "**" then
    let exp = parse_unary st in
    Ast.e ~loc:base.Ast.eloc (Ast.Binop (Ast.Pow, base, exp))
  else base

and parse_postfix st =
  let atom = parse_atom st in
  parse_trailers st atom

and parse_trailers st e =
  match current st with
  | Token.Op "." ->
    advance st;
    let name = expect_name st in
    parse_trailers st (Ast.e ~loc:e.Ast.eloc (Ast.Attr (e, name)))
  | Token.Op "(" ->
    advance st;
    let args, kwargs = parse_call_args st in
    parse_trailers st (Ast.e ~loc:e.Ast.eloc (Ast.Call (e, args, kwargs)))
  | Token.Op "[" ->
    advance st;
    (* subscript e[k], or slice e[a:b] with either bound optional *)
    let lo =
      match current st with
      | Token.Op ":" -> None
      | _ -> Some (parse_expr st)
    in
    if accept_op st ":" then begin
      let hi =
        match current st with
        | Token.Op "]" -> None
        | _ -> Some (parse_expr st)
      in
      eat_op st "]";
      parse_trailers st (Ast.e ~loc:e.Ast.eloc (Ast.Slice (e, lo, hi)))
    end
    else begin
      eat_op st "]";
      match lo with
      | Some idx ->
        parse_trailers st (Ast.e ~loc:e.Ast.eloc (Ast.Subscript (e, idx)))
      | None -> error st "empty subscript"
    end
  | _ -> e

and parse_call_args st =
  let args = ref [] and kwargs = ref [] in
  let rec go () =
    if is_op st ")" then advance st
    else begin
      (match current st with
       | Token.Name n
         when Token.equal (peek_next st) (Token.Op "=") ->
         advance st; advance st;
         kwargs := (n, parse_expr st) :: !kwargs
       | _ -> args := parse_expr st :: !args);
      if accept_op st "," then go () else eat_op st ")"
    end
  in
  go ();
  (List.rev !args, List.rev !kwargs)

and parse_atom st =
  let loc = current_loc st in
  match current st with
  | Token.Int i -> advance st; Ast.e ~loc (Ast.Const (Ast.Cint i))
  | Token.Float f -> advance st; Ast.e ~loc (Ast.Const (Ast.Cfloat f))
  | Token.Str s -> advance st; Ast.e ~loc (Ast.Const (Ast.Cstr s))
  | Token.Keyword "True" -> advance st; Ast.e ~loc (Ast.Const (Ast.Cbool true))
  | Token.Keyword "False" -> advance st; Ast.e ~loc (Ast.Const (Ast.Cbool false))
  | Token.Keyword "None" -> advance st; Ast.e ~loc (Ast.Const Ast.Cnone)
  | Token.Name n -> advance st; Ast.e ~loc (Ast.Name n)
  | Token.Op "(" ->
    advance st;
    if accept_op st ")" then Ast.e ~loc (Ast.TupleLit [])
    else begin
      let first = parse_expr st in
      if is_op st "," then begin
        let items = ref [ first ] in
        while accept_op st "," do
          if not (is_op st ")") then
            items := parse_expr st :: !items
        done;
        eat_op st ")";
        Ast.e ~loc (Ast.TupleLit (List.rev !items))
      end
      else begin eat_op st ")"; first end
    end
  | Token.Op "[" ->
    advance st;
    if accept_op st "]" then Ast.e ~loc (Ast.ListLit [])
    else begin
      let first = parse_expr st in
      match current st with
      | Token.Keyword "for" ->
        advance st;
        let cvar = parse_comp_target st in
        eat_kw st "in";
        (* the iterable and condition stop below the ternary level, so the
           comprehension's own `if` is not mistaken for a conditional expr *)
        let citer = parse_or st in
        let ccond = if accept_kw st "if" then Some (parse_or st) else None in
        eat_op st "]";
        Ast.e ~loc (Ast.ListComp { Ast.celt = first; cvar; citer; ccond })
      | _ ->
        let items = ref [ first ] in
        let rec go () =
          if accept_op st "]" then ()
          else begin
            items := parse_expr st :: !items;
            if accept_op st "," then go () else eat_op st "]"
          end
        in
        (if accept_op st "," then go () else eat_op st "]");
        Ast.e ~loc (Ast.ListLit (List.rev !items))
    end
  | Token.Op "{" ->
    advance st;
    if accept_op st "}" then Ast.e ~loc (Ast.DictLit [])
    else begin
      let k0 = parse_expr st in
      eat_op st ":";
      let v0 = parse_expr st in
      match current st with
      | Token.Keyword "for" ->
        advance st;
        let dcvar = parse_comp_target st in
        eat_kw st "in";
        let dciter = parse_or st in
        let dccond = if accept_kw st "if" then Some (parse_or st) else None in
        eat_op st "}";
        Ast.e ~loc
          (Ast.DictComp { Ast.dckey = k0; dcval = v0; dcvar; dciter; dccond })
      | _ ->
        let items = ref [ (k0, v0) ] in
        let rec go () =
          if accept_op st "}" then ()
          else begin
            let k = parse_expr st in
            eat_op st ":";
            let v = parse_expr st in
            items := (k, v) :: !items;
            if accept_op st "," then go () else eat_op st "}"
          end
        in
        (if accept_op st "," then go () else eat_op st "}");
        Ast.e ~loc (Ast.DictLit (List.rev !items))
    end
  | _ -> error st "expected expression"

(* comprehension / for-loop target: postfix expressions joined by commas,
   parsed below the comparison level so `in` is not consumed. *)
and parse_comp_target st : Ast.target =
  let first = parse_postfix st in
  let tgt_expr =
    if is_op st "," then begin
      let items = ref [ first ] in
      while accept_op st "," do
        items := parse_postfix st :: !items
      done;
      Ast.e ~loc:first.Ast.eloc (Ast.TupleLit (List.rev !items))
    end
    else first
  in
  target_of_expr tgt_expr

and target_of_expr (e : Ast.expr) : Ast.target =
  match e.Ast.desc with
  | Ast.Name n -> Ast.Tname n
  | Ast.Attr (base, a) -> Ast.Tattr (base, a)
  | Ast.Subscript (base, k) -> Ast.Tsubscript (base, k)
  | Ast.TupleLit items | Ast.ListLit items ->
    Ast.Ttuple (List.map target_of_expr items)
  | _ -> raise (Error ("invalid assignment target", e.Ast.eloc))

(* testlist: expr (',' expr)* — an unparenthesized tuple. *)
and parse_testlist st =
  let first = parse_expr st in
  if is_op st "," then begin
    let items = ref [ first ] in
    while accept_op st "," do
      match current st with
      | Token.Newline | Token.Eof | Token.Op ("=" | ")" | "]" | "}" | ";") -> ()
      | _ -> items := parse_expr st :: !items
    done;
    Ast.e ~loc:first.Ast.eloc (Ast.TupleLit (List.rev !items))
  end
  else first

(* --- statements -------------------------------------------------------- *)

let parse_dotted st =
  let rec go acc =
    let n = expect_name st in
    if accept_op st "." then go (n :: acc) else List.rev (n :: acc)
  in
  go []

let rec parse_program st : Ast.program =
  skip_newlines st;
  if Token.equal (current st) Token.Eof then []
  else
    let stmt = parse_stmt st in
    stmt @ parse_program st

(* A statement line can hold several ';'-separated small statements, so
   [parse_stmt] returns a list. *)
and parse_stmt st : Ast.stmt list =
  match current st with
  | Token.Keyword "if" -> [ parse_if st ]
  | Token.Keyword "while" -> [ parse_while st ]
  | Token.Keyword "for" -> [ parse_for st ]
  | Token.Keyword "def" -> [ parse_def st ]
  | Token.Keyword "class" -> [ parse_class st ]
  | Token.Keyword "try" -> [ parse_try st ]
  | Token.Op "@" ->
    (* decorators are parsed and discarded: minipy has no decorator semantics,
       but workload generators may emit them for realism *)
    advance st;
    let _ = parse_expr st in
    eat st Token.Newline;
    skip_newlines st;
    parse_stmt st
  | _ ->
    let stmts = parse_simple_line st in
    stmts

and parse_simple_line st =
  let first = parse_small_stmt st in
  let rec go acc =
    if accept_op st ";" then
      match current st with
      | Token.Newline | Token.Eof -> List.rev acc
      | _ -> go (parse_small_stmt st :: acc)
    else List.rev acc
  in
  let stmts = go [ first ] in
  (match current st with
   | Token.Eof -> ()
   | _ -> eat st Token.Newline);
  stmts

and parse_small_stmt st : Ast.stmt =
  let loc = current_loc st in
  match current st with
  | Token.Keyword "pass" -> advance st; Ast.s ~loc Ast.Pass
  | Token.Keyword "break" -> advance st; Ast.s ~loc Ast.Break
  | Token.Keyword "continue" -> advance st; Ast.s ~loc Ast.Continue
  | Token.Keyword "return" ->
    advance st;
    (match current st with
     | Token.Newline | Token.Eof | Token.Op ";" -> Ast.s ~loc (Ast.Return None)
     | _ -> Ast.s ~loc (Ast.Return (Some (parse_testlist st))))
  | Token.Keyword "raise" ->
    advance st;
    (match current st with
     | Token.Newline | Token.Eof | Token.Op ";" -> Ast.s ~loc (Ast.Raise None)
     | _ -> Ast.s ~loc (Ast.Raise (Some (parse_expr st))))
  | Token.Keyword "global" ->
    advance st;
    let rec names acc =
      let n = expect_name st in
      if accept_op st "," then names (n :: acc) else List.rev (n :: acc)
    in
    Ast.s ~loc (Ast.Global (names []))
  | Token.Keyword "del" ->
    advance st;
    let e = parse_expr st in
    Ast.s ~loc (Ast.Del (target_of_expr e))
  | Token.Keyword "assert" ->
    advance st;
    let cond = parse_expr st in
    let msg = if accept_op st "," then Some (parse_expr st) else None in
    Ast.s ~loc (Ast.Assert (cond, msg))
  | Token.Keyword "import" ->
    advance st;
    let path = parse_dotted st in
    let alias = if accept_kw st "as" then Some (expect_name st) else None in
    Ast.s ~loc (Ast.Import (path, alias))
  | Token.Keyword "from" ->
    advance st;
    (* leading dots select the relative level *)
    let rec dots n = if accept_op st "." then dots (n + 1) else n in
    let fc_level = dots 0 in
    let fc_path =
      match current st with
      | Token.Keyword "import" when fc_level > 0 -> []
      | _ -> parse_dotted st
    in
    eat_kw st "import";
    let parenthesized = accept_op st "(" in
    let rec names acc =
      let n = expect_name st in
      let alias = if accept_kw st "as" then Some (expect_name st) else None in
      if accept_op st "," then names ((n, alias) :: acc)
      else List.rev ((n, alias) :: acc)
    in
    let imported = names [] in
    if parenthesized then eat_op st ")";
    Ast.s ~loc (Ast.From_import ({ Ast.fc_level; fc_path }, imported))
  | _ ->
    let e = parse_testlist st in
    (match current st with
     | Token.Op "=" ->
       advance st;
       let target = target_of_expr e in
       let value = parse_testlist st in
       Ast.s ~loc (Ast.Assign (target, value))
     | Token.Op (("+=" | "-=" | "*=" | "/=" | "%=") as op) ->
       advance st;
       let target = target_of_expr e in
       let value = parse_testlist st in
       let bop = binop_of_op (String.sub op 0 1) in
       Ast.s ~loc (Ast.AugAssign (target, bop, value))
     | _ -> Ast.s ~loc (Ast.Expr_stmt e))

and parse_block st : Ast.stmt list =
  eat_op st ":";
  if Token.equal (current st) Token.Newline then begin
    advance st;
    skip_newlines st;
    eat st Token.Indent;
    let rec go acc =
      skip_newlines st;
      if accept st Token.Dedent then List.rev acc
      else if Token.equal (current st) Token.Eof then List.rev acc
      else go (List.rev_append (parse_stmt st) acc)
    in
    go []
  end
  else
    (* inline suite: `if x: return y` *)
    parse_simple_line st

and parse_if st =
  let loc = current_loc st in
  eat_kw st "if";
  let cond = parse_expr st in
  let body = parse_block st in
  let rec elifs acc =
    skip_newlines_before_kw st "elif";
    if accept_kw st "elif" then begin
      let c = parse_expr st in
      let b = parse_block st in
      elifs ((c, b) :: acc)
    end
    else List.rev acc
  in
  let branches = (cond, body) :: elifs [] in
  skip_newlines_before_kw st "else";
  let orelse = if accept_kw st "else" then parse_block st else [] in
  Ast.s ~loc (Ast.If (branches, orelse))

(* else/elif/except/finally appear at the same indentation as their opener;
   no newline skipping is needed because dedent handling consumed the block. *)
and skip_newlines_before_kw _st _kw = ()

and parse_while st =
  let loc = current_loc st in
  eat_kw st "while";
  let cond = parse_expr st in
  let body = parse_block st in
  Ast.s ~loc (Ast.While (cond, body))

and parse_for st =
  let loc = current_loc st in
  eat_kw st "for";
  (* the target must stop before the `in` keyword *)
  let target = parse_comp_target st in
  eat_kw st "in";
  let iter = parse_testlist st in
  let body = parse_block st in
  Ast.s ~loc (Ast.For (target, iter, body))

and parse_def st =
  let loc = current_loc st in
  eat_kw st "def";
  let name = expect_name st in
  eat_op st "(";
  let params = ref [] in
  let rec go () =
    if accept_op st ")" then ()
    else begin
      let pname = expect_name st in
      let pdefault = if accept_op st "=" then Some (parse_expr st) else None in
      params := { Ast.pname; pdefault } :: !params;
      if accept_op st "," then go () else eat_op st ")"
    end
  in
  go ();
  let body = parse_block st in
  Ast.s ~loc (Ast.Def { Ast.dname = name; dparams = List.rev !params; dbody = body })

and parse_class st =
  let loc = current_loc st in
  eat_kw st "class";
  let name = expect_name st in
  let bases =
    if accept_op st "(" then begin
      let bs = ref [] in
      let rec go () =
        if accept_op st ")" then ()
        else begin
          bs := parse_expr st :: !bs;
          if accept_op st "," then go () else eat_op st ")"
        end
      in
      go ();
      List.rev !bs
    end
    else []
  in
  let body = parse_block st in
  Ast.s ~loc (Ast.Class { Ast.cname = name; cbases = bases; cbody = body })

and parse_try st =
  let loc = current_loc st in
  eat_kw st "try";
  let body = parse_block st in
  let rec handlers acc =
    if accept_kw st "except" then begin
      let hexc =
        match current st with
        | Token.Name n -> advance st; Some n
        | _ -> None
      in
      let hbind = if accept_kw st "as" then Some (expect_name st) else None in
      let hbody = parse_block st in
      handlers ({ Ast.hexc; hbind; hbody } :: acc)
    end
    else List.rev acc
  in
  let hs = handlers [] in
  let finally = if accept_kw st "finally" then parse_block st else [] in
  Ast.s ~loc (Ast.Try (body, hs, finally))

(* --- entry points ------------------------------------------------------ *)

(* Pull every remaining token: a lexer error anywhere in the source wins
   over any error the parser raised before reaching it. *)
let rec drain st =
  match current st with
  | Token.Eof -> ()
  | _ -> advance st; drain st

let run ~file src f =
  let st = make (Lexer.make ~file src) in
  match f st with
  | v -> v
  | exception (Lexer.Error _ as e) -> raise e
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    drain st;
    Printexc.raise_with_backtrace e bt

let parse ~file src : Ast.program = run ~file src parse_program

let parse_expression ~file src : Ast.expr =
  run ~file src (fun st ->
      let e = parse_expr st in
      ignore (accept st Token.Newline);
      (match current st with
       | Token.Eof -> ()
       | _ -> error st "expected end of expression");
      e)
