(* Indentation-aware lexer for the minipy subset.

   Follows the CPython tokenizer structure: a stack of indentation levels
   producing Indent/Dedent tokens, implicit line joining inside brackets,
   '#' comments, and '\'-continued lines.

   The scanner is pull-based ([next] yields one token at a time) and reads
   the source with a bounds check and [String.unsafe_get]: nothing is
   allocated per character, only per token. *)

exception Error of string * Loc.t

type state = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;          (* byte offset *)
  mutable line : int;
  mutable bol : int;          (* offset of beginning of current line *)
  mutable indents : int list; (* stack, head = current level *)
  mutable paren_depth : int;
  mutable pending : (Token.t * Loc.t) list; (* queued tokens (dedents) *)
  mutable at_line_start : bool;
  mutable emitted_eof : bool;
}

let make ~file src =
  { src; len = String.length src; file; pos = 0; line = 1; bol = 0;
    indents = [ 0 ]; paren_depth = 0; pending = []; at_line_start = true;
    emitted_eof = false }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol)

let error st msg = raise (Error (msg, loc st))

(* Only call after checking [i < st.len]. *)
let char_at st i = String.unsafe_get st.src i

(* [char_at] at [i], or ['\000'] past the end: only for lookahead tests that
   accept no NUL byte. *)
let char_or_nul st i = if i < st.len then char_at st i else '\000'

let newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos

let is_digit c = c >= '0' && c <= '9'
let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_name_char c = is_name_start c || is_digit c

(* Advance to the next '\n' (not consumed) or the end of input. *)
let skip_comment st =
  while st.pos < st.len && char_at st st.pos <> '\n' do
    st.pos <- st.pos + 1
  done

(* Skip spaces and comments within a logical line (not indentation). *)
let rec skip_trivia st =
  if st.pos < st.len then
    match char_at st st.pos with
    | ' ' | '\t' -> st.pos <- st.pos + 1; skip_trivia st
    | '#' -> skip_comment st; skip_trivia st
    | '\\' when char_or_nul st (st.pos + 1) = '\n' ->
      st.pos <- st.pos + 2; newline st; skip_trivia st
    | _ -> ()

let skip_digits st =
  while st.pos < st.len && is_digit (char_at st st.pos) do
    st.pos <- st.pos + 1
  done

let lex_number st =
  let start = st.pos in
  skip_digits st;
  let is_float =
    if char_or_nul st st.pos = '.'
    && not (is_name_start (char_or_nul st (st.pos + 1)))
    then begin
      (* "1.5", or the "1." literal *)
      st.pos <- st.pos + 1; skip_digits st; true
    end
    else false
  in
  let is_float =
    match char_or_nul st st.pos with
    | 'e' | 'E' ->
      let save = st.pos in
      st.pos <- st.pos + 1;
      (match char_or_nul st st.pos with
       | '+' | '-' -> st.pos <- st.pos + 1
       | _ -> ());
      if is_digit (char_or_nul st st.pos) then begin skip_digits st; true end
      else begin st.pos <- save; is_float end
    | _ -> is_float
  in
  let text = String.sub st.src start (st.pos - start) in
  if is_float then Token.Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Token.Int i
    | None -> error st (Fmt.str "invalid integer literal %S" text)

(* The general string scanner: escapes, triple quotes, continued lines.
   [st.pos] is just past the opening quote(s). *)
let lex_string_general st quote triple =
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then error st "unterminated string literal";
    match char_at st st.pos with
    | '\\' ->
      st.pos <- st.pos + 1;
      if st.pos >= st.len then error st "unterminated string literal";
      let c = char_at st st.pos in
      st.pos <- st.pos + 1;
      (match c with
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | '\\' | '\'' | '"' -> Buffer.add_char buf c
       | '0' -> Buffer.add_char buf '\000'
       | '\n' -> newline st
       (* an unknown escape keeps its backslash, except that a '\255'
          byte after the backslash is dropped *)
       | '\255' -> Buffer.add_char buf '\\'
       | other -> Buffer.add_char buf '\\'; Buffer.add_char buf other);
      go ()
    | c when c = quote ->
      if triple then begin
        if char_or_nul st (st.pos + 1) = quote
        && char_or_nul st (st.pos + 2) = quote
        then st.pos <- st.pos + 3
        else begin st.pos <- st.pos + 1; Buffer.add_char buf c; go () end
      end
      else st.pos <- st.pos + 1
    | '\n' when not triple -> error st "newline in string literal"
    | '\n' ->
      st.pos <- st.pos + 1; newline st; Buffer.add_char buf '\n'; go ()
    | c -> st.pos <- st.pos + 1; Buffer.add_char buf c; go ()
  in
  go ();
  Token.Str (Buffer.contents buf)

let lex_string st quote =
  st.pos <- st.pos + 1;
  let triple =
    char_or_nul st st.pos = quote && char_or_nul st (st.pos + 1) = quote
  in
  if triple then begin
    st.pos <- st.pos + 2;
    lex_string_general st quote true
  end
  else begin
    (* fast path: a one-line string with no escape is a substring *)
    let start = st.pos in
    let i = ref start in
    while
      !i < st.len
      && (let c = char_at st !i in c <> quote && c <> '\\' && c <> '\n')
    do incr i done;
    if !i < st.len && char_at st !i = quote then begin
      st.pos <- !i + 1;
      Token.Str (String.sub st.src start (!i - start))
    end
    else lex_string_general st quote false
  end

(* Constant tokens are static data: matching returns them without
   allocating. *)
let two_char_op c c2 =
  match c, c2 with
  | '=', '=' -> Some (Token.Op "==") | '!', '=' -> Some (Token.Op "!=")
  | '<', '=' -> Some (Token.Op "<=") | '>', '=' -> Some (Token.Op ">=")
  | '*', '*' -> Some (Token.Op "**") | '/', '/' -> Some (Token.Op "//")
  | '-', '>' -> Some (Token.Op "->") | '+', '=' -> Some (Token.Op "+=")
  | '-', '=' -> Some (Token.Op "-=") | '*', '=' -> Some (Token.Op "*=")
  | '/', '=' -> Some (Token.Op "/=") | '%', '=' -> Some (Token.Op "%=")
  | _ -> None

let one_char_ops = "+-*/%<>=.,:()[]{}@;"

let one_char_op =
  Array.init 256 (fun i ->
      let c = Char.chr i in
      if String.contains one_char_ops c then Some (Token.Op (String.make 1 c))
      else None)

let lex_operator st =
  let c = char_at st st.pos in
  match two_char_op c (char_or_nul st (st.pos + 1)) with
  | Some tok -> st.pos <- st.pos + 2; tok
  | None ->
    match Array.unsafe_get one_char_op (Char.code c) with
    | Some tok ->
      (match c with
       | '(' | '[' | '{' -> st.paren_depth <- st.paren_depth + 1
       | ')' | ']' | '}' -> st.paren_depth <- max 0 (st.paren_depth - 1)
       | _ -> ());
      st.pos <- st.pos + 1;
      tok
    | None -> error st (Fmt.str "unexpected character %C" c)

(* Measure indentation at line start; handle blank lines and comments by
   consuming them entirely. Returns the width if the line has content, or
   -1 at the end of input. *)
let rec measure_indent st =
  let rec spaces n =
    if st.pos >= st.len then n
    else
      match char_at st st.pos with
      | ' ' -> st.pos <- st.pos + 1; spaces (n + 1)
      | '\t' -> st.pos <- st.pos + 1; spaces (n + 8 - (n mod 8))
      | _ -> n
  in
  let width = spaces 0 in
  if st.pos >= st.len then -1
  else
    match char_at st st.pos with
    | '\n' -> st.pos <- st.pos + 1; newline st; measure_indent st
    | '#' ->
      skip_comment st;
      if st.pos < st.len then begin st.pos <- st.pos + 1; newline st end;
      measure_indent st
    | _ -> width

let rec next st : Token.t * Loc.t =
  match st.pending with
  | tok :: rest -> st.pending <- rest; tok
  | [] ->
    if st.emitted_eof then (Token.Eof, loc st)
    else if st.at_line_start && st.paren_depth = 0 then handle_line_start st
    else lex_token st

and handle_line_start st =
  st.at_line_start <- false;
  let width = measure_indent st in
  if width < 0 then begin
    (* EOF: close all open indents *)
    let l = loc st in
    let dedents =
      List.filter_map
        (fun lvl -> if lvl > 0 then Some (Token.Dedent, l) else None)
        st.indents
    in
    st.indents <- [ 0 ];
    st.emitted_eof <- true;
    match dedents with
    | [] -> (Token.Eof, l)
    | d :: rest -> st.pending <- rest @ [ (Token.Eof, l) ]; d
  end
  else
    let current = match st.indents with lvl :: _ -> lvl | [] -> 0 in
    if width > current then begin
      st.indents <- width :: st.indents;
      (Token.Indent, loc st)
    end
    else if width < current then begin
      let rec pop acc = function
        | lvl :: rest when lvl > width -> pop ((Token.Dedent, loc st) :: acc) rest
        | (lvl :: _) as stack ->
          if lvl <> width then error st "inconsistent dedent";
          (acc, stack)
        | [] -> error st "inconsistent dedent"
      in
      let dedents, stack = pop [] st.indents in
      st.indents <- stack;
      match dedents with
      | d :: rest -> st.pending <- rest; d
      | [] -> assert false
    end
    else lex_token st

and lex_token st =
  skip_trivia st;
  let l = loc st in
  if st.pos >= st.len then begin
    st.at_line_start <- true;
    if st.paren_depth > 0 then error st "unclosed bracket at end of file";
    (* emit a final Newline then let line-start logic close indents *)
    (Token.Newline, l)
  end
  else
    match char_at st st.pos with
    | '\n' ->
      st.pos <- st.pos + 1; newline st;
      if st.paren_depth > 0 then lex_token st
      else begin
        st.at_line_start <- true;
        (Token.Newline, l)
      end
    | c when is_digit c -> (lex_number st, l)
    | ('"' | '\'') as quote -> (lex_string st quote, l)
    | c when is_name_start c ->
      let start = st.pos in
      while st.pos < st.len && is_name_char (char_at st st.pos) do
        st.pos <- st.pos + 1
      done;
      let text = String.sub st.src start (st.pos - start) in
      if Token.is_keyword text then (Token.Keyword text, l) else (Token.Name text, l)
    | _ -> (lex_operator st, l)
