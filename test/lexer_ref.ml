(* Reference lexer for the equivalence property in test_lexer.ml: the
   straightforward scanner (one [char option] per peek, operators looked
   up by string) that [Minipy.Lexer] must reproduce token for token,
   location for location, and error for error. *)

open Minipy

(* Indentation-aware lexer for the minipy subset.

   Follows the CPython tokenizer structure: a stack of indentation levels
   producing Indent/Dedent tokens, implicit line joining inside brackets,
   '#' comments, and '\'-continued lines. *)

exception Error of string * Loc.t

type state = {
  src : string;
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
  { src; file; pos = 0; line = 1; bol = 0; indents = [ 0 ]; paren_depth = 0;
    pending = []; at_line_start = true; emitted_eof = false }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol)

let error st msg = raise (Error (msg, loc st))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st = st.pos <- st.pos + 1

let newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos

let is_digit c = c >= '0' && c <= '9'
let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_name_char c = is_name_start c || is_digit c

(* Skip spaces and comments within a logical line (not indentation). *)
let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t') -> advance st; skip_trivia st
  | Some '#' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ -> advance st; to_eol ()
    in
    to_eol (); skip_trivia st
  | Some '\\' when peek2 st = Some '\n' ->
    advance st; advance st; newline st; skip_trivia st
  | _ -> ()

let lex_number st =
  let start = st.pos in
  let rec digits () =
    match peek st with Some c when is_digit c -> advance st; digits () | _ -> ()
  in
  digits ();
  let is_float =
    match peek st with
    | Some '.' when (match peek2 st with Some c -> is_digit c | None -> false) ->
      advance st; digits (); true
    | Some '.' when not (match peek2 st with Some c -> is_name_start c | None -> false) ->
      (* "1." literal *)
      advance st; digits (); true
    | _ -> false
  in
  let is_float =
    match peek st with
    | Some ('e' | 'E') ->
      let save = st.pos in
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      (match peek st with
       | Some c when is_digit c -> digits (); true
       | _ -> st.pos <- save; is_float)
    | _ -> is_float
  in
  let text = String.sub st.src start (st.pos - start) in
  if is_float then Token.Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Token.Int i
    | None -> error st (Fmt.str "invalid integer literal %S" text)

let lex_string st quote =
  advance st;
  (* triple-quoted? *)
  let triple = peek st = Some quote && peek2 st = Some quote in
  if triple then begin advance st; advance st end;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> error st "unterminated string literal"
       | Some c ->
         advance st;
         let decoded =
           match c with
           | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r'
           | '\\' -> '\\' | '\'' -> '\'' | '"' -> '"' | '0' -> '\000'
           | '\n' -> newline st; '\255' (* marker: skip *)
           | other -> Buffer.add_char buf '\\'; other
         in
         if decoded <> '\255' then Buffer.add_char buf decoded;
         go ())
    | Some c when c = quote ->
      if triple then begin
        if peek2 st = Some quote
           && (st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = quote)
        then begin advance st; advance st; advance st end
        else begin advance st; Buffer.add_char buf c; go () end
      end
      else advance st
    | Some '\n' when not triple -> error st "newline in string literal"
    | Some '\n' ->
      advance st; newline st; Buffer.add_char buf '\n'; go ()
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ();
  Token.Str (Buffer.contents buf)

let two_char_ops =
  [ "=="; "!="; "<="; ">="; "**"; "//"; "->"; "+="; "-="; "*="; "/="; "%=" ]

let one_char_ops = "+-*/%<>=.,:()[]{}@;"

let lex_operator st =
  let c = match peek st with Some c -> c | None -> assert false in
  let pair =
    match peek2 st with
    | Some c2 -> Printf.sprintf "%c%c" c c2
    | None -> ""
  in
  if List.mem pair two_char_ops then begin
    advance st; advance st; Token.Op pair
  end
  else if String.contains one_char_ops c then begin
    (match c with
     | '(' | '[' | '{' -> st.paren_depth <- st.paren_depth + 1
     | ')' | ']' | '}' -> st.paren_depth <- max 0 (st.paren_depth - 1)
     | _ -> ());
    advance st; Token.Op (String.make 1 c)
  end
  else error st (Fmt.str "unexpected character %C" c)

(* Measure indentation at line start; handle blank lines and comments by
   consuming them entirely. Returns [Some width] if the line has content. *)
let rec measure_indent st =
  let start = st.pos in
  let rec spaces n =
    match peek st with
    | Some ' ' -> advance st; spaces (n + 1)
    | Some '\t' -> advance st; spaces (n + 8 - (n mod 8))
    | _ -> n
  in
  let width = spaces 0 in
  match peek st with
  | Some '\n' -> advance st; newline st; measure_indent st
  | Some '#' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' -> advance st; newline st
      | None -> ()
      | Some _ -> advance st; to_eol ()
    in
    to_eol (); measure_indent st
  | None -> ignore start; None
  | Some _ -> Some width

let rec next st : Token.t * Loc.t =
  match st.pending with
  | tok :: rest -> st.pending <- rest; tok
  | [] ->
    if st.emitted_eof then (Token.Eof, loc st)
    else if st.at_line_start && st.paren_depth = 0 then handle_line_start st
    else lex_token st

and handle_line_start st =
  st.at_line_start <- false;
  match measure_indent st with
  | None ->
    (* EOF: close all open indents *)
    let l = loc st in
    let dedents =
      List.filter_map
        (fun lvl -> if lvl > 0 then Some (Token.Dedent, l) else None)
        st.indents
    in
    st.indents <- [ 0 ];
    st.emitted_eof <- true;
    (match dedents with
     | [] -> (Token.Eof, l)
     | d :: rest -> st.pending <- rest @ [ (Token.Eof, l) ]; d)
  | Some width ->
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
  match peek st with
  | None ->
    st.at_line_start <- true;
    if st.paren_depth > 0 then error st "unclosed bracket at end of file";
    (* emit a final Newline then let line-start logic close indents *)
    (Token.Newline, l)
  | Some '\n' ->
    advance st; newline st;
    if st.paren_depth > 0 then lex_token st
    else begin
      st.at_line_start <- true;
      (Token.Newline, l)
    end
  | Some c when is_digit c -> (lex_number st, l)
  | Some ('"' | '\'') as q ->
    let quote = match q with Some q -> q | None -> assert false in
    (lex_string st quote, l)
  | Some c when is_name_start c ->
    let start = st.pos in
    let rec go () =
      match peek st with
      | Some c when is_name_char c -> advance st; go ()
      | _ -> ()
    in
    go ();
    let text = String.sub st.src start (st.pos - start) in
    if Token.is_keyword text then (Token.Keyword text, l) else (Token.Name text, l)
  | Some _ -> (lex_operator st, l)

(* Tokenize a whole source string. The stream always ends with Eof; a Newline
   precedes the Eof when the file does not end in one. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec go acc =
    let ((tok, _) as t) = next st in
    if tok = Token.Eof then List.rev (t :: acc) else go (t :: acc)
  in
  go []
