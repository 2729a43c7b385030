(* Lexer: token streams, indentation handling, strings, comments. *)

open Minipy

(* every token of [src] up to and including the first [Eof] *)
let toks src =
  let st = Lexer.make ~file:"<t>" src in
  let rec go acc =
    match fst (Lexer.next st) with
    | Token.Eof -> List.rev (Token.Eof :: acc)
    | t -> go (t :: acc)
  in
  go []

let tok = Alcotest.testable Token.pp Token.equal

let check name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list tok)) name expected (toks src))

open Token

let basics =
  [ check "empty" "" [ Eof ];
    check "just newline" "\n" [ Eof ];
    check "int" "42" [ Int 42; Newline; Eof ];
    check "float" "3.25" [ Float 3.25; Newline; Eof ];
    check "float exp" "1e3" [ Float 1000.0; Newline; Eof ];
    check "trailing dot float" "2." [ Float 2.0; Newline; Eof ];
    check "name" "abc_1" [ Name "abc_1"; Newline; Eof ];
    check "keyword" "def" [ Keyword "def"; Newline; Eof ];
    check "string double" "\"hi\"" [ Str "hi"; Newline; Eof ];
    check "string single" "'hi'" [ Str "hi"; Newline; Eof ];
    check "string escapes" "\"a\\n\\tb\"" [ Str "a\n\tb"; Newline; Eof ];
    check "triple string" "\"\"\"a\nb\"\"\"" [ Str "a\nb"; Newline; Eof ];
    check "two char op" "x == y" [ Name "x"; Op "=="; Name "y"; Newline; Eof ];
    check "arrow op" "->" [ Op "->"; Newline; Eof ];
    check "comment" "x # comment\n" [ Name "x"; Newline; Eof ];
    check "comment only line" "# hi\nx" [ Name "x"; Newline; Eof ];
    check "dotted" "a.b" [ Name "a"; Op "."; Name "b"; Newline; Eof ] ]

let indentation =
  [ check "simple block" "if x:\n  y\n"
      [ Keyword "if"; Name "x"; Op ":"; Newline; Indent; Name "y"; Newline;
        Dedent; Eof ];
    check "nested blocks" "if a:\n  if b:\n    c\n"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent;
        Keyword "if"; Name "b"; Op ":"; Newline; Indent;
        Name "c"; Newline; Dedent; Dedent; Eof ];
    check "dedent to middle" "if a:\n  b\n  if c:\n    d\n  e\n"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent;
        Name "b"; Newline;
        Keyword "if"; Name "c"; Op ":"; Newline; Indent;
        Name "d"; Newline; Dedent;
        Name "e"; Newline; Dedent; Eof ];
    check "blank lines ignored" "x\n\n\ny\n"
      [ Name "x"; Newline; Name "y"; Newline; Eof ];
    check "blank line inside block" "if a:\n  b\n\n  c\n"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent;
        Name "b"; Newline; Name "c"; Newline; Dedent; Eof ];
    check "eof closes indents" "if a:\n  b"
      [ Keyword "if"; Name "a"; Op ":"; Newline; Indent; Name "b"; Newline;
        Dedent; Eof ];
    check "implicit joining in parens" "f(1,\n   2)\n"
      [ Name "f"; Op "("; Int 1; Op ","; Int 2; Op ")"; Newline; Eof ];
    check "implicit joining in brackets" "[1,\n 2]"
      [ Op "["; Int 1; Op ","; Int 2; Op "]"; Newline; Eof ];
    check "backslash continuation" "x \\\n+ 1"
      [ Name "x"; Op "+"; Int 1; Newline; Eof ] ]

let errors =
  [ Alcotest.test_case "inconsistent dedent" `Quick (fun () ->
        match toks "if a:\n    b\n  c\n" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ());
    Alcotest.test_case "unterminated string" `Quick (fun () ->
        match toks "\"abc" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ());
    Alcotest.test_case "newline in string" `Quick (fun () ->
        match toks "\"ab\ncd\"" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ());
    Alcotest.test_case "stray character" `Quick (fun () ->
        match toks "x ? y" with
        | _ -> Alcotest.fail "expected lexer error"
        | exception Lexer.Error _ -> ()) ]

(* --- equivalence with the reference lexer -------------------------------- *)

(* Every source file of the 21 benchmark apps' images, in suite order. *)
let corpus =
  lazy
    (List.concat_map
       (fun (d : Platform.Deployment.t) ->
          let vfs = d.Platform.Deployment.vfs in
          List.map (fun p -> (p, Vfs.read_exn vfs p)) (Vfs.paths vfs))
       (List.map Workloads.Codegen.deployment Workloads.Apps.all))

(* The tokens up to [Eof] or the first error, and that error. *)
let scan next =
  let rec go acc =
    match next () with
    | (Token.Eof, _) as t -> (List.rev (t :: acc), None)
    | t -> go (t :: acc)
    | exception Lexer.Error (msg, loc) | exception Lexer_ref.Error (msg, loc) ->
      (List.rev acc, Some (msg, loc))
  in
  go []

let lex_new src =
  let st = Lexer.make ~file:"<p>" src in
  scan (fun () -> Lexer.next st)

let lex_ref src =
  let st = Lexer_ref.make ~file:"<p>" src in
  scan (fun () -> Lexer_ref.next st)

(* The lexer agrees with the reference on every token before an error and
   on the error (compared structurally, not through [Token.equal]), and
   the parser raises nothing but its own and the lexer's errors, the
   lexer's winning whenever the reference finds one. *)
let agrees src =
  let expected = lex_ref src in
  let lex_error = snd expected in
  let raises_as_expected parse =
    match parse ~file:"<p>" src with
    | _ | (exception Parser.Error _) -> lex_error = None
    | exception Lexer.Error (msg, loc) -> lex_error = Some (msg, loc)
  in
  lex_new src = expected
  && raises_as_expected (fun ~file s -> ignore (Parser.parse ~file s))

let alphabet = " \t\n\\#'\"()[]{}+-*/%<>=!.,:@;0123456789e\000"

let gen_char =
  QCheck2.Gen.map (String.get alphabet)
    (QCheck2.Gen.int_bound (String.length alphabet - 1))

(* A corpus file with 1-3 bytes replaced from [alphabet], then truncated
   half of the time. *)
let gen_mutated =
  let open QCheck2.Gen in
  let* _, src = oneofa (Array.of_list (Lazy.force corpus)) in
  let* subs =
    list_size (int_range 1 3) (pair (int_bound (String.length src - 1)) gen_char)
  in
  let b = Bytes.of_string src in
  List.iter (fun (i, c) -> Bytes.set b i c) subs;
  let* cut = oneof [ return (Bytes.length b); int_bound (Bytes.length b) ] in
  return (Bytes.sub_string b 0 cut)

let gen_short = QCheck2.Gen.(string_size ~gen:gen_char (int_bound 40))

let edge_cases =
  [ "'a\\\255b'"; "'a\\qb'"; "'a\\\n b'"; "'''a''''"; "'''a\n'' '''"; "\"\"\"x";
    "'"; "'\\"; "''"; "1.e5"; "1.x"; "1e"; "1e+"; "1E-3"; "1..2"; "2.";
    "99999999999999999999"; "4611686018427387903"; "4611686018427387904";
    "x\\"; "x \\\n"; "!x"; "a != b"; "\r\n"; "if a:\n\tb\n        c\n";
    "if a:\n  b\n c\n"; "(\n"; "f(x)\n\000"; "# only\n  # indented\n" ]

let reference =
  [ Alcotest.test_case "every corpus file lexes as the reference does" `Quick
      (fun () ->
        List.iter
          (fun (path, src) -> Alcotest.(check bool) path true (agrees src))
          (Lazy.force corpus));
    Alcotest.test_case "edge cases lex as the reference does" `Quick (fun () ->
        List.iter
          (fun src -> Alcotest.(check bool) (String.escaped src) true (agrees src))
          edge_cases);
    QCheck_alcotest.to_alcotest ~long:false
      (QCheck2.Test.make ~name:"mutated corpus files lex as the reference does"
         ~count:1000 ~print:(Printf.sprintf "%S") gen_mutated agrees);
    QCheck_alcotest.to_alcotest ~long:false
      (QCheck2.Test.make ~name:"short strings lex as the reference does"
         ~count:3000 ~print:(Printf.sprintf "%S") gen_short agrees) ]

let suite =
  [ ("lexer.basics", basics);
    ("lexer.indentation", indentation);
    ("lexer.errors", errors);
    ("lexer.reference", reference) ]
