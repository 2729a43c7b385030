(* Tokens produced by the indentation-aware lexer. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Name of string
  | Keyword of string   (* a name [is_keyword] accepts *)
  | Op of string        (* operators and punctuation *)
  | Newline
  | Indent
  | Dedent
  | Eof

let is_keyword = function
  | "def" | "class" | "return" | "if" | "elif" | "else" | "while" | "for"
  | "in" | "import" | "from" | "as" | "pass" | "break" | "continue" | "raise"
  | "try" | "except" | "finally" | "and" | "or" | "not" | "True" | "False"
  | "None" | "lambda" | "global" | "del" | "assert" | "with" -> true
  | _ -> false

let pp ppf = function
  | Int i -> Fmt.pf ppf "INT(%d)" i
  | Float f -> Fmt.pf ppf "FLOAT(%g)" f
  | Str s -> Fmt.pf ppf "STR(%S)" s
  | Name s -> Fmt.pf ppf "NAME(%s)" s
  | Keyword s -> Fmt.pf ppf "KW(%s)" s
  | Op s -> Fmt.pf ppf "OP(%s)" s
  | Newline -> Fmt.pf ppf "NEWLINE"
  | Indent -> Fmt.pf ppf "INDENT"
  | Dedent -> Fmt.pf ppf "DEDENT"
  | Eof -> Fmt.pf ppf "EOF"

let equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> x = y (* IEEE: nan differs from itself *)
  | Str x, Str y | Name x, Name y | Keyword x, Keyword y | Op x, Op y ->
    String.equal x y
  | Newline, Newline | Indent, Indent | Dedent, Dedent | Eof, Eof -> true
  | _ -> false
