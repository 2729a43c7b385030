(* Abstract syntax for the minipy subset.

   The subset covers everything the λ-trim pipeline needs: module-level
   statements that build a namespace (imports, from-imports, defs, classes,
   assignments), plus enough expression/control-flow forms to write realistic
   handlers and library initialization code. *)

type binop =
  | Add | Sub | Mul | Div | FloorDiv | Mod | Pow
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | In | NotIn

type unop = Neg | Not | Pos

type const =
  | Cint of int
  | Cfloat of float
  | Cstr of string
  | Cbool of bool
  | Cnone

type expr = {
  desc : expr_desc;
  eloc : Loc.t;
}

and expr_desc =
  | Const of const
  | Name of string
  | Attr of expr * string                     (* e.attr *)
  | Subscript of expr * expr                  (* e[k] *)
  | Call of expr * expr list * (string * expr) list  (* f(args, kw=...) *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | ListLit of expr list
  | TupleLit of expr list
  | DictLit of (expr * expr) list
  | Lambda of string list * expr
  | IfExp of expr * expr * expr               (* a if cond else b *)
  | Slice of expr * expr option * expr option (* e[a:b] *)
  | ListComp of comp                          (* [elt for var in iter if cond] *)
  | DictComp of dict_comp                     (* {k: v for var in iter if cond} *)

and comp = {
  celt : expr;
  cvar : target;
  citer : expr;
  ccond : expr option;
}

and dict_comp = {
  dckey : expr;
  dcval : expr;
  dcvar : target;
  dciter : expr;
  dccond : expr option;
}

and target =
  | Tname of string
  | Tattr of expr * string
  | Tsubscript of expr * expr
  | Ttuple of target list

(* Imported dotted module path, e.g. ["torch"; "nn"]. *)
type dotted = string list

type param = { pname : string; pdefault : expr option }

type stmt = {
  sdesc : stmt_desc;
  sloc : Loc.t;
}

and stmt_desc =
  | Expr_stmt of expr
  | Assign of target * expr
  | AugAssign of target * binop * expr        (* x += e *)
  | Import of dotted * string option          (* import a.b [as c] *)
  | From_import of from_clause * (string * string option) list
      (* from [.]*a.b import x [as y], z — names with optional aliases;
         fc_level counts leading dots (0 = absolute import) *)
  | Def of def
  | Class of cls
  | Return of expr option
  | If of (expr * stmt list) list * stmt list (* if/elif chain, else block *)
  | While of expr * stmt list
  | For of target * expr * stmt list
  | Try of stmt list * handler list * stmt list  (* try/except*/finally *)
  | Raise of expr option
  | Pass
  | Break
  | Continue
  | Global of string list
  | Del of target
  | Assert of expr * expr option

and from_clause = {
  fc_level : int;   (* leading dots: 0 absolute, 1 current package, ... *)
  fc_path : dotted; (* may be empty for `from . import x` *)
}

and def = {
  dname : string;
  dparams : param list;
  dbody : stmt list;
}

and cls = {
  cname : string;
  cbases : expr list;
  cbody : stmt list;
}

and handler = {
  hexc : string option;       (* exception class name; None = bare except *)
  hbind : string option;      (* except E as x *)
  hbody : stmt list;
}

type program = stmt list

let dotted_to_string (d : dotted) = String.concat "." d

(* Constructors used by tests and generators. *)
let e ?(loc = Loc.dummy) desc = { desc; eloc = loc }
let s ?(loc = Loc.dummy) sdesc = { sdesc; sloc = loc }
