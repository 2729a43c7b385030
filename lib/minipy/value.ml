(* Runtime values for the minipy interpreter.

   Everything is an object wrapping a namespace, exactly the model §6.1 of the
   paper relies on: a module is a dict from names to objects, and attributes
   are the building blocks the debloater removes. *)

type value =
  | Vnone
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstr of string
  | Vlist of vlist
  | Vtuple of value array
  | Vdict of vdict
  | Vfunc of func
  | Vbuiltin of builtin
  | Vclass of cls
  | Vinstance of instance
  | Vmodule of module_obj
  | Vexc of exc

and vlist = { mutable items : value array }

and vdict = { mutable pairs : (value * value) list }
(* association list with structural key equality; serverless payloads are
   small, so O(n) lookups are fine and keep key hashing trivial *)

and func = {
  fname : string;
  fparams : (string * value option) list;  (* defaults evaluated at def time *)
  fbody : Ast.stmt list;
  fglobals : namespace;                    (* defining module's namespace *)
  fmodule : string;                        (* dotted module name *)
}

and builtin = {
  bname : string;
  bcall : value list -> (string * value) list -> value;
}

and cls = {
  cname : string;
  cattrs : namespace;
  cbases : cls list;
  cmodule : string;
}

and instance = {
  icls : cls;
  iattrs : namespace;
}

and module_obj = {
  mname : string;       (* dotted name, e.g. "torch.nn" *)
  mfile : string;       (* vfs path *)
  mattrs : namespace;
}

and exc = {
  exc_class : string;   (* e.g. "AttributeError" *)
  exc_msg : string;
}

and namespace = (string, value) Hashtbl.t

(* Raised for every Python-level error; caught by try/except. *)
exception Py_error of exc

let py_error exc_class fmt =
  Fmt.kstr (fun exc_msg -> raise (Py_error { exc_class; exc_msg })) fmt

let type_name = function
  | Vnone -> "NoneType"
  | Vbool _ -> "bool"
  | Vint _ -> "int"
  | Vfloat _ -> "float"
  | Vstr _ -> "str"
  | Vlist _ -> "list"
  | Vtuple _ -> "tuple"
  | Vdict _ -> "dict"
  | Vfunc _ -> "function"
  | Vbuiltin _ -> "builtin_function_or_method"
  | Vclass _ -> "type"
  | Vinstance i -> i.icls.cname
  | Vmodule _ -> "module"
  | Vexc e -> e.exc_class

let truthy = function
  | Vnone -> false
  | Vbool b -> b
  | Vint i -> i <> 0
  | Vfloat f -> f <> 0.0
  | Vstr s -> s <> ""
  | Vlist l -> Array.length l.items > 0
  | Vtuple a -> Array.length a > 0
  | Vdict d -> d.pairs <> []
  | Vfunc _ | Vbuiltin _ | Vclass _ | Vinstance _ | Vmodule _ | Vexc _ -> true

(* Structural equality as used by == and dict keys. *)
let rec equal a b =
  match a, b with
  | Vnone, Vnone -> true
  | Vbool x, Vbool y -> x = y
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vint x, Vfloat y | Vfloat y, Vint x -> float_of_int x = y
  | Vstr x, Vstr y -> String.equal x y
  | Vlist x, Vlist y ->
    Array.length x.items = Array.length y.items
    && Array.for_all2 equal x.items y.items
  | Vtuple x, Vtuple y -> Array.length x = Array.length y && Array.for_all2 equal x y
  | Vdict x, Vdict y ->
    List.length x.pairs = List.length y.pairs
    && List.for_all
         (fun (k, v) ->
            match List.find_opt (fun (k', _) -> equal k k') y.pairs with
            | Some (_, v') -> equal v v'
            | None -> false)
         x.pairs
  | Vexc x, Vexc y -> x.exc_class = y.exc_class && x.exc_msg = y.exc_msg
  | Vfunc x, Vfunc y -> x == y
  | Vbuiltin x, Vbuiltin y -> x == y
  | Vclass x, Vclass y -> x == y
  | Vinstance x, Vinstance y -> x == y
  | Vmodule x, Vmodule y -> x == y
  | _ -> false

let rec compare_values a b =
  match a, b with
  | Vint x, Vint y -> compare x y
  | Vfloat x, Vfloat y -> compare x y
  | Vint x, Vfloat y -> compare (float_of_int x) y
  | Vfloat x, Vint y -> compare x (float_of_int y)
  | Vstr x, Vstr y -> String.compare x y
  | Vbool x, Vbool y -> compare x y
  | Vlist x, Vlist y -> compare_arrays x.items y.items
  | Vtuple x, Vtuple y -> compare_arrays x y
  | _ ->
    py_error "TypeError" "'<' not supported between instances of '%s' and '%s'"
      (type_name a) (type_name b)

and compare_arrays x y =
  let n = min (Array.length x) (Array.length y) in
  let rec go i =
    if i >= n then compare (Array.length x) (Array.length y)
    else
      let c = compare_values x.(i) y.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

(* str() — used by print *)
let rec to_display v =
  match v with
  | Vnone -> "None"
  | Vbool true -> "True"
  | Vbool false -> "False"
  | Vint i -> string_of_int i
  | Vfloat f -> float_repr f
  | Vstr s -> s
  | Vlist _ | Vtuple _ | Vdict _ | Vfunc _ | Vbuiltin _ | Vclass _
  | Vinstance _ | Vmodule _ | Vexc _ -> to_repr v

(* repr() — used inside containers *)
and to_repr v =
  match v with
  | Vstr s -> "'" ^ String.concat "\\'" (String.split_on_char '\'' s) ^ "'"
  | Vlist l ->
    "[" ^ String.concat ", " (Array.to_list (Array.map to_repr l.items)) ^ "]"
  | Vtuple [| x |] -> "(" ^ to_repr x ^ ",)"
  | Vtuple a ->
    "(" ^ String.concat ", " (Array.to_list (Array.map to_repr a)) ^ ")"
  | Vdict d ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> to_repr k ^ ": " ^ to_repr v) d.pairs)
    ^ "}"
  | Vfunc f -> Printf.sprintf "<function %s>" f.fname
  | Vbuiltin b -> Printf.sprintf "<built-in function %s>" b.bname
  | Vclass c -> Printf.sprintf "<class '%s'>" c.cname
  | Vinstance i -> Printf.sprintf "<%s object>" i.icls.cname
  | Vmodule m -> Printf.sprintf "<module '%s'>" m.mname
  | Vexc e -> Printf.sprintf "%s('%s')" e.exc_class e.exc_msg
  | Vnone | Vbool _ | Vint _ | Vfloat _ -> to_display v

(* --- virtual memory model ---------------------------------------------

   Every allocation is charged to the interpreter's byte ledger. The constants
   approximate CPython object overheads; their absolute values matter less
   than the fact that removing a def/class/import genuinely removes its
   footprint, which is what drives Figure 8's memory column. *)

let bytes_of_alloc = function
  | Vnone | Vbool _ -> 0
  | Vint _ -> 28
  | Vfloat _ -> 24
  | Vstr s -> 49 + String.length s
  | Vlist l -> 56 + (8 * Array.length l.items)
  | Vtuple a -> 40 + (8 * Array.length a)
  | Vdict d -> 64 + (72 * List.length d.pairs)
  | Vfunc _ -> 1200         (* code object + closure *)
  | Vbuiltin _ -> 72
  | Vclass _ -> 1600        (* type object + method table *)
  | Vinstance _ -> 56
  | Vmodule _ -> 1400       (* module object + namespace dict *)
  | Vexc _ -> 120

let dict_lookup (d : vdict) k =
  List.find_opt (fun (k', _) -> equal k k') d.pairs |> Option.map snd

let dict_set (d : vdict) k v =
  if List.exists (fun (k', _) -> equal k k') d.pairs then
    d.pairs <- List.map (fun (k', v') -> if equal k k' then (k', v) else (k', v')) d.pairs
  else d.pairs <- d.pairs @ [ (k, v) ]

let dict_del (d : vdict) k =
  if not (List.exists (fun (k', _) -> equal k k') d.pairs) then
    py_error "KeyError" "%s" (to_repr k);
  d.pairs <- List.filter (fun (k', _) -> not (equal k k')) d.pairs

(* Class attribute lookup through bases (C3 not needed: single/multiple
   inheritance with left-to-right depth-first search). *)
let rec class_lookup (c : cls) name =
  match Hashtbl.find_opt c.cattrs name with
  | Some v -> Some v
  | None ->
    let rec search = function
      | [] -> None
      | base :: rest ->
        (match class_lookup base name with
         | Some v -> Some v
         | None -> search rest)
    in
    search c.cbases

let rec is_subclass (c : cls) name =
  String.equal c.cname name || List.exists (fun b -> is_subclass b name) c.cbases
