(* Tree-walking evaluator with the pieces λ-trim instruments:

   - a module cache ("sys.modules") and full import machinery with
     before/after import hooks — the profiler measures marginal import time
     and memory through these hooks exactly as §5.2 patches CPython's loader;
   - a virtual clock and byte ledger: every statement costs interpreter time,
     every allocation is charged, and library init code expresses native work
     through the builtin [simrt] module (simrt.cpu_ms / simrt.alloc_mb);
   - stdout capture, which the debloating oracle compares (§5.3). *)

open Value

exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Timeout of string

type import_hook = {
  on_before : string -> unit;   (* dotted module name, before body exec *)
  on_after : string -> unit;    (* after body exec *)
}

type t = {
  vfs : Vfs.t;
  modules : (string, module_obj) Hashtbl.t;   (* cache, keyed by dotted name *)
  stdout_buf : Buffer.t;
  mutable vtime_ms : float;       (* virtual elapsed CPU time *)
  mutable heap_bytes : int;       (* monotone footprint ledger *)
  mutable steps : int;
  max_steps : int;
  mutable import_hooks : import_hook list;
  mutable import_stack : string list;
  builtins : namespace;
  (* external side effects (§5.3): calls to remote services made through the
     builtin [cloud] module, recorded in order for oracle equivalence *)
  mutable external_calls : string list;   (* newest first *)
  remote_store : (string, value) Hashtbl.t;  (* "service/key" -> value *)
  (* content-addressed AST store consulted on import instead of re-parsing *)
  parse_cache : Parse_cache.t;
  (* tracing: import spans are recorded on [obs_sink] against the virtual
     clock; [obs_offset_ms] maps this interpreter's vtime (which starts at
     0) onto the embedding timeline (e.g. a Lambda_sim invocation's
     position in simulation time), and [obs_track] is the lane spans land
     on. All three are owned by the embedder; the defaults trace nothing. *)
  mutable obs_sink : Obs.Span.sink;
  mutable obs_track : int;
  mutable obs_offset_ms : float;
  (* lazy loading (ARCHITECTURE §14): import roots listed in the image's
     [lazy_manifest_file] get stub modules at the import statement; the
     module body runs — and its ticks are charged — at first attribute
     touch instead. [lazy_pending] marks stubs whose body has not run;
     [lazy_forcing] counts the force nesting depth — imports executed while
     a body is being forced run eagerly, so forcing a root replays exactly
     the eager import subtree (partial-init order included). *)
  lazy_roots : (string, unit) Hashtbl.t;
  lazy_pending : (string, unit) Hashtbl.t;
  mutable lazy_forcing : int;
  (* read recorder: called with (module, attribute) on every module-level
     name read; the debloater's profile seed. Per interpreter, never
     global, so concurrent searches cannot pollute each other's seeds. *)
  on_read : (string -> string -> unit) option;
}

and env = {
  locals : namespace;          (* == globals at module level *)
  globals : namespace;
  global_decls : (string, unit) Hashtbl.t;  (* names declared `global` *)
}

(* Cost model constants (virtual). *)
let step_cost_ms = 0.0008      (* per executed statement *)
let call_cost_ms = 0.0012      (* per function call *)
let import_resolve_ms = 0.03   (* loader overhead per module: find + parse *)

let charge_time t ms = t.vtime_ms <- t.vtime_ms +. ms

let charge_alloc t v = t.heap_bytes <- t.heap_bytes + bytes_of_alloc v

let charge_bytes t b = t.heap_bytes <- t.heap_bytes + b

let heap_mb t = float_of_int t.heap_bytes /. (1024.0 *. 1024.0)

let tick t =
  t.steps <- t.steps + 1;
  charge_time t step_cost_ms;
  if t.steps > t.max_steps then
    raise (Timeout (Printf.sprintf "interpreter exceeded %d steps" t.max_steps))

let output t s = Buffer.add_string t.stdout_buf s

let stdout_contents t = Buffer.contents t.stdout_buf

(* --- lazy-loading manifest (ARCHITECTURE §14) --------------------------- *)

(* VFS path of the lazy-loading manifest. The leading dot keeps it out of
   import resolution ([Importer] maps dotted names to <root>/...py paths),
   so adding it can never shadow application code. *)
let lazy_manifest_file = ".lazy-manifest"

(* One directive per line: `lazy <root>` defers that import root's body to
   first attribute touch; `preload <dotted>` records the profile-guided
   resolution order fleet instances follow during keep-alive idle time.
   Blank lines and `#` comments are ignored; both lists keep file order. *)
let parse_lazy_manifest src =
  let lazified = ref [] and preload = ref [] in
  String.split_on_char '\n' src
  |> List.iter (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.index_opt line ' ' with
        | None -> ()
        | Some i ->
          let kw = String.sub line 0 i in
          let arg =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          if arg <> "" then (
            match kw with
            | "lazy" -> lazified := arg :: !lazified
            | "preload" -> preload := arg :: !preload
            | _ -> ()));
  (List.rev !lazified, List.rev !preload)

(* Stub-configuration tag for oracle memo and journal run-digest keys: the
   lazy and eager twins of an image must never share verdicts. The manifest
   already feeds the image digest, but keys state the variant explicitly. *)
let lazy_config_of_vfs vfs =
  match Vfs.read vfs lazy_manifest_file with
  | None -> "eager"
  | Some src -> "lazy:" ^ Digest.to_hex (Digest.string src)

(* --- arithmetic --------------------------------------------------------- *)

let as_float = function
  | Vint i -> float_of_int i
  | Vfloat f -> f
  | Vbool true -> 1.0
  | Vbool false -> 0.0
  | v -> py_error "TypeError" "expected a number, got %s" (type_name v)

let numeric_binop op a b =
  match a, b, op with
  | Vint x, Vint y, Ast.Add -> Vint (x + y)
  | Vint x, Vint y, Ast.Sub -> Vint (x - y)
  | Vint x, Vint y, Ast.Mul -> Vint (x * y)
  | Vint _, Vint 0, Ast.Div -> py_error "ZeroDivisionError" "division by zero"
  | Vint x, Vint y, Ast.Div -> Vfloat (float_of_int x /. float_of_int y)
  | Vint _, Vint 0, (Ast.FloorDiv | Ast.Mod) ->
    py_error "ZeroDivisionError" "integer division or modulo by zero"
  | Vint x, Vint y, Ast.FloorDiv ->
    let q = x / y and r = x mod y in
    Vint (if (r <> 0) && ((r < 0) <> (y < 0)) then q - 1 else q)
  | Vint x, Vint y, Ast.Mod ->
    let r = x mod y in
    Vint (if r <> 0 && (r < 0) <> (y < 0) then r + y else r)
  | Vint x, Vint y, Ast.Pow ->
    if y >= 0 then begin
      let rec pow acc b e = if e = 0 then acc else pow (acc * b) b (e - 1) in
      Vint (pow 1 x y)
    end
    else Vfloat (Float.pow (float_of_int x) (float_of_int y))
  | (Vfloat _ | Vint _ | Vbool _), (Vfloat _ | Vint _ | Vbool _), _ ->
    let x = as_float a and y = as_float b in
    (match op with
     | Ast.Add -> Vfloat (x +. y)
     | Ast.Sub -> Vfloat (x -. y)
     | Ast.Mul -> Vfloat (x *. y)
     | Ast.Div ->
       if y = 0.0 then py_error "ZeroDivisionError" "float division by zero"
       else Vfloat (x /. y)
     | Ast.FloorDiv -> Vfloat (Float.of_int (int_of_float (Float.floor (x /. y))))
     | Ast.Mod -> Vfloat (x -. (y *. Float.floor (x /. y)))
     | Ast.Pow -> Vfloat (Float.pow x y)
     | _ -> assert false)
  | _ ->
    py_error "TypeError" "unsupported operand type(s) for %s: '%s' and '%s'"
      (Pretty.binop_str op) (type_name a) (type_name b)

let rec binop_values t op a b =
  match op, a, b with
  | Ast.Add, Vstr x, Vstr y ->
    let v = Vstr (x ^ y) in
    charge_alloc t v; v
  | Ast.Add, Vlist x, Vlist y ->
    let v = Vlist { items = Array.append x.items y.items } in
    charge_alloc t v; v
  | Ast.Add, Vtuple x, Vtuple y ->
    let v = Vtuple (Array.append x y) in
    charge_alloc t v; v
  | Ast.Mul, Vstr s, Vint n | Ast.Mul, Vint n, Vstr s ->
    let v = Vstr (String.concat "" (List.init (max 0 n) (fun _ -> s))) in
    charge_alloc t v; v
  | Ast.Mul, Vlist l, Vint n | Ast.Mul, Vint n, Vlist l ->
    let parts = List.init (max 0 n) (fun _ -> l.items) in
    let v = Vlist { items = Array.concat parts } in
    charge_alloc t v; v
  | Ast.Eq, _, _ -> Vbool (equal a b)
  | Ast.Ne, _, _ -> Vbool (not (equal a b))
  | Ast.Lt, _, _ -> Vbool (compare_values a b < 0)
  | Ast.Le, _, _ -> Vbool (compare_values a b <= 0)
  | Ast.Gt, _, _ -> Vbool (compare_values a b > 0)
  | Ast.Ge, _, _ -> Vbool (compare_values a b >= 0)
  | Ast.In, x, Vlist l -> Vbool (Array.exists (equal x) l.items)
  | Ast.In, x, Vtuple a -> Vbool (Array.exists (equal x) a)
  | Ast.In, x, Vdict d -> Vbool (List.exists (fun (k, _) -> equal x k) d.pairs)
  | Ast.In, Vstr x, Vstr y ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      if nn = 0 then true
      else
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
    in
    Vbool (contains y x)
  | Ast.NotIn, x, container ->
    (match binop_values t Ast.In x container with
     | Vbool b -> Vbool (not b)
     | _ -> assert false)
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.FloorDiv | Ast.Mod | Ast.Pow), _, _ ->
    numeric_binop op a b
  | (Ast.And | Ast.Or | Ast.In), _, _ ->
    py_error "TypeError" "argument of type '%s' is not iterable" (type_name b)

(* --- environments ------------------------------------------------------- *)

let module_env (m : module_obj) =
  { locals = m.mattrs; globals = m.mattrs; global_decls = Hashtbl.create 4 }

(* A hit in a module's globals is a read of that module's attribute. At
   module level locals == globals, so a locals hit there counts too. *)
let record_global f env name =
  match Hashtbl.find_opt env.globals "__name__" with
  | Some (Vstr m) -> f m name
  | _ -> ()

let lookup t env name =
  match Hashtbl.find_opt env.locals name with
  | Some v ->
    (match t.on_read with
     | Some f when env.locals == env.globals -> record_global f env name
     | _ -> ());
    Some v
  | None ->
    (match Hashtbl.find_opt env.globals name with
     | Some v ->
       (match t.on_read with Some f -> record_global f env name | None -> ());
       Some v
     | None -> Hashtbl.find_opt t.builtins name)

(* Bind call arguments into a fresh locals table, raising the exact
   TypeErrors CPython would. *)
let bind_args (f : func) args kwargs (locals : namespace) =
  let rec bind params args =
    match params, args with
    | [], [] -> ()
    | [], extra ->
      py_error "TypeError" "%s() takes %d positional arguments but %d were given"
        f.fname (List.length f.fparams)
        (List.length f.fparams + List.length extra)
    | (name, default) :: ps, [] ->
      (match List.assoc_opt name kwargs with
       | Some v -> Hashtbl.replace locals name v
       | None ->
         (match default with
          | Some v -> Hashtbl.replace locals name v
          | None ->
            py_error "TypeError" "%s() missing required argument: '%s'" f.fname name));
      bind ps []
    | (name, _) :: ps, a :: rest ->
      Hashtbl.replace locals name a;
      bind ps rest
  in
  bind f.fparams args;
  List.iter
    (fun (k, v) ->
       if not (List.mem_assoc k (List.map (fun (n, d) -> (n, d)) f.fparams)) then
         py_error "TypeError" "%s() got an unexpected keyword argument '%s'" f.fname k
       else if not (Hashtbl.mem locals k) then Hashtbl.replace locals k v)
    kwargs

(* --- iteration helper --------------------------------------------------- *)

let iter_values v : value list =
  match v with
  | Vlist l -> Array.to_list l.items
  | Vtuple a -> Array.to_list a
  | Vstr s -> List.init (String.length s) (fun i -> Vstr (String.make 1 s.[i]))
  | Vdict d -> List.map fst d.pairs
  | _ -> py_error "TypeError" "'%s' object is not iterable" (type_name v)

(* --- attribute access on builtin types ---------------------------------- *)

let str_method t s name =
  let b bname f = Vbuiltin { bname = "str." ^ bname; bcall = f } in
  let ret_str x = let v = Vstr x in charge_alloc t v; v in
  match name with
  | "upper" -> Some (b "upper" (fun _ _ -> ret_str (String.uppercase_ascii s)))
  | "lower" -> Some (b "lower" (fun _ _ -> ret_str (String.lowercase_ascii s)))
  | "strip" -> Some (b "strip" (fun _ _ -> ret_str (String.trim s)))
  | "split" ->
    Some
      (b "split" (fun args _ ->
           let sep = match args with
             | [ Vstr sep ] -> sep
             | [] -> " "
             | _ -> py_error "TypeError" "split: bad arguments"
           in
           let parts =
             if String.length sep = 1 then String.split_on_char sep.[0] s
             else [ s ]
           in
           let v = Vlist { items = Array.of_list (List.map (fun p -> Vstr p) parts) } in
           charge_alloc t v; v))
  | "join" ->
    Some
      (b "join" (fun args _ ->
           match args with
           | [ items ] ->
             let strs =
               List.map
                 (function
                   | Vstr x -> x
                   | v -> py_error "TypeError" "join: expected str, got %s" (type_name v))
                 (iter_values items)
             in
             ret_str (String.concat s strs)
           | _ -> py_error "TypeError" "join takes one argument"))
  | "startswith" ->
    Some
      (b "startswith" (fun args _ ->
           match args with
           | [ Vstr p ] ->
             Vbool
               (String.length s >= String.length p
                && String.sub s 0 (String.length p) = p)
           | _ -> py_error "TypeError" "startswith: bad arguments"))
  | "endswith" ->
    Some
      (b "endswith" (fun args _ ->
           match args with
           | [ Vstr p ] ->
             let ls = String.length s and lp = String.length p in
             Vbool (ls >= lp && String.sub s (ls - lp) lp = p)
           | _ -> py_error "TypeError" "endswith: bad arguments"))
  | "format" ->
    Some
      (b "format" (fun args _ ->
           (* positional {} substitution, in order *)
           let buf = Buffer.create (String.length s) in
           let args = ref args in
           let i = ref 0 in
           let n = String.length s in
           while !i < n do
             if !i + 1 < n && s.[!i] = '{' && s.[!i + 1] = '}' then begin
               (match !args with
                | v :: rest ->
                  Buffer.add_string buf (to_display v);
                  args := rest
                | [] ->
                  py_error "IndexError"
                    "Replacement index out of range for positional args");
               i := !i + 2
             end
             else begin
               Buffer.add_char buf s.[!i];
               incr i
             end
           done;
           ret_str (Buffer.contents buf)))
  | "count" ->
    Some
      (b "count" (fun args _ ->
           match args with
           | [ Vstr needle ] when needle <> "" ->
             let ln = String.length needle and ls = String.length s in
             let rec go i acc =
               if i + ln > ls then acc
               else if String.sub s i ln = needle then go (i + ln) (acc + 1)
               else go (i + 1) acc
             in
             Vint (go 0 0)
           | _ -> py_error "TypeError" "count: bad arguments"))
  | "find" ->
    Some
      (b "find" (fun args _ ->
           match args with
           | [ Vstr needle ] ->
             let ln = String.length needle and ls = String.length s in
             let rec go i =
               if i + ln > ls then -1
               else if String.sub s i ln = needle then i
               else go (i + 1)
             in
             Vint (if ln = 0 then 0 else go 0)
           | _ -> py_error "TypeError" "find: bad arguments"))
  | "replace" ->
    Some
      (b "replace" (fun args _ ->
           match args with
           | [ Vstr old_s; Vstr new_s ] when old_s <> "" ->
             let buf = Buffer.create (String.length s) in
             let lo = String.length old_s in
             let i = ref 0 in
             while !i <= String.length s - lo do
               if String.sub s !i lo = old_s then begin
                 Buffer.add_string buf new_s;
                 i := !i + lo
               end
               else begin
                 Buffer.add_char buf s.[!i];
                 incr i
               end
             done;
             Buffer.add_string buf (String.sub s !i (String.length s - !i));
             ret_str (Buffer.contents buf)
           | _ -> py_error "TypeError" "replace: bad arguments"))
  | _ -> None

let list_method t (l : vlist) name =
  let b bname f = Vbuiltin { bname = "list." ^ bname; bcall = f } in
  match name with
  | "append" ->
    Some
      (b "append" (fun args _ ->
           match args with
           | [ v ] ->
             l.items <- Array.append l.items [| v |];
             charge_bytes t 8;
             Vnone
           | _ -> py_error "TypeError" "append takes one argument"))
  | "pop" ->
    Some
      (b "pop" (fun args _ ->
           let n = Array.length l.items in
           if n = 0 then py_error "IndexError" "pop from empty list";
           let idx = match args with
             | [] -> n - 1
             | [ Vint i ] -> if i < 0 then n + i else i
             | _ -> py_error "TypeError" "pop: bad arguments"
           in
           if idx < 0 || idx >= n then py_error "IndexError" "pop index out of range";
           let v = l.items.(idx) in
           l.items <- Array.append (Array.sub l.items 0 idx)
               (Array.sub l.items (idx + 1) (n - idx - 1));
           v))
  | "extend" ->
    Some
      (b "extend" (fun args _ ->
           match args with
           | [ other ] ->
             l.items <- Array.append l.items (Array.of_list (iter_values other));
             Vnone
           | _ -> py_error "TypeError" "extend takes one argument"))
  | "sort" ->
    Some
      (b "sort" (fun _ _ ->
           let copy = Array.copy l.items in
           Array.sort compare_values copy;
           l.items <- copy;
           Vnone))
  | "index" ->
    Some
      (b "index" (fun args _ ->
           match args with
           | [ v ] ->
             let rec find i =
               if i >= Array.length l.items then
                 py_error "ValueError" "%s is not in list" (to_repr v)
               else if equal l.items.(i) v then Vint i
               else find (i + 1)
             in
             find 0
           | _ -> py_error "TypeError" "index takes one argument"))
  | _ -> None

let dict_method t (d : vdict) name =
  let b bname f = Vbuiltin { bname = "dict." ^ bname; bcall = f } in
  match name with
  | "get" ->
    Some
      (b "get" (fun args _ ->
           match args with
           | [ k ] -> Option.value (dict_lookup d k) ~default:Vnone
           | [ k; default ] -> Option.value (dict_lookup d k) ~default
           | _ -> py_error "TypeError" "get: bad arguments"))
  | "keys" ->
    Some
      (b "keys" (fun _ _ ->
           let v = Vlist { items = Array.of_list (List.map fst d.pairs) } in
           charge_alloc t v; v))
  | "values" ->
    Some
      (b "values" (fun _ _ ->
           let v = Vlist { items = Array.of_list (List.map snd d.pairs) } in
           charge_alloc t v; v))
  | "items" ->
    Some
      (b "items" (fun _ _ ->
           let v =
             Vlist
               { items =
                   Array.of_list
                     (List.map (fun (k, v) -> Vtuple [| k; v |]) d.pairs) }
           in
           charge_alloc t v; v))
  | "update" ->
    Some
      (b "update" (fun args _ ->
           match args with
           | [ Vdict other ] ->
             List.iter (fun (k, v) -> dict_set d k v) other.pairs;
             Vnone
           | _ -> py_error "TypeError" "update: bad arguments"))
  | "pop" ->
    Some
      (b "pop" (fun args _ ->
           match args with
           | [ k ] ->
             (match dict_lookup d k with
              | Some v -> d.pairs <- List.filter (fun (k', _) -> not (equal k k')) d.pairs; v
              | None -> py_error "KeyError" "%s" (to_repr k))
           | [ k; default ] ->
             (match dict_lookup d k with
              | Some v -> d.pairs <- List.filter (fun (k', _) -> not (equal k k')) d.pairs; v
              | None -> default)
           | _ -> py_error "TypeError" "pop: bad arguments"))
  | _ -> None

(* --- the interpreter ---------------------------------------------------- *)

let rec getattr t obj name =
  match obj with
  | Vmodule m ->
    (match t.on_read with Some f -> f m.mname name | None -> ());
    (* first attribute touch materializes a lazy stub (ARCHITECTURE §14) *)
    force_module t m;
    (match Hashtbl.find_opt m.mattrs name with
     | Some v -> v
     | None ->
       (* attribute may be an unimported submodule: torch.optim *)
       (match import_submodule t m name with
        | Some v -> v
        | None ->
          py_error "AttributeError" "module '%s' has no attribute '%s'" m.mname name))
  | Vinstance i ->
    (match Hashtbl.find_opt i.iattrs name with
     | Some v -> v
     | None ->
       (match class_lookup i.icls name with
        | Some (Vfunc _ as f) -> bind_method t obj f
        | Some v -> v
        | None ->
          py_error "AttributeError" "'%s' object has no attribute '%s'"
            i.icls.cname name))
  | Vclass c ->
    (match class_lookup c name with
     | Some v -> v
     | None ->
       py_error "AttributeError" "type object '%s' has no attribute '%s'" c.cname name)
  | Vstr s ->
    (match str_method t s name with
     | Some m -> m
     | None -> py_error "AttributeError" "'str' object has no attribute '%s'" name)
  | Vlist l ->
    (match list_method t l name with
     | Some m -> m
     | None -> py_error "AttributeError" "'list' object has no attribute '%s'" name)
  | Vdict d ->
    (match dict_method t d name with
     | Some m -> m
     | None -> py_error "AttributeError" "'dict' object has no attribute '%s'" name)
  | Vexc e ->
    (match name with
     | "args" -> Vtuple [| Vstr e.exc_msg |]
     | "message" -> Vstr e.exc_msg
     | _ ->
       py_error "AttributeError" "'%s' object has no attribute '%s'" e.exc_class name)
  | v -> py_error "AttributeError" "'%s' object has no attribute '%s'" (type_name v) name

and bind_method t self f =
  match f with
  | Vfunc fn ->
    Vbuiltin
      { bname = fn.fname;
        bcall = (fun args kwargs -> call_function t fn (self :: args) kwargs) }
  | _ -> f

and setattr t obj name v =
  match obj with
  | Vinstance i -> Hashtbl.replace i.iattrs name v
  | Vmodule m ->
    (* setting an attribute is a touch too: the body must run first so the
       write is not clobbered when the stub is later forced *)
    force_module t m;
    Hashtbl.replace m.mattrs name v
  | Vclass c -> Hashtbl.replace c.cattrs name v
  | other ->
    py_error "AttributeError" "cannot set attribute '%s' on '%s'" name
      (type_name other)

and call_value t callee args kwargs =
  charge_time t call_cost_ms;
  match callee with
  | Vfunc f -> call_function t f args kwargs
  | Vbuiltin b -> b.bcall args kwargs
  | Vclass c -> instantiate t c args kwargs
  | Vinstance i as self ->
    (match class_lookup i.icls "__call__" with
     | Some (Vfunc f) -> call_function t f (self :: args) kwargs
     | Some _ | None ->
       py_error "TypeError" "'%s' object is not callable" i.icls.cname)
  | v -> py_error "TypeError" "'%s' object is not callable" (type_name v)

and call_function t (f : func) args kwargs =
  let locals = Hashtbl.create 8 in
  bind_args f args kwargs locals;
  let env = { locals; globals = f.fglobals; global_decls = Hashtbl.create 4 } in
  try
    exec_block t env f.fbody;
    Vnone
  with Return_exc v -> v

and instantiate t (c : cls) args kwargs =
  let inst = { icls = c; iattrs = Hashtbl.create 8 } in
  let v = Vinstance inst in
  charge_alloc t v;
  (match class_lookup c "__init__" with
   | Some (Vfunc f) -> ignore (call_function t f (v :: args) kwargs)
   | Some _ | None ->
     if args <> [] || kwargs <> [] then
       py_error "TypeError" "%s() takes no arguments" c.cname);
  v

and eval t env (e : Ast.expr) : value =
  tick t;
  match e.Ast.desc with
  | Ast.Const (Ast.Cint i) -> Vint i
  | Ast.Const (Ast.Cfloat f) -> Vfloat f
  | Ast.Const (Ast.Cstr s) -> Vstr s
  | Ast.Const (Ast.Cbool b) -> Vbool b
  | Ast.Const Ast.Cnone -> Vnone
  | Ast.Name n ->
    (match lookup t env n with
     | Some v -> v
     | None -> py_error "NameError" "name '%s' is not defined" n)
  | Ast.Attr (base, name) ->
    let obj = eval t env base in
    getattr t obj name
  | Ast.Subscript (base, idx) ->
    let obj = eval t env base in
    let key = eval t env idx in
    subscript t obj key
  | Ast.Call (f, args, kwargs) ->
    let callee = eval t env f in
    let args = List.map (eval t env) args in
    let kwargs = List.map (fun (k, v) -> (k, eval t env v)) kwargs in
    call_value t callee args kwargs
  | Ast.Binop (Ast.And, l, r) ->
    let lv = eval t env l in
    if truthy lv then eval t env r else lv
  | Ast.Binop (Ast.Or, l, r) ->
    let lv = eval t env l in
    if truthy lv then lv else eval t env r
  | Ast.Binop (op, l, r) ->
    let lv = eval t env l in
    let rv = eval t env r in
    binop_values t op lv rv
  | Ast.Unop (Ast.Not, x) -> Vbool (not (truthy (eval t env x)))
  | Ast.Unop (Ast.Neg, x) ->
    (match eval t env x with
     | Vint i -> Vint (-i)
     | Vfloat f -> Vfloat (-.f)
     | v -> py_error "TypeError" "bad operand type for unary -: '%s'" (type_name v))
  | Ast.Unop (Ast.Pos, x) ->
    (match eval t env x with
     | (Vint _ | Vfloat _) as v -> v
     | v -> py_error "TypeError" "bad operand type for unary +: '%s'" (type_name v))
  | Ast.ListLit items ->
    let v = Vlist { items = Array.of_list (List.map (eval t env) items) } in
    charge_alloc t v; v
  | Ast.TupleLit items ->
    let v = Vtuple (Array.of_list (List.map (eval t env) items)) in
    charge_alloc t v; v
  | Ast.DictLit items ->
    let d = { pairs = [] } in
    List.iter
      (fun (k, ve) ->
         let kv = eval t env k in
         let vv = eval t env ve in
         dict_set d kv vv)
      items;
    let v = Vdict d in
    charge_alloc t v; v
  | Ast.Lambda (params, body) ->
    let f =
      Vfunc
        { fname = "<lambda>";
          fparams = List.map (fun p -> (p, None)) params;
          fbody = [ Ast.s (Ast.Return (Some body)) ];
          fglobals = env.globals;
          fmodule = "<lambda>" }
    in
    charge_alloc t f; f
  | Ast.IfExp (cond, then_, else_) ->
    if truthy (eval t env cond) then eval t env then_ else eval t env else_
  | Ast.Slice (base, lo, hi) ->
    let obj = eval t env base in
    let eval_bound = Option.map (fun b -> eval t env b) in
    (* bounds evaluate left to right *)
    let lo_v = eval_bound lo in
    let hi_v = eval_bound hi in
    slice t obj lo_v hi_v
  | Ast.ListComp { Ast.celt; cvar; citer; ccond } ->
    let items = iter_values (eval t env citer) in
    let out =
      List.filter_map
        (fun item ->
           assign_target t env cvar item;
           match ccond with
           | Some c when not (truthy (eval t env c)) -> None
           | Some _ | None -> Some (eval t env celt))
        items
    in
    let v = Vlist { items = Array.of_list out } in
    charge_alloc t v;
    v
  | Ast.DictComp { Ast.dckey; dcval; dcvar; dciter; dccond } ->
    let items = iter_values (eval t env dciter) in
    let d = { pairs = [] } in
    List.iter
      (fun item ->
         assign_target t env dcvar item;
         match dccond with
         | Some c when not (truthy (eval t env c)) -> ()
         | Some _ | None ->
           let k = eval t env dckey in
           let v = eval t env dcval in
           dict_set d k v)
      items;
    let v = Vdict d in
    charge_alloc t v;
    v

and slice t obj lo hi =
  let bound n = function
    | None -> None
    | Some (Vint i) -> Some (if i < 0 then max 0 (n + i) else min n i)
    | Some v -> py_error "TypeError" "slice indices must be integers, got %s"
                  (type_name v)
  in
  let clip n =
    let lo = Option.value (bound n lo) ~default:0 in
    let hi = Option.value (bound n hi) ~default:n in
    (lo, max lo hi)
  in
  match obj with
  | Vlist l ->
    let n = Array.length l.items in
    let lo, hi = clip n in
    let v = Vlist { items = Array.sub l.items lo (hi - lo) } in
    charge_alloc t v; v
  | Vtuple a ->
    let n = Array.length a in
    let lo, hi = clip n in
    let v = Vtuple (Array.sub a lo (hi - lo)) in
    charge_alloc t v; v
  | Vstr s ->
    let n = String.length s in
    let lo, hi = clip n in
    let v = Vstr (String.sub s lo (hi - lo)) in
    charge_alloc t v; v
  | v -> py_error "TypeError" "'%s' object is not sliceable" (type_name v)

and subscript t obj key =
  ignore t;
  match obj, key with
  | Vlist l, Vint i ->
    let n = Array.length l.items in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then py_error "IndexError" "list index out of range"
    else l.items.(i)
  | Vtuple a, Vint i ->
    let n = Array.length a in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then py_error "IndexError" "tuple index out of range" else a.(i)
  | Vstr s, Vint i ->
    let n = String.length s in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then py_error "IndexError" "string index out of range"
    else Vstr (String.make 1 s.[i])
  | Vdict d, k ->
    (match dict_lookup d k with
     | Some v -> v
     | None -> py_error "KeyError" "%s" (to_repr k))
  | v, _ -> py_error "TypeError" "'%s' object is not subscriptable" (type_name v)

and assign_target t env (target : Ast.target) v =
  match target with
  | Ast.Tname n ->
    if Hashtbl.mem env.global_decls n then Hashtbl.replace env.globals n v
    else Hashtbl.replace env.locals n v
  | Ast.Tattr (base, name) ->
    let obj = eval t env base in
    setattr t obj name v
  | Ast.Tsubscript (base, idx) ->
    let obj = eval t env base in
    let key = eval t env idx in
    store_subscript t obj key v
  | Ast.Ttuple targets ->
    let vs = iter_values v in
    if List.length vs <> List.length targets then
      py_error "ValueError" "cannot unpack %d values into %d targets"
        (List.length vs) (List.length targets);
    List.iter2 (assign_target t env) targets vs

and store_subscript _t obj key v =
  match obj, key with
  | Vlist l, Vint i ->
    let n = Array.length l.items in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then py_error "IndexError" "list assignment index out of range"
    else l.items.(i) <- v
  | Vdict d, k -> dict_set d k v
  | o, _ ->
    py_error "TypeError" "'%s' object does not support item assignment" (type_name o)

and exec_block t env stmts = List.iter (exec_stmt t env) stmts

and exec_stmt t env (s : Ast.stmt) =
  tick t;
  match s.Ast.sdesc with
  | Ast.Expr_stmt e -> ignore (eval t env e)
  | Ast.Assign (target, e) ->
    let v = eval t env e in
    assign_target t env target v
  | Ast.AugAssign (target, op, e) ->
    let current =
      match target with
      | Ast.Tname n ->
        (match lookup t env n with
         | Some v -> v
         | None -> py_error "NameError" "name '%s' is not defined" n)
      | Ast.Tattr (base, name) -> getattr t (eval t env base) name
      | Ast.Tsubscript (base, idx) ->
        subscript t (eval t env base) (eval t env idx)
      | Ast.Ttuple _ ->
        py_error "TypeError" "illegal expression for augmented assignment"
    in
    let v = binop_values t op current (eval t env e) in
    assign_target t env target v
  | Ast.Import (path, alias) -> exec_import t env path alias
  | Ast.From_import (clause, names) -> exec_from_import t env clause names
  | Ast.Def d ->
    let fparams =
      List.map
        (fun { Ast.pname; pdefault } ->
           (pname, Option.map (eval t env) pdefault))
        d.Ast.dparams
    in
    let f =
      Vfunc
        { fname = d.Ast.dname; fparams; fbody = d.Ast.dbody;
          fglobals = env.globals; fmodule = "<module>" }
    in
    charge_alloc t f;
    Hashtbl.replace env.locals d.Ast.dname f
  | Ast.Class c ->
    let bases =
      List.map
        (fun be ->
           match eval t env be with
           | Vclass b -> b
           | v -> py_error "TypeError" "base must be a class, got %s" (type_name v))
        c.Ast.cbases
    in
    let cattrs = Hashtbl.create 8 in
    let cls_env = { locals = cattrs; globals = env.globals;
                    global_decls = Hashtbl.create 2 } in
    exec_block t cls_env c.Ast.cbody;
    let cls = Vclass { cname = c.Ast.cname; cattrs; cbases = bases; cmodule = "" } in
    charge_alloc t cls;
    Hashtbl.replace env.locals c.Ast.cname cls
  | Ast.Return e ->
    let v = match e with Some e -> eval t env e | None -> Vnone in
    raise (Return_exc v)
  | Ast.If (branches, orelse) ->
    let rec go = function
      | [] -> exec_block t env orelse
      | (cond, body) :: rest ->
        if truthy (eval t env cond) then exec_block t env body else go rest
    in
    go branches
  | Ast.While (cond, body) ->
    (try
       while truthy (eval t env cond) do
         try exec_block t env body with Continue_exc -> ()
       done
     with Break_exc -> ())
  | Ast.For (target, iter, body) ->
    let vs = iter_values (eval t env iter) in
    (try
       List.iter
         (fun v ->
            assign_target t env target v;
            try exec_block t env body with Continue_exc -> ())
         vs
     with Break_exc -> ())
  | Ast.Try (body, handlers, finally) ->
    let run_finally () = exec_block t env finally in
    (try
       exec_block t env body;
       run_finally ()
     with
     | Py_error exc as original ->
       let matching =
         List.find_opt
           (fun h ->
              match h.Ast.hexc with
              | None -> true
              | Some name ->
                String.equal name exc.exc_class || String.equal name "Exception")
           handlers
       in
       (match matching with
        | Some h ->
          (match h.Ast.hbind with
           | Some b -> Hashtbl.replace env.locals b (Vexc exc)
           | None -> ());
          (try exec_block t env h.Ast.hbody; run_finally ()
           with e -> run_finally (); raise e)
        | None -> run_finally (); raise original)
     | (Return_exc _ | Break_exc | Continue_exc) as control ->
       run_finally (); raise control)
  | Ast.Raise (Some e) ->
    (match eval t env e with
     | Vexc exc -> raise (Py_error exc)
     | Vstr msg -> raise (Py_error { exc_class = "Exception"; exc_msg = msg })
     | v -> py_error "TypeError" "exceptions must derive from BaseException, got %s"
              (type_name v))
  | Ast.Raise None -> py_error "RuntimeError" "No active exception to re-raise"
  | Ast.Pass -> ()
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Global names ->
    List.iter (fun n -> Hashtbl.replace env.global_decls n ()) names
  | Ast.Del target ->
    (match target with
     | Ast.Tname n ->
       if Hashtbl.mem env.locals n then Hashtbl.remove env.locals n
       else py_error "NameError" "name '%s' is not defined" n
     | Ast.Tattr (base, name) ->
       (match eval t env base with
        | Vinstance i -> Hashtbl.remove i.iattrs name
        | Vmodule m -> force_module t m; Hashtbl.remove m.mattrs name
        | Vclass c -> Hashtbl.remove c.cattrs name
        | v -> py_error "AttributeError" "cannot delete attribute of '%s'" (type_name v))
     | Ast.Tsubscript (base, idx) ->
       (match eval t env base, eval t env idx with
        | Vdict d, k -> dict_del d k
        | v, _ -> py_error "TypeError" "cannot delete item of '%s'" (type_name v))
     | Ast.Ttuple _ -> py_error "TypeError" "cannot delete tuple")
  | Ast.Assert (cond, msg) ->
    if not (truthy (eval t env cond)) then
      let m = match msg with Some m -> to_display (eval t env m) | None -> "" in
      py_error "AssertionError" "%s" m

(* --- import machinery --------------------------------------------------- *)

and import_dotted t (parts : string list) : module_obj =
  (* Import every prefix in order, as CPython does; returns the *last*
     component's module. *)
  let rec go last = function
    | [] -> (match last with Some m -> m | None -> assert false)
    | prefix :: rest ->
      let m = import_one t prefix in
      go (Some m) rest
  in
  go None (Importer.prefixes parts)

and import_one t (parts : string list) : module_obj =
  let name = Ast.dotted_to_string parts in
  match Hashtbl.find_opt t.modules name with
  | Some m ->
    (* an eager import of a pending stub (from-imports, submodule access)
       demands the initialized module, exactly like eager mode *)
    force_module t m;
    m
  | None ->
    if List.mem name t.import_stack then
      (* circular import: return the partially-initialized module if present *)
      (match Hashtbl.find_opt t.modules name with
       | Some m -> m
       | None -> py_error "ImportError" "circular import of '%s'" name)
    else begin
      match Importer.resolve t.vfs parts with
      | Importer.Not_found ->
        py_error "ModuleNotFoundError" "No module named '%s'" name
      | Importer.Package file | Importer.Module file ->
        (* one span per executed module import, on the virtual clock (§5.2's
           loader hook, as a trace); cached imports return above and cost
           nothing, so they emit nothing *)
        let sp =
          Obs.Span.begin_ t.obs_sink ~domain:Obs.Span.domain_virtual
            ~track:t.obs_track ~cat:"minipy" ~name:("import:" ^ name)
            ~ts_ms:(t.obs_offset_ms +. t.vtime_ms)
        in
        charge_time t import_resolve_ms;
        (* the virtual import-resolve charge above is fixed, so a parse-cache
           hit changes no measurement — only host wall-clock *)
        let prog =
          try Parse_cache.parse_vfs ~cache:t.parse_cache t.vfs file
          with
          | Parser.Error (msg, loc) ->
            py_error "SyntaxError" "%s at %s" msg (Loc.to_string loc)
          | Lexer.Error (msg, loc) ->
            py_error "SyntaxError" "%s at %s" msg (Loc.to_string loc)
        in
        let mattrs = Hashtbl.create 16 in
        Hashtbl.replace mattrs "__name__" (Vstr name);
        Hashtbl.replace mattrs "__file__" (Vstr file);
        let m = { mname = name; mfile = file; mattrs } in
        charge_alloc t (Vmodule m);
        Hashtbl.replace t.modules name m;
        t.import_stack <- name :: t.import_stack;
        let hooks = t.import_hooks in
        List.iter (fun h -> h.on_before name) hooks;
        let finish () =
          t.import_stack <- List.tl t.import_stack;
          List.iter (fun h -> h.on_after name) hooks;
          Obs.Span.end_ sp
            ~attrs:[ ("file", file) ]
            ~ts_ms:(t.obs_offset_ms +. t.vtime_ms)
        in
        (try
           exec_block t (module_env m) prog;
           finish ()
         with e ->
           finish ();
           Hashtbl.remove t.modules name;
           raise e);
        (* bind into parent package's namespace: a.b becomes attr b of a *)
        (match List.rev parts with
         | _ :: (_ :: _ as rev_parent) ->
           let parent = Ast.dotted_to_string (List.rev rev_parent) in
           (match Hashtbl.find_opt t.modules parent with
            | Some pm ->
              Hashtbl.replace pm.mattrs
                (List.nth parts (List.length parts - 1))
                (Vmodule m)
            | None -> ())
         | _ -> ());
        m
    end

and import_submodule t (m : module_obj) name : value option =
  let parts = String.split_on_char '.' m.mname @ [ name ] in
  match Importer.resolve t.vfs parts with
  | Importer.Not_found -> None
  | Importer.Package _ | Importer.Module _ ->
    let sub = import_one t parts in
    Some (Vmodule sub)

(* --- lazy stubs (ARCHITECTURE §14) -------------------------------------- *)

(* Can [path] be imported as lazy stubs? Never while a force is replaying a
   body (its nested imports must run in eager order — see [force_body]).
   The root must be in the image's lazy set and every prefix either already
   cached or resolvable, so an unresolvable name still raises eagerly at
   the import statement — exactly where eager mode raises it. *)
and lazy_importable t (path : string list) =
  t.lazy_forcing = 0
  && Hashtbl.mem t.lazy_roots (List.hd path)
  && List.for_all
       (fun parts ->
          Hashtbl.mem t.modules (Ast.dotted_to_string parts)
          || (match Importer.resolve t.vfs parts with
              | Importer.Package _ | Importer.Module _ -> true
              | Importer.Not_found -> false))
       (Importer.prefixes path)

(* Stub every missing prefix of [path]; returns the last component's module
   (stub or already materialized). Mirrors [import_dotted]'s shape: `import
   a.b.c` stubs a, a.b and a.b.c with each child bound into its parent, and
   forcing later re-runs the bodies in that same root-first order. *)
and lazy_import_dotted t (path : string list) : module_obj =
  let rec go last = function
    | [] -> (match last with Some m -> m | None -> assert false)
    | parts :: rest ->
      let name = Ast.dotted_to_string parts in
      let m =
        match Hashtbl.find_opt t.modules name with
        | Some m -> m
        | None -> make_stub t parts name
      in
      go (Some m) rest
  in
  go None (Importer.prefixes path)

and make_stub t parts name : module_obj =
  let file =
    match Importer.resolve t.vfs parts with
    | Importer.Package file | Importer.Module file -> file
    | Importer.Not_found -> assert false  (* guarded by [lazy_importable] *)
  in
  let mattrs = Hashtbl.create 16 in
  Hashtbl.replace mattrs "__name__" (Vstr name);
  Hashtbl.replace mattrs "__file__" (Vstr file);
  let m = { mname = name; mfile = file; mattrs } in
  (* the module shell is allocated now; the loader fee and body ticks move
     to force time, so a fully-forced run charges the same multiset of
     time/bytes/steps as its eager twin *)
  charge_alloc t (Vmodule m);
  Hashtbl.replace t.modules name m;
  Hashtbl.replace t.lazy_pending name ();
  (match List.rev parts with
   | leaf :: (_ :: _ as rev_parent) ->
     let parent = Ast.dotted_to_string (List.rev rev_parent) in
     (match Hashtbl.find_opt t.modules parent with
      | Some pm -> Hashtbl.replace pm.mattrs leaf (Vmodule m)
      | None -> ())
   | _ -> ());
  m

(* Run a pending stub's body; a no-op on initialized modules. Ancestors
   force first (eager `import a.b` ran a's body before a.b's), and the
   pending mark clears *before* the body runs, so a circular re-entrant
   touch observes the partially-initialized module exactly as eager mode
   does. *)
and force_module t (m : module_obj) =
  if Hashtbl.mem t.lazy_pending m.mname then begin
    (match String.rindex_opt m.mname '.' with
     | Some i ->
       (match Hashtbl.find_opt t.modules (String.sub m.mname 0 i) with
        | Some parent -> force_module t parent
        | None -> ())
     | None -> ());
    (* forcing an ancestor can re-enter and force [m] itself *)
    if Hashtbl.mem t.lazy_pending m.mname then force_body t m
  end

and force_body t (m : module_obj) =
  Hashtbl.remove t.lazy_pending m.mname;
  let name = m.mname and file = m.mfile in
  let sp =
    Obs.Span.begin_ t.obs_sink ~domain:Obs.Span.domain_virtual
      ~track:t.obs_track ~cat:"minipy" ~name:("lazy-force:" ^ name)
      ~ts_ms:(t.obs_offset_ms +. t.vtime_ms)
  in
  (* the deferred loader fee eager mode charged at the import statement *)
  charge_time t import_resolve_ms;
  let prog =
    try Parse_cache.parse_vfs ~cache:t.parse_cache t.vfs file with
    | Parser.Error (msg, loc) ->
      py_error "SyntaxError" "%s at %s" msg (Loc.to_string loc)
    | Lexer.Error (msg, loc) ->
      py_error "SyntaxError" "%s at %s" msg (Loc.to_string loc)
  in
  t.import_stack <- name :: t.import_stack;
  let hooks = t.import_hooks in
  List.iter (fun h -> h.on_before name) hooks;
  t.lazy_forcing <- t.lazy_forcing + 1;
  let finish () =
    t.lazy_forcing <- t.lazy_forcing - 1;
    t.import_stack <- List.tl t.import_stack;
    List.iter (fun h -> h.on_after name) hooks;
    Obs.Span.end_ sp
      ~attrs:[ ("file", file) ]
      ~ts_ms:(t.obs_offset_ms +. t.vtime_ms)
  in
  (try
     exec_block t (module_env m) prog;
     finish ()
   with e ->
     finish ();
     Hashtbl.remove t.modules name;
     raise e);
  (* eager mode binds a child into its parent *after* the parent body runs,
     so a body-level name shadowed by a submodule must end up bound to the
     module — re-assert every registered direct child *)
  let pfx = name ^ "." in
  let pl = String.length pfx in
  Hashtbl.iter
    (fun cname cm ->
       if
         String.length cname > pl
         && String.sub cname 0 pl = pfx
         && not (String.contains_from cname pl '.')
       then
         Hashtbl.replace m.mattrs
           (String.sub cname pl (String.length cname - pl))
           (Vmodule cm))
    t.modules

and exec_import t env (path : Ast.dotted) alias =
  let last =
    if lazy_importable t path then lazy_import_dotted t path
    else import_dotted t path
  in
  match alias with
  | Some a -> Hashtbl.replace env.locals a (Vmodule last)
  | None ->
    (* `import a.b.c` binds `a` *)
    let root = List.hd path in
    let root_mod = Hashtbl.find t.modules root in
    Hashtbl.replace env.locals root (Vmodule root_mod)

(* Resolve a relative from-clause against the importing module. A package's
   __init__ resolves level 1 to the package itself; a plain module resolves
   it to its parent package; each extra dot strips one more component. *)
and resolve_from_clause t env (clause : Ast.from_clause) : Ast.dotted =
  ignore t;
  if clause.Ast.fc_level = 0 then clause.Ast.fc_path
  else begin
    let current_name =
      match Hashtbl.find_opt env.globals "__name__" with
      | Some (Vstr n) -> n
      | _ -> "__main__"
    in
    let is_package =
      match Hashtbl.find_opt env.globals "__file__" with
      | Some (Vstr f) ->
        String.length f >= 11
        && String.sub f (String.length f - 11) 11 = "__init__.py"
      | _ -> false
    in
    if String.equal current_name "__main__" then
      py_error "ImportError"
        "attempted relative import with no known parent package";
    let parts = String.split_on_char '.' current_name in
    let rec drop_last = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: drop_last rest
    in
    let base = if is_package then parts else drop_last parts in
    let rec strip base n =
      if n <= 1 then base
      else
        match base with
        | [] -> py_error "ImportError" "attempted relative import beyond top-level package"
        | _ -> strip (drop_last base) (n - 1)
    in
    let base = strip base clause.Ast.fc_level in
    if base = [] then
      py_error "ImportError" "attempted relative import beyond top-level package";
    base @ clause.Ast.fc_path
  end

and exec_from_import t env (clause : Ast.from_clause) names =
  let path = resolve_from_clause t env clause in
  let m = import_dotted t path in
  List.iter
    (fun (name, alias) ->
       (match t.on_read with Some f -> f m.mname name | None -> ());
       let v =
         match Hashtbl.find_opt m.mattrs name with
         | Some v -> v
         | None ->
           (* from pkg import submodule *)
           (match import_submodule t m name with
            | Some v -> v
            | None ->
              py_error "ImportError" "cannot import name '%s' from '%s'" name m.mname)
       in
       Hashtbl.replace env.locals (Option.value alias ~default:name) v)
    names

(* --- construction ------------------------------------------------------- *)

let default_max_steps = 5_000_000

(* Part of every on-disk key (oracle memo, journal digest, manifest header);
   it must never change, or previously written files stop matching. *)
let engine_tag = "treewalk"

let create ?(max_steps = default_max_steps) ?(parse_cache = Parse_cache.global)
    ?(obs = false) ?on_read (vfs : Vfs.t) : t =
  let obs_sink = if obs then Obs.Span.installed () else Obs.Span.null in
  let t =
    { vfs;
      parse_cache;
      obs_sink;
      obs_track = Obs.Span.fresh_track obs_sink;
      obs_offset_ms = 0.0;
      modules = Hashtbl.create 32;
      stdout_buf = Buffer.create 256;
      vtime_ms = 0.0;
      heap_bytes = 3 * 1024 * 1024;  (* bare runtime footprint ~3 MB *)
      steps = 0;
      max_steps;
      import_hooks = [];
      import_stack = [];
      builtins = Hashtbl.create 64;
      external_calls = [];
      remote_store = Hashtbl.create 8;
      lazy_roots = Hashtbl.create 4;
      lazy_pending = Hashtbl.create 4;
      lazy_forcing = 0;
      on_read }
  in
  (* arm lazy loading when the image ships a manifest (ARCHITECTURE §14) *)
  (match Vfs.read vfs lazy_manifest_file with
   | None -> ()
   | Some src ->
     let lazified, _preload = parse_lazy_manifest src in
     List.iter (fun r -> Hashtbl.replace t.lazy_roots r ()) lazified);
  Builtins.install
    ~output:(fun s -> output t s)
    ~charge_time:(fun ms -> charge_time t ms)
    ~charge_bytes:(fun b -> charge_bytes t b)
    t.builtins;
  (* simrt: the synthetic-native-work module used by workload libraries *)
  let simrt_attrs = Hashtbl.create 8 in
  Hashtbl.replace simrt_attrs "__name__" (Vstr "simrt");
  Hashtbl.replace simrt_attrs "cpu_ms"
    (Vbuiltin
       { bname = "simrt.cpu_ms";
         bcall =
           (fun args _ ->
              match args with
              | [ v ] -> charge_time t (as_float v); Vnone
              | _ -> py_error "TypeError" "cpu_ms takes one argument") });
  Hashtbl.replace simrt_attrs "alloc_mb"
    (Vbuiltin
       { bname = "simrt.alloc_mb";
         bcall =
           (fun args _ ->
              match args with
              | [ v ] ->
                charge_bytes t (int_of_float (as_float v *. 1024.0 *. 1024.0));
                Vnone
              | _ -> py_error "TypeError" "alloc_mb takes one argument") });
  Hashtbl.replace simrt_attrs "io_ms"
    (Vbuiltin
       { bname = "simrt.io_ms";
         bcall =
           (fun args _ ->
              match args with
              | [ v ] -> charge_time t (as_float v); Vnone
              | _ -> py_error "TypeError" "io_ms takes one argument") });
  let simrt = { mname = "simrt"; mfile = "<builtin>"; mattrs = simrt_attrs } in
  Hashtbl.replace t.modules "simrt" simrt;
  (* json: encode/decode events and responses *)
  let json_attrs = Hashtbl.create 4 in
  Hashtbl.replace json_attrs "__name__" (Vstr "json");
  Hashtbl.replace json_attrs "dumps"
    (Vbuiltin
       { bname = "json.dumps";
         bcall =
           (fun args _ ->
              match args with
              | [ v ] ->
                let s = Vstr (Json_support.dumps v) in
                charge_alloc t s; s
              | _ -> py_error "TypeError" "dumps takes one argument") });
  Hashtbl.replace json_attrs "loads"
    (Vbuiltin
       { bname = "json.loads";
         bcall =
           (fun args _ ->
              match args with
              | [ Vstr s ] ->
                (try
                   let v = Json_support.loads s in
                   charge_alloc t v; v
                 with Json_support.Decode_error m ->
                   py_error "ValueError" "%s" m)
              | _ -> py_error "TypeError" "loads takes a string") });
  let json_mod = { mname = "json"; mfile = "<builtin>"; mattrs = json_attrs } in
  Hashtbl.replace t.modules "json" json_mod;
  (* cloud: intercepted remote-service calls (§5.3) — every operation is
     recorded so the oracle can check external side effects for equivalence,
     and reads are deterministic per interpreter run *)
  let record op = t.external_calls <- op :: t.external_calls in
  let cloud_attrs = Hashtbl.create 4 in
  Hashtbl.replace cloud_attrs "__name__" (Vstr "cloud");
  Hashtbl.replace cloud_attrs "put"
    (Vbuiltin
       { bname = "cloud.put";
         bcall =
           (fun args _ ->
              match args with
              | [ Vstr service; Vstr key; v ] ->
                charge_time t 2.5;  (* network round-trip *)
                record
                  (Printf.sprintf "put %s/%s = %s" service key (to_repr v));
                Hashtbl.replace t.remote_store (service ^ "/" ^ key) v;
                Vbool true
              | _ -> py_error "TypeError" "put(service, key, value)") });
  Hashtbl.replace cloud_attrs "get"
    (Vbuiltin
       { bname = "cloud.get";
         bcall =
           (fun args _ ->
              match args with
              | [ Vstr service; Vstr key ] ->
                charge_time t 2.5;
                record (Printf.sprintf "get %s/%s" service key);
                (match Hashtbl.find_opt t.remote_store (service ^ "/" ^ key) with
                 | Some v -> v
                 | None ->
                   (* deterministic synthetic blob for unseen keys *)
                   let v = Vstr (Printf.sprintf "blob:%s/%s" service key) in
                   charge_alloc t v; v)
              | _ -> py_error "TypeError" "get(service, key)") });
  Hashtbl.replace cloud_attrs "invoke"
    (Vbuiltin
       { bname = "cloud.invoke";
         bcall =
           (fun args _ ->
              match args with
              | [ Vstr fn; payload ] ->
                charge_time t 8.0;
                record
                  (Printf.sprintf "invoke %s(%s)" fn (to_repr payload));
                let v = Vdict { pairs = [ (Vstr "ok", Vbool true) ] } in
                charge_alloc t v; v
              | _ -> py_error "TypeError" "invoke(function_name, payload)") });
  let cloud_mod = { mname = "cloud"; mfile = "<builtin>"; mattrs = cloud_attrs } in
  Hashtbl.replace t.modules "cloud" cloud_mod;
  t

(* External calls in issue order. *)
let external_calls t = List.rev t.external_calls

let add_import_hook t hook = t.import_hooks <- t.import_hooks @ [ hook ]

(* Execute a top-level program (the handler file) in a fresh __main__ module;
   returns its namespace. *)
let exec_main t (prog : Ast.program) : namespace =
  let mattrs = Hashtbl.create 16 in
  Hashtbl.replace mattrs "__name__" (Vstr "__main__");
  let m = { mname = "__main__"; mfile = "<main>"; mattrs } in
  Hashtbl.replace t.modules "__main__" m;
  exec_block t (module_env m) prog;
  mattrs

(* Call a function defined in a namespace (the lambda handler). *)
let call_in_namespace t (ns : namespace) fname args =
  match Hashtbl.find_opt ns fname with
  | Some (Vfunc f) -> call_function t f args []
  | Some (Vbuiltin b) -> b.bcall args []
  | Some v -> py_error "TypeError" "'%s' object is not callable" (type_name v)
  | None -> py_error "NameError" "name '%s' is not defined" fname
