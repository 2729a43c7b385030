(* Module path resolution against the virtual filesystem.

   Search order mirrors a Lambda image layout: the application root first
   (handler-adjacent modules), then site-packages. A dotted path a.b.c
   resolves each component in turn; packages are directories containing
   __init__.py, plain modules are .py files. *)

type resolution =
  | Package of string   (* vfs path of the package's __init__.py *)
  | Module of string    (* vfs path of the module's .py file *)
  | Not_found

let search_roots = [ ""; "site-packages/" ]

let join root parts = root ^ String.concat "/" parts

(* Resolve the full dotted path [parts]. *)
let resolve (vfs : Vfs.t) (parts : string list) : resolution =
  let try_root root =
    let base = join root parts in
    if Vfs.exists vfs (base ^ "/__init__.py") then Some (Package (base ^ "/__init__.py"))
    else if Vfs.exists vfs (base ^ ".py") then Some (Module (base ^ ".py"))
    else None
  in
  let rec go = function
    | [] -> Not_found
    | root :: rest ->
      (match try_root root with Some r -> r | None -> go rest)
  in
  go search_roots

(* All dotted prefixes of a path: a.b.c -> [a]; [a;b]; [a;b;c]. The running
   prefix is kept reversed so extending it is a cons, not a list append. *)
let prefixes (parts : string list) : string list list =
  let rec go acc rev_prefix = function
    | [] -> List.rev acc
    | p :: rest ->
      let rev_prefix = p :: rev_prefix in
      go (List.rev rev_prefix :: acc) rev_prefix rest
  in
  go [] [] parts

(* The site-packages path prefix owning a top-level module, if resolvable;
   used by the debloater to locate the file to rewrite. *)
let init_file_of (vfs : Vfs.t) (module_name : string) : string option =
  match resolve vfs (String.split_on_char '.' module_name) with
  | Package p -> Some p
  | Module p -> Some p
  | Not_found -> None
