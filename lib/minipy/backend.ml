(* The engine tag, as a one-case choice. The tree-walker is minipy's only
   engine; this module survives solely so existing readers of
   [to_string (current ())] keep compiling. New code uses
   [Interp.engine_tag] directly. *)

type choice = Treewalk

let to_string Treewalk = Interp.engine_tag

let current () = Treewalk
