(** Builtin functions and exception constructors installed into every
    interpreter: [print], [len], [range], conversions, aggregates, [sorted],
    container constructors, [enumerate]/[zip], [type]/[isinstance]/[hasattr],
    and one constructor per exception class (raising builds a [Vexc]
    matched by name in [except] clauses, where ["Exception"] catches
    all). *)

val iterable_values : Value.value -> Value.value list

(** Install the builtins into a namespace. [output] receives [print]ed text;
    [charge_time]/[charge_bytes] connect allocations to the interpreter's
    virtual-resource ledger. *)
val install :
  output:(string -> unit) ->
  charge_time:(float -> unit) ->
  charge_bytes:(int -> unit) ->
  Value.namespace ->
  unit
