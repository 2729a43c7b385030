(** Deployment with fallbacks (§5.4, Table 4).

    The debloated handler is wrapped: if an input reaches a removed attribute
    (AttributeError, or the NameError/ImportError a missing binding surfaces
    as), the wrapper invokes the {e original} function as an independent
    serverless instance and returns its response plus a notification telling
    the user to re-run λ-trim with the failing input added to the oracle. *)

type result = {
  outcome : Platform.Lambda_sim.outcome;  (** what the client receives *)
  used_fallback : bool;
  notification : string option;           (** failing-input alert *)
  trimmed_record : Platform.Lambda_sim.record;
  fallback_record : Platform.Lambda_sim.record option;
  e2e_ms : float;
}

(** Invoke the trimmed deployment through the wrapper. The two simulators are
    independent function instances, each with its own cold/warm state —
    Table 4 measures all four combinations. *)
val invoke :
  ?event:string ->
  ?context:string ->
  trimmed_sim:Platform.Lambda_sim.t ->
  original_sim:Platform.Lambda_sim.t ->
  now_s:float ->
  unit ->
  result
