(** The serverless platform simulator: instance lifecycle, cold/warm starts,
    keep-alive, and the Figure-1 billing boundary.

    A cold start runs instance init and image transmission (platform-side,
    not billed), then Function Initialization and Function Execution
    (billed). A warm start reuses a live instance and runs only execution.
    Instances expire after the keep-alive period; invoke with increasing
    [now_s]. *)

type params = {
  instance_init_ms : float;       (** phase-1 platform setup *)
  transmission_mb_per_s : float;  (** image download bandwidth *)
  keep_alive_s : float;
  max_steps : int;                (** interpreter budget per invocation *)
  runtime_overhead_ms : float;    (** billed per-request runtime overhead *)
}

val default_params : params

type start_kind = Cold | Warm

val start_kind_name : start_kind -> string

type outcome =
  | Ok of Minipy.Value.value
  | Error of Minipy.Value.exc

type record = {
  kind : start_kind;
  instance_init_ms : float;  (** 0 on warm starts *)
  transmission_ms : float;   (** 0 on warm starts *)
  init_ms : float;           (** Function Initialization; 0 on warm *)
  exec_ms : float;           (** Function Execution incl. runtime overhead *)
  e2e_ms : float;
  billed_ms : float;         (** init + exec, granularity-rounded *)
  peak_memory_mb : float;    (** instance footprint after the call *)
  cost : float;              (** Eq. 1 at the measured footprint *)
  outcome : outcome;
  stdout : string;           (** this invocation's stdout slice *)
  external_calls : string list;  (** intercepted remote-service operations *)
}

type instance = {
  interp : Minipy.Interp.t;
  namespace : Minipy.Value.namespace;
  init_ms_measured : float;
  mutable expires_at : float;
}

type t = {
  deployment : Deployment.t;
  pricing : Pricing.t;
  params : params;
  obs : bool;  (** emit Fig.-1 phase spans on the installed tracer *)
  on_read : (string -> string -> unit) option;
      (** read recorder of the sim's interpreters ({!Minipy.Interp.create}) *)
  mutable live : instance option;
      (** the warm instance; [None] forces the next invocation cold *)
}

(** [obs] (default [true]) records each invocation on the installed tracer:
    an [invoke] span per request on a fresh lane, with the Fig.-1 phase
    breakdown and the interpreter's import spans nested inside. The oracle's
    probe sims pass [~obs:false]. [on_read] (default off) records the
    module-level name reads of every invocation ({!Minipy.Interp.create}). *)
val create :
  ?pricing:Pricing.t -> ?params:params -> ?obs:bool ->
  ?on_read:(string -> string -> unit) -> Deployment.t -> t

(** Time to pull the deployment image at the configured bandwidth. *)
val transmission_ms : t -> float

(** Invoke the deployed function at time [now_s]. [event]/[context] are
    minipy expression sources. Init-phase crashes are billed for the time
    spent and surface as [Error] outcomes; the failed instance is not kept
    warm. *)
val invoke : ?event:string -> ?context:string -> t -> now_s:float -> unit -> record

(** One forced cold start followed by one warm start. *)
val measure_cold_and_warm :
  ?event:string -> ?context:string -> t -> record * record
