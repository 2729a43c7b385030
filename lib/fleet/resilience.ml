(* Retry/backoff math, the fallback circuit breaker, and the policy record.
   The breaker is a plain state machine over virtual time; its sample window
   is a ring buffer so a long run costs O(window) memory. *)

type retry = {
  max_retries : int;
  base_backoff_s : float;
  max_backoff_s : float;
  full_jitter : bool;
}

let default_retry =
  { max_retries = 3;
    base_backoff_s = 0.2;
    max_backoff_s = 10.0;
    full_jitter = true }

let backoff_s r ~retry_index ~jitter_u =
  let cap =
    Float.min r.max_backoff_s
      (r.base_backoff_s *. Float.of_int (1 lsl min retry_index 30))
  in
  if r.full_jitter then jitter_u *. cap else cap

type hedge = { hedge_delay_s : float }

module Breaker = struct
  type config = {
    error_threshold : float;
    window : int;
    min_samples : int;
    cooldown_s : float;
  }

  let validate c =
    if not (c.error_threshold > 0.0 && c.error_threshold <= 1.0) then
      invalid_arg
        (Printf.sprintf "Breaker: error_threshold must be in (0, 1] (got %g)"
           c.error_threshold);
    if c.window <= 0 then invalid_arg "Breaker: window must be positive";
    if c.min_samples <= 0 || c.min_samples > c.window then
      invalid_arg "Breaker: min_samples must be in [1, window]";
    if not (c.cooldown_s >= 0.0) then
      invalid_arg "Breaker: cooldown_s must be non-negative"

  type internal =
    | St_closed
    | St_open of float  (* half-open at this time *)
    | St_half_open of bool ref  (* probe in flight? *)

  type t = {
    cfg : config;
    obs_track : int;  (* fleet-domain trace track for transition marks *)
    samples : bool array;  (* ring buffer; [true] = removal error *)
    mutable count : int;
    mutable head : int;
    mutable failures : int;
    mutable st : internal;
  }

  let create ?(obs_track = 0) cfg =
    validate cfg;
    { cfg;
      obs_track;
      samples = Array.make cfg.window false;
      count = 0;
      head = 0;
      failures = 0;
      st = St_closed }

  type state = Closed | Open | Half_open

  let state t =
    match t.st with
    | St_closed -> Closed
    | St_open _ -> Open
    | St_half_open _ -> Half_open

  let reset_window t =
    Array.fill t.samples 0 (Array.length t.samples) false;
    t.count <- 0;
    t.head <- 0;
    t.failures <- 0

  (* state transitions are marked on the trace (the breaker's own track in
     the fleet domain) so its behaviour can be read against request lanes *)
  let obs_transition t name ~now =
    Obs.Span.instant (Obs.Span.installed ()) ~domain:Obs.Span.domain_fleet
      ~track:t.obs_track ~cat:"fleet" ~name ~ts_ms:(now *. 1000.0)

  let trip t ~now =
    reset_window t;
    obs_transition t "breaker:open" ~now;
    t.st <- St_open (now +. t.cfg.cooldown_s)

  type admission = Admit | Probe | Shed

  let admit t ~now =
    match t.st with
    | St_closed -> Admit
    | St_open until when now < until -> Shed
    | St_open _ ->
      obs_transition t "breaker:half-open" ~now;
      t.st <- St_half_open (ref true);
      Probe
    | St_half_open probing ->
      if !probing then Shed
      else begin
        probing := true;
        Probe
      end

  let record t ~now ~failed =
    match t.st with
    | St_open _ | St_half_open _ -> ()
    | St_closed ->
      if t.count = t.cfg.window then begin
        (* evict the oldest sample *)
        if t.samples.(t.head) then t.failures <- t.failures - 1
      end
      else t.count <- t.count + 1;
      t.samples.(t.head) <- failed;
      if failed then t.failures <- t.failures + 1;
      t.head <- (t.head + 1) mod t.cfg.window;
      if
        t.count >= t.cfg.min_samples
        && float_of_int t.failures
           >= t.cfg.error_threshold *. float_of_int t.count
      then trip t ~now

  let probe_result t ~now ~failed =
    match t.st with
    | St_closed | St_open _ -> ()
    | St_half_open _ ->
      if failed then trip t ~now
      else begin
        reset_window t;
        obs_transition t "breaker:close" ~now;
        t.st <- St_closed
      end
end

type policy = {
  retry : retry option;
  request_timeout_s : float;
  breaker : Breaker.config option;
  hedge : hedge option;
}

let none =
  { retry = None; request_timeout_s = infinity; breaker = None; hedge = None }

let validate p =
  (match p.retry with
   | None -> ()
   | Some r ->
     if r.max_retries < 0 then
       invalid_arg "Resilience: max_retries must be non-negative";
     if not (r.base_backoff_s >= 0.0) then
       invalid_arg "Resilience: base_backoff_s must be non-negative";
     if not (r.max_backoff_s >= r.base_backoff_s) then
       invalid_arg "Resilience: max_backoff_s must be >= base_backoff_s");
  if not (p.request_timeout_s > 0.0) then
    invalid_arg "Resilience: request_timeout_s must be positive";
  (match p.breaker with
   | None -> ()
   | Some b -> Breaker.validate b);
  match p.hedge with
  | None -> ()
  | Some h ->
    if not (h.hedge_delay_s >= 0.0) then
      invalid_arg "Resilience: hedge_delay_s must be non-negative"
