(* Fixed-size Domain work pool.

   One mutex + one condition variable carry all coordination: the condition
   is broadcast when tasks are pushed, when a job completes, and at
   shutdown, and every waiter re-checks its own predicate. The queue holds
   plain [unit -> unit] closures that store their own result and do their
   own completion bookkeeping, so workers know nothing about jobs.

   The submitting domain participates: while its job is unfinished it pops
   and runs queued tasks (its own or anyone's) instead of blocking. That is
   what makes nested submission safe — a task calling [map] on the same
   pool drives the inner job itself, so progress never requires a free
   worker — and what lets [domains = 1] run everything inline through the
   same code path.

   Determinism: results land in an array indexed by submission order and
   are read back only after the whole job settles, so scheduling affects
   timing, never values. Memory publication is via the pool mutex: each
   task writes its result slot before taking the lock to decrement the
   job's remaining-count, and the submitter observes count = 0 under the
   same lock before reading the slots. *)

type job = {
  mutable remaining : int;          (* guarded by the pool mutex *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;               (* task pushed / job done / shutdown *)
  queue : (unit -> unit) Queue.t;   (* pending tasks, FIFO *)
  mutable closing : bool;
  mutable workers : unit Domain.t array;
  size : int;                       (* total parallelism incl. the caller *)
}

(* --- metrics ---------------------------------------------------------------

   Instruments live in [Obs.Metrics.global] (get-or-create by name) and are
   not internally locked; pools may share them, so updates go through one
   module-level mutex rather than any single pool's. *)

let metrics_lock = Mutex.create ()

let m_tasks = Obs.Metrics.counter Obs.Metrics.global "parallel.pool.tasks"
let m_steals = Obs.Metrics.counter Obs.Metrics.global "parallel.pool.steals"
let m_waits = Obs.Metrics.counter Obs.Metrics.global "parallel.pool.waits"
let m_jobs = Obs.Metrics.counter Obs.Metrics.global "parallel.pool.jobs"

let count c = Mutex.protect metrics_lock (fun () -> Obs.Metrics.incr c)

(* --- worker identity ------------------------------------------------------ *)

(* Worker slots are process-wide: a domain serves exactly one pool. *)

let next_slot = Atomic.make 1

let identity : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_worker () = Domain.DLS.get identity

(* --- task execution ------------------------------------------------------- *)

(* Run one queued task closure. Task closures never raise (they capture
   exceptions into their result slot), so no protection is needed around
   [task ()]. *)
let run_task task =
  task ();
  count m_tasks;
  if current_worker () <> None then count m_steals

let worker_body t slot () =
  Domain.DLS.set identity (Some slot);
  Obs.Span.claim_wall_lane ();
  let rec loop () =
    Mutex.lock t.lock;
    let rec next () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
        if t.closing then None
        else begin
          count m_waits;
          Condition.wait t.cond t.lock;
          next ()
        end
    in
    match next () with
    | None -> Mutex.unlock t.lock
    | Some task ->
      Mutex.unlock t.lock;
      run_task task;
      loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Parallel.Pool.create: domains < 1";
  let t =
    { lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [||];
      size = domains }
  in
  t.workers <-
    Array.init (domains - 1) (fun _ ->
        let slot = Atomic.fetch_and_add next_slot 1 in
        Domain.spawn (worker_body t slot));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.lock;
  if t.closing then Mutex.unlock t.lock
  else begin
    t.closing <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- map ------------------------------------------------------------------ *)

type 'b slot_result = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map t f xs =
  match xs with
  | [] -> []
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n Pending in
    let job = { remaining = n } in
    count m_jobs;
    let task_for i () =
      (results.(i) <-
         (match f arr.(i) with
          | v -> Done v
          | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
      Mutex.lock t.lock;
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then Condition.broadcast t.cond;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    if t.closing then begin
      Mutex.unlock t.lock;
      invalid_arg "Parallel.Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add (task_for i) t.queue
    done;
    Condition.broadcast t.cond;
    (* Help until this job settles: run any queued task — ours or a nested
       job's — rather than blocking while runnable work exists. *)
    let rec help () =
      if job.remaining = 0 then Mutex.unlock t.lock
      else
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.lock;
          run_task task;
          Mutex.lock t.lock;
          help ()
        | None ->
          count m_waits;
          Condition.wait t.cond t.lock;
          help ()
    in
    help ();
    (* Every task settled (count observed 0 under the mutex ⇒ all result
       writes are visible). Re-raise the lowest-indexed failure, if any. *)
    let first_failure = ref None in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Failed (e, bt) -> first_failure := Some (e, bt)
      | Done _ -> ()
      | Pending -> assert false
    done;
    (match !first_failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.to_list
      (Array.map
         (function Done v -> v | Pending | Failed _ -> assert false)
         results)

(* --- the process-wide configured pool ------------------------------------- *)

(* Written only from the main domain (CLI startup, test setup) before any
   fan-out; concurrent readers just see whatever pool is installed. *)
let configured_pool : t option ref = ref None

let at_exit_registered = ref false

let configure ~jobs =
  if jobs < 1 then invalid_arg "Parallel.Pool.configure: jobs < 1";
  (match !configured_pool with Some p -> shutdown p | None -> ());
  configured_pool := (if jobs > 1 then Some (create ~domains:jobs) else None);
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () ->
        match !configured_pool with Some p -> shutdown p | None -> ())
  end

let jobs () = match !configured_pool with Some p -> p.size | None -> 1

let map_default f xs =
  match !configured_pool with Some p -> map p f xs | None -> List.map f xs
