(* Reference pool for the equivalence property in test_fleet.ml: the
   O(live) scans [Fleet.Pool] must agree with. The warm pick (the idle,
   unexpired instance with the latest [idle_since]) and [Lru]'s eviction
   victim (the idle instance with the earliest) are each a fold over the
   live table, exact ties going to the smaller id, and the idle count is
   a fold too. Constant-TTL policies only ([Fixed_ttl], and [Lru] when
   [max_idle] is given); timers, residency and [drain] follow the
   library's rules. It shares no code with the library. *)

type inst = {
  id : int;
  born : float;
  mutable idle : bool;
  mutable busy_until : float;
  mutable idle_since : float;
  mutable expires_at : float;
  mutable idle_seq : int;
  mutable timer_seq : int;
  mutable timer_at : float;
}

type t = {
  keep_alive_s : float;
  max_idle : int option;
  live : (int, inst) Hashtbl.t;
  mutable next_id : int;
  mutable peak : int;
  mutable evicted : int;
  mutable resident : float;
}

let create ~keep_alive_s ~max_idle =
  { keep_alive_s; max_idle; live = Hashtbl.create 64; next_id = 0; peak = 0;
    evicted = 0; resident = 0.0 }

(* arg-best over live instances: [better a b] decides whether [a] beats
   [b]; exact ties fall back to the smaller id *)
let pick t ~pred ~better =
  Hashtbl.fold
    (fun _ inst best ->
       if not (pred inst) then best
       else
         match best with
         | None -> Some inst
         | Some b ->
           if better inst b then Some inst
           else if better b inst then best
           else if inst.id < b.id then Some inst
           else best)
    t.live None

let acquire t ~now =
  let warm =
    pick t
      ~pred:(fun i -> i.idle && i.expires_at >= now)
      ~better:(fun a b -> a.idle_since > b.idle_since)
  in
  Option.iter (fun i -> i.idle <- false) warm;
  warm

let spawn t ~now =
  let inst =
    { id = t.next_id; born = now; idle = false; busy_until = now;
      idle_since = now; expires_at = infinity; idle_seq = -1; timer_seq = -1;
      timer_at = infinity }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.live inst.id inst;
  t.peak <- max t.peak (Hashtbl.length t.live);
  inst

let evict t inst ~now =
  Hashtbl.remove t.live inst.id;
  inst.expires_at <- neg_infinity;
  t.evicted <- t.evicted + 1;
  t.resident <- t.resident +. (now -. inst.born)

let arm inst =
  inst.timer_seq <- inst.idle_seq;
  inst.timer_at <- inst.expires_at

(* [(push, victim)]: whether the caller must push a keep-alive timer, and
   the id [Lru]'s cap evicted, if any *)
let release t inst ~now ~reserve =
  inst.idle <- true;
  inst.idle_since <- now;
  inst.expires_at <- now +. t.keep_alive_s;
  let victim =
    match t.max_idle with
    | Some cap
      when Hashtbl.fold (fun _ i n -> if i.idle then n + 1 else n) t.live 0
           > cap -> (
        match
          pick t
            ~pred:(fun i -> i.idle)
            ~better:(fun a b -> a.idle_since < b.idle_since)
        with
        | Some v ->
          evict t v ~now;
          Some v.id
        | None -> None)
    | _ -> None
  in
  let push =
    if inst.expires_at = infinity then false
    else begin
      inst.idle_seq <- reserve ();
      let covered = inst.timer_seq >= 0 && inst.timer_at <= inst.expires_at in
      if not covered then arm inst;
      not covered
    end
  in
  (push, victim)

let reclaim t inst ~now = if Hashtbl.mem t.live inst.id then evict t inst ~now

let fire t inst ~seq ~now =
  seq = inst.timer_seq
  && begin
    inst.timer_seq <- -1;
    if (not inst.idle) || not (Float.is_finite inst.expires_at) then false
    else if inst.idle_seq = seq then begin
      evict t inst ~now;
      false
    end
    else begin
      arm inst;
      true
    end
  end

let drain t =
  let survivors = Hashtbl.fold (fun _ i acc -> i :: acc) t.live [] in
  List.iter
    (fun i ->
       let until =
         if i.idle then i.expires_at else Float.max i.busy_until i.born
       in
       evict t i ~now:until)
    survivors

let live_count t = Hashtbl.length t.live
