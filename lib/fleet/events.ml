(* Deterministic event queue keyed on (time, rank, seq). The monotone
   sequence counter gives stable FIFO ordering among equal (time, rank)
   keys, which keeps whole-fleet replays bit-identical across runs — the
   simulator's determinism rests here.

   A caller may also [reserve] the next sequence number and push with it
   later ([push_reserved]): the event then pops exactly where it would have
   popped had it been pushed at reservation time. The router uses this to
   defer a keep-alive timer until it is actually needed.

   Two backends share the exact same pop order:

   - [Heap]: array-backed binary min-heap, O(log n) per op at any schedule
     shape. The production backend, laid out as a struct of arrays so the
     router's hot loop allocates nothing per event: times in a
     [Float.Array] (unboxed), (rank, seq) packed into one int
     ([rank lsl seq_bits lor seq], which orders exactly as the pair does),
     and each entry's payload slot in an int array. Payloads sit still in
     their slots while those three arrays sift, so a push or take writes
     one pointer (and pays one write barrier), not one per heap level.
     Vacated payload slots hold one filler payload — the first one ever
     pushed — so a drained heap pins at most that one payload, never the
     ones it popped.
   - [Calendar]: a calendar queue (Brown 1988) — [n_buckets] time slots of
     [width] seconds each, events bucketed by [floor(time / width)] modulo
     the bucket count and kept key-sorted within a bucket. Pop scans forward
     from the slot of the last popped event, persisting its progress across
     pops so empty stretches are swept once per run; if a full wrap finds
     nothing (events a whole wrap ahead, clamped slots) an authoritative
     min-scan over all bucket heads takes over, so ordering never depends
     on the slot arithmetic being exact. Kept as an independent reference
     implementation — it compares (rank, seq) unpacked — and
     [test_fleet_stream]'s heap ≡ calendar QCheck properties pin the heap's
     pop order against it.

   Slot membership is decided by [slot_of] alone (never by recomputing
   boundaries as [slot * width], which can disagree with float division by
   an ulp), so the scan accepts a bucket head exactly when its own slot has
   been reached — the property that makes the two backends bit-identical.

   A NaN time is rejected at push: it compares false against everything,
   so it would silently break the heap invariant and unsort even the finite
   keys popped after it. *)

type kind =
  | Heap
  | Calendar of { width : float; n_buckets : int }

(* (rank, seq) packing: seq in the low [seq_bits], rank above it. Both
   ranges are checked at push, so [rank * 2^seq_bits + seq] never overflows
   and integer order on the packed key is lexicographic (rank, seq) order,
   negative ranks included. The ranges need 63-bit ints (ranks in
   [-2^22, 2^22), as events.mli states); a narrower target fails here at
   module initialisation instead of ordering events wrongly. *)
let () =
  if Sys.int_size < 63 then
    failwith "Events: the (rank, seq) packing needs 63-bit native ints"

let seq_bits = 40
let seq_limit = 1 lsl seq_bits
let rank_limit = 1 lsl (Sys.int_size - 1 - seq_bits)

let check_push ~time ~rank ~seq =
  if Float.is_nan time then invalid_arg "Events.push: time is NaN";
  if rank < -rank_limit || rank >= rank_limit then
    invalid_arg
      (Printf.sprintf "Events.push: rank %d outside [-2^%d, 2^%d)" rank
         (Sys.int_size - 1 - seq_bits) (Sys.int_size - 1 - seq_bits));
  if seq < 0 || seq >= seq_limit then
    invalid_arg (Printf.sprintf "Events.push: seq %d out of range" seq)

(* --- binary heap backend ------------------------------------------------- *)

type 'a heap_q = {
  mutable times : Float.Array.t;
  mutable keys : int array;     (* rank lsl seq_bits lor seq *)
  mutable slots : int array;    (* where each entry's payload is *)
      (* times, keys and slots 0 .. hsize-1 are a valid min-heap over
         (time, key); sifting moves only these unboxed arrays *)
  mutable payloads : 'a array;  (* by slot; a free slot holds [filler] *)
  mutable free : int array;     (* free slots: free.(0 .. cap - hsize - 1) *)
  mutable hsize : int;
  mutable hseq : int;
  mutable filler : 'a option;   (* the first payload pushed *)
  h_last : Float.Array.t;       (* [| time of the last [take] |] *)
}

let heap_create () =
  { times = Float.Array.create 0; keys = [||]; slots = [||]; payloads = [||];
    free = [||]; hsize = 0; hseq = 0; filler = None;
    h_last = Float.Array.make 1 nan }

(* Called when full: every slot is taken, so the new ones are all free. *)
let heap_grow q payload =
  let cap = Array.length q.keys in
  let filler =
    match q.filler with
    | Some f -> f
    | None ->
      q.filler <- Some payload;
      payload
  in
  let ncap = max 16 (2 * cap) in
  let times = Float.Array.make ncap 0.0 in
  Float.Array.blit q.times 0 times 0 cap;
  let keys = Array.make ncap 0 and slots = Array.make ncap 0 in
  Array.blit q.keys 0 keys 0 cap;
  Array.blit q.slots 0 slots 0 cap;
  let payloads = Array.make ncap filler in
  Array.blit q.payloads 0 payloads 0 cap;
  q.times <- times;
  q.keys <- keys;
  q.slots <- slots;
  q.payloads <- payloads;
  q.free <- Array.init ncap (fun j -> if j < ncap - cap then cap + j else 0)

(* Sift up with a hole: parents move down until the new entry's place is
   found, then it is written once. Keys are unique (seq is), so the order
   is strict and total and any valid heap pops the same sequence. *)
let heap_push q ~time ~key payload =
  if q.hsize >= Array.length q.keys then heap_grow q payload;
  let times = q.times and keys = q.keys and slots = q.slots in
  let slot = q.free.(Array.length keys - q.hsize - 1) in
  q.payloads.(slot) <- payload;
  let i = ref q.hsize in
  q.hsize <- q.hsize + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times parent in
    if time < pt || (time = pt && key < Array.unsafe_get keys parent) then begin
      Float.Array.unsafe_set times !i pt;
      Array.unsafe_set keys !i (Array.unsafe_get keys parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set keys !i key;
  Array.unsafe_set slots !i slot

(* Remove the root: its payload slot gets the filler and goes back on the
   free stack, and the last entry is sifted down from the root's hole. *)
let heap_take q =
  if q.hsize = 0 then invalid_arg "Events.take: empty queue";
  let times = q.times and keys = q.keys and slots = q.slots in
  let top_slot = Array.unsafe_get slots 0 in
  let top = q.payloads.(top_slot) in
  (match q.filler with
   | Some f -> q.payloads.(top_slot) <- f
   | None -> assert false);
  Float.Array.unsafe_set q.h_last 0 (Float.Array.unsafe_get times 0);
  let n = q.hsize - 1 in
  q.hsize <- n;
  q.free.(Array.length keys - n - 1) <- top_slot;
  if n > 0 then begin
    let t = Float.Array.unsafe_get times n in
    let k = Array.unsafe_get keys n in
    let x = Array.unsafe_get slots n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        (* the smaller child *)
        let r = l + 1 in
        let c =
          if r < n
          && (let rt = Float.Array.unsafe_get times r
              and lt = Float.Array.unsafe_get times l in
              rt < lt
              || (rt = lt && Array.unsafe_get keys r < Array.unsafe_get keys l))
          then r
          else l
        in
        let ct = Float.Array.unsafe_get times c in
        if ct < t || (ct = t && Array.unsafe_get keys c < k) then begin
          Float.Array.unsafe_set times !i ct;
          Array.unsafe_set keys !i (Array.unsafe_get keys c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.unsafe_set times !i t;
    Array.unsafe_set keys !i k;
    Array.unsafe_set slots !i x
  end;
  top

(* --- calendar queue backend ---------------------------------------------- *)

type 'a entry = {
  e_time : float;
  e_rank : int;
  e_seq : int;
  e_payload : 'a;
}

let precedes a b =
  a.e_time < b.e_time
  || (a.e_time = b.e_time
      && (a.e_rank < b.e_rank || (a.e_rank = b.e_rank && a.e_seq < b.e_seq)))

type 'a cal_q = {
  width : float;
  mask : int;                           (* n_buckets - 1, power of two *)
  buckets : 'a entry list array;        (* key-sorted ascending *)
  mutable csize : int;
  mutable cseq : int;
  mutable cur_slot : int;
      (* invariant: no queued event's slot precedes cur_slot *)
  c_last : Float.Array.t;               (* [| time of the last [take] |] *)
}

(* capped so slot * anything stays far from int overflow; times past the
   cap all collapse into one slot and are handled by the min-scan *)
let max_slot = 1 lsl 60

let slot_of cal t =
  let s = Float.floor (t /. cal.width) in
  if Float.is_nan s || s <= 0.0 then 0
  else if s >= float_of_int max_slot then max_slot
  else int_of_float s

let cal_create ~width ~n_buckets =
  let n_buckets = max 4 n_buckets in
  (* round up to a power of two *)
  let n = ref 4 in
  while !n < n_buckets do n := !n * 2 done;
  { width = Float.max 1e-9 width;
    mask = !n - 1;
    buckets = Array.make !n [];
    csize = 0;
    cseq = 0;
    cur_slot = 0;
    c_last = Float.Array.make 1 nan }

let rec sorted_insert e = function
  | [] -> [ e ]
  | x :: _ as l when precedes e x -> e :: l
  | x :: rest -> x :: sorted_insert e rest

let cal_push cal ~time ~rank ~seq payload =
  let e =
    { e_time = time; e_rank = rank; e_seq = seq; e_payload = payload }
  in
  let slot = slot_of cal time in
  let b = slot land cal.mask in
  cal.buckets.(b) <- sorted_insert e cal.buckets.(b);
  cal.csize <- cal.csize + 1;
  if slot < cal.cur_slot then cal.cur_slot <- slot

(* authoritative fallback: minimum over all bucket heads *)
let cal_min_scan cal =
  let best = ref (-1) in
  let best_e = ref None in
  Array.iteri
    (fun i l ->
       match l with
       | [] -> ()
       | e :: _ ->
         (match !best_e with
          | Some b when precedes b e -> ()
          | _ ->
            best := i;
            best_e := Some e))
    cal.buckets;
  (!best, !best_e)

let cal_remove cal ~slot ~bucket =
  match cal.buckets.(bucket) with
  | [] -> assert false
  | e :: rest ->
    cal.buckets.(bucket) <- rest;
    cal.csize <- cal.csize - 1;
    cal.cur_slot <- slot;
    Float.Array.set cal.c_last 0 e.e_time;
    e.e_payload

let cal_take cal =
  if cal.csize = 0 then invalid_arg "Events.take: empty queue";
  let n = cal.mask + 1 in
  let rec scan slot remaining =
    if remaining = 0 then begin
      (* a full wrap found nothing: every queued event is at least one
         wrap ahead (or slot-clamped); fall back to the authoritative
         min over bucket heads *)
      let bucket, e = cal_min_scan cal in
      match e with
      | None -> assert false
      | Some e -> cal_remove cal ~slot:(slot_of cal e.e_time) ~bucket
    end
    else
      let b = slot land cal.mask in
      match cal.buckets.(b) with
      | e :: _ when slot_of cal e.e_time <= slot ->
        cal_remove cal ~slot ~bucket:b
      | _ ->
        (* nothing queued at or before [slot] (this bucket's head, the
           minimum of every slot mapping here, is past it) — persist the
           progress so sparse stretches are swept once per run, not once
           per pop *)
        cal.cur_slot <- slot + 1;
        scan (slot + 1) (remaining - 1)
  in
  scan cal.cur_slot n

(* --- unified front -------------------------------------------------------- *)

type 'a t = H of 'a heap_q | C of 'a cal_q

let create ?(kind = Heap) () =
  match kind with
  | Heap -> H (heap_create ())
  | Calendar { width; n_buckets } -> C (cal_create ~width ~n_buckets)

let length = function H q -> q.hsize | C q -> q.csize

let reserve = function
  | H h ->
    let seq = h.hseq in
    h.hseq <- seq + 1;
    seq
  | C c ->
    let seq = c.cseq in
    c.cseq <- seq + 1;
    seq

let push_reserved q ~time ~rank ~seq payload =
  check_push ~time ~rank ~seq;
  match q with
  | H h -> heap_push h ~time ~key:((rank lsl seq_bits) lor seq) payload
  | C c -> cal_push c ~time ~rank ~seq payload

let push q ~time ~rank payload =
  push_reserved q ~time ~rank ~seq:(reserve q) payload

let take = function H q -> heap_take q | C c -> cal_take c

let last_time = function
  | H q -> Float.Array.get q.h_last 0
  | C c -> Float.Array.get c.c_last 0
