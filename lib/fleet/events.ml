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
     shape. The production backend.
   - [Calendar]: a calendar queue (Brown 1988) — [n_buckets] time slots of
     [width] seconds each, events bucketed by [floor(time / width)] modulo
     the bucket count and kept key-sorted within a bucket. Pop scans forward
     from the slot of the last popped event, persisting its progress across
     pops so empty stretches are swept once per run; if a full wrap finds
     nothing (events a whole wrap ahead, clamped slots) an authoritative
     min-scan over all bucket heads takes over, so ordering never depends
     on the slot arithmetic being exact. Kept as an independent reference
     implementation: [test_fleet_stream]'s heap ≡ calendar QCheck
     properties pin the heap's pop order against it.

   Slot membership is decided by [slot_of] alone (never by recomputing
   boundaries as [slot * width], which can disagree with float division by
   an ulp), so the scan accepts a bucket head exactly when its own slot has
   been reached — the property that makes the two backends bit-identical. *)

type 'a entry = {
  e_time : float;
  e_rank : int;
  e_seq : int;
  mutable e_payload : 'a;
      (* mutable only so the heap can recycle one filler entry; a live
         entry's payload is never mutated *)
}

type kind =
  | Heap
  | Calendar of { width : float; n_buckets : int }

let precedes a b =
  a.e_time < b.e_time
  || (a.e_time = b.e_time
      && (a.e_rank < b.e_rank || (a.e_rank = b.e_rank && a.e_seq < b.e_seq)))

(* --- binary heap backend ------------------------------------------------- *)

type 'a heap_q = {
  mutable heap : 'a entry array;  (* heap.(0 .. hsize-1) is a valid min-heap *)
  mutable hsize : int;
  mutable hseq : int;
  mutable filler : 'a entry option;
      (* single shared sentinel for vacated and fresh slots: without it,
         pop's vacated slot heap.(hsize) would pin the moved entry (and its
         payload) until overwritten — a drained queue kept every payload
         reachable. The filler recycles in place, so a drained queue pins at
         most the most recently popped payload. *)
}

let heap_create () = { heap = [||]; hsize = 0; hseq = 0; filler = None }

let filler_of q (entry : 'a entry) =
  match q.filler with
  | Some f -> f
  | None ->
    let f =
      { e_time = neg_infinity; e_rank = 0; e_seq = -1;
        e_payload = entry.e_payload }
    in
    q.filler <- Some f;
    f

let heap_ensure_capacity q entry =
  let cap = Array.length q.heap in
  if q.hsize >= cap then begin
    let grown = Array.make (max 16 (2 * cap)) (filler_of q entry) in
    Array.blit q.heap 0 grown 0 q.hsize;
    q.heap <- grown
  end

let heap_push q ~time ~rank ~seq payload =
  let entry =
    { e_time = time; e_rank = rank; e_seq = seq; e_payload = payload }
  in
  heap_ensure_capacity q entry;
  (* sift up *)
  let i = ref q.hsize in
  q.hsize <- q.hsize + 1;
  q.heap.(!i) <- entry;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    precedes q.heap.(!i) q.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = q.heap.(parent) in
    q.heap.(parent) <- q.heap.(!i);
    q.heap.(!i) <- tmp;
    i := parent
  done

let heap_pop q =
  if q.hsize = 0 then None
  else begin
    let top = q.heap.(0) in
    q.hsize <- q.hsize - 1;
    let filler = filler_of q top in
    filler.e_payload <- top.e_payload;
    if q.hsize > 0 then begin
      q.heap.(0) <- q.heap.(q.hsize);
      q.heap.(q.hsize) <- filler;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.hsize && precedes q.heap.(l) q.heap.(!smallest) then
          smallest := l;
        if r < q.hsize && precedes q.heap.(r) q.heap.(!smallest) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = q.heap.(!smallest) in
          q.heap.(!smallest) <- q.heap.(!i);
          q.heap.(!i) <- tmp;
          i := !smallest
        end
      done
    end
    else q.heap.(0) <- filler;
    Some (top.e_time, top.e_payload)
  end

(* --- calendar queue backend ---------------------------------------------- *)

type 'a cal_q = {
  width : float;
  mask : int;                           (* n_buckets - 1, power of two *)
  buckets : 'a entry list array;        (* key-sorted ascending *)
  mutable csize : int;
  mutable cseq : int;
  mutable cur_slot : int;
      (* invariant: no queued event's slot precedes cur_slot *)
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
    cur_slot = 0 }

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

let cal_take cal ~slot ~bucket =
  match cal.buckets.(bucket) with
  | [] -> assert false
  | e :: rest ->
    cal.buckets.(bucket) <- rest;
    cal.csize <- cal.csize - 1;
    cal.cur_slot <- slot;
    Some (e.e_time, e.e_payload)

let cal_pop cal =
  if cal.csize = 0 then None
  else begin
    let n = cal.mask + 1 in
    let rec scan slot remaining =
      if remaining = 0 then begin
        (* a full wrap found nothing: every queued event is at least one
           wrap ahead (or slot-clamped); fall back to the authoritative
           min over bucket heads *)
        let bucket, e = cal_min_scan cal in
        match e with
        | None -> assert false
        | Some e -> cal_take cal ~slot:(slot_of cal e.e_time) ~bucket
      end
      else
        let b = slot land cal.mask in
        match cal.buckets.(b) with
        | e :: _ when slot_of cal e.e_time <= slot ->
          cal_take cal ~slot ~bucket:b
        | _ ->
          (* nothing queued at or before [slot] (this bucket's head, the
             minimum of every slot mapping here, is past it) — persist the
             progress so sparse stretches are swept once per run, not once
             per pop *)
          cal.cur_slot <- slot + 1;
          scan (slot + 1) (remaining - 1)
    in
    scan cal.cur_slot n
  end

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
  match q with
  | H h -> heap_push h ~time ~rank ~seq payload
  | C c -> cal_push c ~time ~rank ~seq payload

let push q ~time ?(rank = 0) payload =
  let seq = reserve q in
  push_reserved q ~time ~rank ~seq payload

let pop = function H q -> heap_pop q | C c -> cal_pop c

let drain q =
  let rec go acc = match pop q with
    | None -> List.rev acc
    | Some ev -> go (ev :: acc)
  in
  go []
