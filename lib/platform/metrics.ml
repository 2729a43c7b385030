(* Summary statistics for experiment reporting: means and percentiles. *)

(* NaN policy for the order statistics: polymorphic [compare] places NaN
   inconsistently (its comparisons all lie), so a single NaN used to poison
   every rank. NaNs carry no order information — drop them before sorting,
   counting each drop so a polluted data set is visible in the metrics
   export rather than silently shrunk. *)
let nan_dropped = Obs.Metrics.counter Obs.Metrics.global "platform.metrics.nan_dropped"

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [Float.Array.sort Float.compare] on NaN-free data, step for step: the
   stdlib's ternary heap sort, so elements that compare equal (0.0 and
   -0.0) land exactly where it puts them. Its comparisons are inlined and
   its recursions are loops, so no float is boxed: through the closure,
   every comparison boxed both operands. *)
let heap_sort a =
  let get = Float.Array.unsafe_get and set = Float.Array.unsafe_set in
  (* the child of [i] holding the largest value, or -1 if [i] has none *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if get a i31 < get a (i31 + 1) then i31 + 1 else i31 in
      if get a x < get a (i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && get a i31 < get a (i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let l = Float.Array.length a in
  (* build the heap: sift each parent's value down *)
  for k = ((l + 1) / 3) - 1 downto 0 do
    let e = get a k in
    let i = ref k and sifting = ref true in
    while !sifting do
      let j = maxson l !i in
      if j >= 0 && get a j > e then begin
        set a !i (get a j);
        i := j
      end
      else begin
        set a !i e;
        sifting := false
      end
    done
  done;
  (* move the max out, sink the hole to a leaf, and float the displaced
     value up from there *)
  for k = l - 1 downto 2 do
    let e = get a k in
    set a k (get a 0);
    let i = ref 0 in
    let j = ref (maxson k 0) in
    while !j >= 0 do
      set a !i (get a !j);
      i := !j;
      j := maxson k !i
    done;
    let rising = ref true in
    while !rising do
      let father = (!i - 1) / 3 in
      if get a father < e then begin
        set a !i (get a father);
        if father > 0 then i := father
        else begin
          set a 0 e;
          rising := false
        end
      end
      else begin
        set a !i e;
        rising := false
      end
    done
  done;
  if l > 1 then begin
    let e = get a 1 in
    set a 1 (get a 0);
    set a 0 e
  end

(* Sort once, then read any number of ranks off the array in O(1) each.
   [sort_samples] compacts the non-NaN samples to the front of [a] in
   order (counting the drops as [drop_nans] does) before sorting them, and
   [percentile_sorted] holds the one rank rule. *)
let sort_samples a =
  let n = Float.Array.length a in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let x = Float.Array.get a i in
    if not (Float.is_nan x) then begin
      Float.Array.set a !kept x;
      incr kept
    end
  done;
  let dropped = n - !kept in
  let a =
    if dropped = 0 then a
    else begin
      Obs.Metrics.incr ~by:dropped nan_dropped;
      Float.Array.sub a 0 !kept
    end
  in
  heap_sort a;
  a

let percentile_sorted p a =
  let n = Float.Array.length a in
  if n = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    let v i = Float.Array.get a (max 0 (min (n - 1) i)) in
    (v lo *. (1.0 -. frac)) +. (v hi *. frac)
  end

let percentile p xs =
  percentile_sorted p (sort_samples (Float.Array.of_list xs))

let median xs = percentile 50.0 xs

(* Relative improvement of [after] over [before]: positive = better
   (smaller). Reported as a percentage, as in Figures 8-10. *)
let improvement_pct ~before ~after =
  if before = 0.0 then 0.0 else (before -. after) /. before *. 100.0

let speedup ~before ~after = if after = 0.0 then 0.0 else before /. after
