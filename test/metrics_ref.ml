(* Reference percentile for the equivalence property in
   test_properties.ml: the list code [Platform.Metrics.sort_samples] and
   [percentile_sorted] must reproduce bit for bit. It filters the NaNs out
   of the list, copies the rest into an array, sorts it with
   [Float.compare] and interpolates between the two nearest ranks. It
   shares no code with the library, and returns its NaN drops instead of
   counting them. *)

let percentile p xs =
  let kept = List.filter (fun x -> not (Float.is_nan x)) xs in
  let dropped = List.length xs - List.length kept in
  let value =
    match kept with
    | [] -> 0.0
    | kept ->
      let a = Array.of_list kept in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      let v i = a.(max 0 (min (n - 1) i)) in
      (v lo *. (1.0 -. frac)) +. (v hi *. frac)
  in
  (value, dropped)
