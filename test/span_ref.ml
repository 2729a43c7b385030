(* Reference nesting check for the equivalence property in test_obs.ml:
   the pairwise scan that [Obs.Span.well_nested]'s one pre-order walk
   must agree with. Complete spans on the same (domain, track) must
   pairwise nest or be disjoint; instants are points and always fine. It
   shares no code with the library. *)

open Obs.Span

let nesting_violation all =
  let completes =
    List.filter (fun s -> s.sp_kind = Complete && s.sp_dur_ms >= 0.0) all
  in
  let by_track = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let k = (s.sp_domain, s.sp_track) in
       Hashtbl.replace by_track k
         (s :: Option.value ~default:[] (Hashtbl.find_opt by_track k)))
    completes;
  let bad = ref None in
  Hashtbl.iter
    (fun _ spans ->
       if !bad = None then
         let arr = Array.of_list spans in
         let n = Array.length arr in
         for i = 0 to n - 1 do
           for j = i + 1 to n - 1 do
             if !bad = None then begin
               let a = arr.(i) and b = arr.(j) in
               let a_end = a.sp_start_ms +. a.sp_dur_ms in
               let b_end = b.sp_start_ms +. b.sp_dur_ms in
               let nested =
                 (b.sp_start_ms >= a.sp_start_ms && b_end <= a_end)
                 || (a.sp_start_ms >= b.sp_start_ms && a_end <= b_end)
               in
               let disjoint = b.sp_start_ms >= a_end || a.sp_start_ms >= b_end in
               if not (nested || disjoint) then bad := Some (a, b)
             end
           done
         done)
    by_track;
  !bad

let well_nested all = nesting_violation all = None
