(* Module ranking for the profiler (§5.2, §8.2).

   The headline heuristic is the marginal monetary cost of Eq. 2:

     MarginalMonetaryCost(x) = T·M − (T − t)·(M − m)

   i.e. the bill shrinkage if module x's import time t and memory m vanished
   (cost ∝ duration × memory, Eq. 1). The ablation of Figure 9 compares it
   against time-only, memory-only, and random scoring. *)

type method_ = Time | Memory | Combined | Random of int  (* PRNG seed *)

let method_name = function
  | Time -> "time"
  | Memory -> "memory"
  | Combined -> "combined"
  | Random _ -> "random"

let marginal_monetary_cost ~total_ms ~total_mb ~t ~m =
  (total_ms *. total_mb) -. ((total_ms -. t) *. (total_mb -. m))

(* Score one module profile under a method; higher = more worth debloating. *)
let score method_ ~(result : Profiler.result) (mp : Profiler.module_profile) =
  match method_ with
  | Time -> mp.Profiler.mp_incl_ms
  | Memory -> mp.Profiler.mp_incl_mb
  | Combined ->
    marginal_monetary_cost ~total_ms:result.Profiler.total_ms
      ~total_mb:result.Profiler.total_mb ~t:mp.Profiler.mp_incl_ms
      ~m:mp.Profiler.mp_incl_mb
  | Random seed ->
    (* stable per-module pseudo-random score in [0, 1] *)
    let h = Hashtbl.hash (seed, mp.Profiler.mp_name) in
    float_of_int (h land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* Rank candidate modules by descending score; ties broken by import order
   so results are deterministic. *)
let rank method_ (result : Profiler.result) : Profiler.module_profile list =
  let scored =
    List.map (fun mp -> (score method_ ~result mp, mp)) (Profiler.candidates result)
  in
  List.map snd
    (List.sort
       (fun (s1, m1) (s2, m2) ->
          match compare s2 s1 with
          | 0 -> compare m1.Profiler.mp_order m2.Profiler.mp_order
          | c -> c)
       scored)

let top_k method_ result ~k : Profiler.module_profile list =
  let ranked = rank method_ result in
  List.filteri (fun i _ -> i < k) ranked
