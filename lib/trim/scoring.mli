(** Module ranking for the profiler (§5.2, §8.2).

    The headline heuristic is the marginal monetary cost of Eq. 2,
    [T·M − (T−t)·(M−m)]: the bill shrinkage if module [x]'s import time [t]
    and memory [m] vanished. The Figure-9 ablation compares it against
    time-only, memory-only, and random scoring. *)

type method_ = Time | Memory | Combined | Random of int  (** PRNG seed *)

val method_name : method_ -> string

(** Eq. 2. [total_ms]/[total_mb] are the whole Function Initialization phase
    (T, M); [t]/[m] the module's inclusive marginals. *)
val marginal_monetary_cost :
  total_ms:float -> total_mb:float -> t:float -> m:float -> float

(** Score one module profile under a method; higher = more worth debloating.
    [Random] scores are stable per (seed, module name). *)
val score :
  method_ -> result:Profiler.result -> Profiler.module_profile -> float

(** Candidates ranked by descending score, ties broken by import order. *)
val rank : method_ -> Profiler.result -> Profiler.module_profile list

(** First [k] of [rank]. *)
val top_k : method_ -> Profiler.result -> k:int -> Profiler.module_profile list
