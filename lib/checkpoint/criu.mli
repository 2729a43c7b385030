(** Checkpoint/Restore substrate modelled on the CRIU prototype of §8.6.

    Encodes the paper's observations: restore carries a fixed ~0.1 s overhead
    (fork + /proc state rebuild) that makes C/R lose to plain init on small
    apps; page loading wins on large ones; debloating shrinks the checkpoint
    (Table 3: −11 % average), so the combination dominates. *)

type params = {
  restore_base_ms : float;   (** fork + /proc restore overhead *)
  restore_mb_per_s : float;  (** page-load bandwidth from the image *)
  image_fraction : float;    (** fraction of post-init RSS captured *)
  image_base_mb : float;     (** interpreter/runtime baseline pages *)
}

(** Size of the checkpoint taken right after Function Initialization. *)
val checkpoint_size_mb :
  ?params:params -> post_init_memory_mb:float -> unit -> float

(** Time to restore from a checkpoint (replaces Function Initialization). *)
val restore_ms : ?params:params -> checkpoint_mb:float -> unit -> float

type variant = Original | Cr | Trimmed | Cr_and_trimmed

val variant_name : variant -> string

(** Effective initialization time of each Figure-12 variant. *)
val init_time_ms :
  ?params:params ->
  variant:variant ->
  orig_init_ms:float ->
  orig_post_init_mb:float ->
  trim_init_ms:float ->
  trim_post_init_mb:float ->
  unit ->
  float
