(** In-memory virtual filesystem holding a serverless application image: the
    handler file plus a site-packages tree of library sources.

    Paths are '/'-separated and relative, e.g.
    ["site-packages/torch/__init__.py"]. The debloater overlays the vfs,
    rewrites files, and re-runs the app — mirroring λ-trim's manipulation of
    the real site-packages directory (§7).

    A value is either a {e root} image owning all of its files, or a
    copy-on-write {e overlay} of a base image: reads fall through to the
    base, writes stay in the overlay. File contents are content-addressed:
    {!file_digest} and {!image_digest} provide stable cache keys for the
    parse cache and the oracle memo. *)

type t

val create : unit -> t

(** [overlay base] is a copy-on-write view of [base]: O(1) to build, reads
    fall through, [add_file]/[add_phantom] affect only the overlay. The base
    must not be mutated while the overlay is alive.

    Domain safety: a frozen base (no further mutation — the invariant above)
    may be read, overlaid, and digested from many domains at once; the
    lazily-written memos (file digests, and the sorted path view, size and
    digest of the whole image) are mutex-guarded per layer. A single overlay
    is still single-writer: only the domain that built it may mutate it, and
    every mutation drops that layer's whole-image memos. *)
val overlay : t -> t

val add_file : t -> string -> string -> unit

(** Register a binary payload (shared object, model weights) by size only:
    it contributes to the image footprint but is never read as source. *)
val add_phantom : t -> string -> bytes:int -> unit

val read : t -> string -> string option

(** @raise Invalid_argument when the path is absent. *)
val read_exn : t -> string -> string

val exists : t -> string -> bool

(** A deep copy sharing no mutable state; overlay chains are flattened. *)
val copy : t -> t

(** Source paths, sorted (phantoms excluded). This, {!files_under},
    {!image_mb} and {!image_digest} read a per-layer memo derived from the
    parent's, so repeated calls and overlays of one base do not re-walk the
    chain. *)
val paths : t -> string list

(** Image size in MiB: source bytes plus per-file packaging overhead plus
    phantoms. *)
val image_mb : t -> float

(** Source paths under a directory prefix. *)
val files_under : t -> string -> string list

(** Hex content digest of one file, memoized per owning layer and invalidated
    when the file is rewritten. [None] when the path is absent. *)
val file_digest : t -> string -> string option

(** Content address of the whole effective image: every (path, file digest)
    pair plus every phantom entry. Two images with identical effective
    contents have equal digests regardless of overlay structure. *)
val image_digest : t -> string
