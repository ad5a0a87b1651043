(** Word-granularity sparse stack memory.

    Each thread's user stack is a region of the virtual address space. The
    migration runtime divides it into two halves (paper Section 5.3): the
    thread runs on one half, and during transformation the rewritten frames
    are built in the other half before the thread switches stacks. *)

type t

val create : lo:int -> hi:int -> t
(** A stack region covering addresses [\[lo, hi)]; [hi] is the initial
    stack top (stacks grow down). Bounds must be 8-byte aligned. *)

val lo : t -> int
val hi : t -> int
val contains : t -> int -> bool

val read : t -> int -> int64
(** Reads of never-written words return 0. Raises [Invalid_argument] on
    out-of-bounds or misaligned access. *)

val write : t -> int -> int64 -> unit

val halves : t -> t * t
(** Split into (upper half, lower half): the upper half is where execution
    starts; the lower half receives transformed frames. Both share the
    underlying storage. *)
