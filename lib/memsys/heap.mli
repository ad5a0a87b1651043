(** A first-fit heap allocator over a process's heap VMA.

    The paper keeps the heap in the common address-space format: "global
    data structures allocated in the heap" are part of P, identity-mapped
    across ISAs, so "pointers to global data and the heap are already
    valid" after migration (Section 5.3). This allocator backs that claim
    with a real malloc/free over the heap region — allocations made
    before a migration are findable at the same addresses after it.

    Free blocks are kept address-ordered and coalesced on free. All
    addresses are absolute virtual addresses inside the region. *)

type t

val create : base:int -> bytes:int -> t
(** Manage [\[base, base+bytes)]. Both must be 16-aligned. *)

val base : t -> int

val malloc : t -> int -> int option
(** First-fit allocation, 16-byte aligned, with a 16-byte header
    reserved; [None] when no block fits. Zero-size requests round up to
    one granule. *)

val free : t -> int -> (unit, string) result
(** Free a pointer previously returned by [malloc]. Errors on double
    frees and wild pointers. Adjacent free blocks coalesce. *)

val allocated_bytes : t -> int
(** Payload bytes currently allocated (headers excluded). *)

val allocations : t -> (int * int) list
(** Live (address, payload bytes) pairs, ascending. *)

val fragmentation : t -> float
(** 1 - largest-free-block / total-free; 0 for an empty or unfragmented
    heap. *)

val check_invariants : t -> (unit, string) result
(** Free list sorted, non-overlapping, non-adjacent (coalesced), and
    free + allocated + headers = capacity. *)
