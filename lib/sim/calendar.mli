(** Per-island event calendar: a struct-of-arrays binary min-heap keyed
    by the deterministic total order (time, seq, src), where [seq] is
    the source island's event counter and [src] the source island id.
    Keys are unique, so the pop order is a strict total order
    independent of push order — cross-island deliveries can be merged
    at a window barrier in any order without affecting execution order.

    Keys live in unboxed float/int lanes separate from the boxed
    payload lane, so push/pop in steady state allocates nothing beyond
    the caller's payload and key comparisons never chase pointers. *)

type 'a t

val create : ?check_order:bool -> dummy:'a -> unit -> 'a t
(** An empty calendar with 64 slots. [dummy] fills vacated payload
    slots so the heap never retains dead payloads. [check_order]
    (default false) arms a pop-order tripwire: each pop compares its
    (time, seq, src) key against the previous pop's and counts
    regressions in {!order_violations} — a cheap in-situ witness of
    the strict total order the audit layer verifies. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array size (grows by doubling; shrinks only through
    {!clear}). *)

val min_time : 'a t -> float
(** Timestamp of the earliest pending event, or [infinity] if empty. *)

val push : 'a t -> time:float -> src:int -> seq:int -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the payload of the minimum-key event. The popped
    key is readable through {!last_time}/{!last_src}/{!last_seq} until
    the next [pop]. Raises [Invalid_argument] when empty. *)

val last_time : 'a t -> float
val last_src : 'a t -> int
val last_seq : 'a t -> int

val order_violations : 'a t -> int
(** With [check_order]: the number of pops whose key did not strictly
    exceed the previous pop's key since creation. {!clear} restarts the
    key stream (the next pop is unconstrained) but keeps the count. *)

val clear : 'a t -> unit
(** Empty the calendar and shrink the backing lanes back to the initial
    64 slots if they grew beyond them. *)
