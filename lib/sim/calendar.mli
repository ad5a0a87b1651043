(** Per-island event calendar: a struct-of-arrays binary min-heap keyed
    by the deterministic total order (time, seq, src), where [seq] is
    the source island's event counter and [src] the source island id.
    Keys are unique, so the pop order is a strict total order
    independent of push order — cross-island deliveries can be merged
    at a window barrier in any order without affecting execution order.

    Keys and slot ids live in unboxed float/int lanes, and each payload
    stays in the slot its push was given, so sifts move only unboxed
    values: in steady state a push or a pop allocates nothing beyond
    the caller's payload, makes one write-barrier store (the payload in,
    or [dummy] back), and key comparisons never chase pointers. *)

type 'a t

val create : ?check_order:bool -> dummy:'a -> unit -> 'a t
(** An empty calendar with 64 slots. [dummy] fills free payload
    slots, and a pop puts it back in the slot it empties, so the heap
    never retains a popped payload. [check_order]
    (default false) arms a pop-order tripwire: each pop compares its
    (time, seq, src) key against the previous pop's and counts
    regressions in {!order_violations} — a cheap in-situ witness of
    the strict total order the audit layer verifies. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array size (grows by doubling, never shrinks). *)

val min_time : 'a t -> float
(** Timestamp of the earliest pending event, or [infinity] if empty. *)

val push : 'a t -> time:float -> src:int -> seq:int -> 'a -> unit
(** Raises [Invalid_argument] when [src] does not fit in 32 signed bits
    (it shares an int lane with the payload's slot id). *)

val pop : 'a t -> 'a
(** Remove and return the payload of the minimum-key event. The popped
    key is readable through {!last_time}/{!last_src}/{!last_seq} until
    the next [pop]. Raises [Invalid_argument] when empty. *)

val pop_before : 'a t -> float -> 'a
(** [pop_before cal until] is [pop cal] when the earliest pending event
    is strictly before [until]. Otherwise (empty, or the head at or
    after [until]) it pops nothing and returns the calendar's [dummy],
    which the caller tells apart by physical equality ([==]); the
    [dummy] must therefore never be pushed. *)

val last_time : 'a t -> float
val last_src : 'a t -> int
val last_seq : 'a t -> int

val order_violations : 'a t -> int
(** With [check_order]: the number of pops whose key did not strictly
    exceed the previous pop's key since creation. *)
