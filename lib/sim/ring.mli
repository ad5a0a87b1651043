(** Growable circular buffer over two parallel scalar lanes (a float
    and an int per slot).

    The serving hot path ({!Sched.Service}) keeps its per-service
    request queues here: push/pop are O(1) amortized over preallocated
    arrays, so steady-state traffic allocates nothing. Capacity grows
    by doubling and only shrinks via {!clear}. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty ring. [capacity] preallocates slots (default 0; the
    first push grows to 8). *)

val length : t -> int
val is_empty : t -> bool
val capacity : t -> int

val push : t -> float -> int -> unit
(** Append one (float, int) pair at the tail. *)

val peek_f : t -> float
(** Oldest element's float lane. Raises [Invalid_argument] when
    empty. *)

val pop : t -> int
(** Remove the oldest element, returning its int lane (read the float
    lane first with {!peek_f} when needed). Raises [Invalid_argument]
    when empty. *)

val iter : t -> (float -> int -> unit) -> unit
(** Oldest-to-newest iteration. *)

val clear : t -> unit
(** Empty the ring and release its backing arrays (capacity 0; the next
    push grows to 8). *)

val detach : t -> t
(** [detach src] hands off [src]'s whole contents as a new ring in O(1)
    (backing-array swap) and leaves [src] empty with zero capacity.
    Migration drain uses this to carry a deep backlog without copying
    or per-element allocation. *)
