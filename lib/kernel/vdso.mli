(** The vDSO migration-flag page.

    The scheduler and the application communicate through one shared page
    mapped into every process (paper Section 5.2.1): "the kernel
    scheduler interacts with the application through a shared memory page
    between user- and kernel-space (vDSO). When the scheduler wants
    threads to migrate, it sets a flag on the page"; at migration points
    threads read the flag and, if set, start state transformation.

    The page is aliased like text — every kernel maps it at the same
    virtual address — and holds one word per thread: the requested
    destination node (or the no-request sentinel). *)

type t

val create : unit -> t

val request : t -> tid:int -> dest:int -> unit
(** Scheduler side: set the thread's flag word to the destination node. *)

val clear : t -> tid:int -> unit
(** Runtime side: acknowledge the request after migrating. *)

val poll : t -> tid:int -> int option
(** Migration-point side: the cheap check ("a function call and a memory
    read") — [Some dest] when a migration is pending. *)

val checks : t -> int
(** How many polls have executed (the wrapper-overhead counter of
    Figures 6-9). *)

val pending : t -> int list
(** Thread ids with a request outstanding, sorted. *)
