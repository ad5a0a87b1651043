(** The file-descriptor table as a distributed service.

    Heterogeneous OS-containers promise that "even if the kernel is
    running on another ISA, the application accesses the same file
    system" (paper Section 5.1). File descriptors are per-process kernel
    state (a P^K slice): the table is replicated strongly so that a
    thread arriving on the destination kernel finds every fd it opened on
    the source, with the same numbers, offsets and paths. *)

type fd = int

type entry = { path : string; offset : int; flags : int }

type t

val create : Sim.Engine.t -> Message.t -> nodes:int -> t
(** Built on a [Strong] replicated service. *)

val openfile : t -> node:int -> pid:int -> path:string -> flags:int -> fd * float
(** Allocate the lowest free descriptor (0-2 reserved for stdio);
    returns (fd, observed latency). *)

val close : t -> node:int -> pid:int -> fd -> (float, string) result
val dup : t -> node:int -> pid:int -> fd -> (fd * float, string) result

val seek : t -> node:int -> pid:int -> fd -> offset:int -> (float, string) result
(** Update the file offset (shared by dup'd descriptors? no — each fd has
    its own entry here, a simplification). *)

val lookup : t -> node:int -> pid:int -> fd -> entry option
val fds : t -> node:int -> pid:int -> fd list
(** Open descriptors, ascending. *)

val consistent : t -> pid:int -> bool
