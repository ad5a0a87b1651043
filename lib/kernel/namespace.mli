(** Linux-style namespaces.

    Heterogeneous OS-containers are "built using Linux's namespaces and
    Popcorn Linux's distributed services" (paper Section 5.1): a
    container is a bundle of namespaces that presents the same view of
    the system — hostname, pid numbering, mounts — on every kernel the
    container spans. Namespace contents are ISA-independent kernel state,
    replicated like any other service slice; this module models the view
    itself and the invariant that it is identical on every node. *)

type t

val create_set : name:string -> t
(** A fresh namespace set (mount, pid, UTS, IPC and net), like
    [unshare(CLONE_NEWNS | ...)] for a new container. *)

val name : t -> string

val set_hostname : t -> string -> unit
val hostname : t -> string

val add_mount : t -> source:string -> target:string -> unit
(** Raises [Invalid_argument] if the target is already mounted. *)

val mounts : t -> (string * string) list
(** (target, source), sorted by target. *)

val resolve : t -> string -> string
(** Map a container path through the mount table (longest-prefix). *)

val register_pid : t -> global_pid:int -> int
(** Enter a process into the pid namespace; returns its container-local
    pid (1 for the first — the container's "init"). *)

val local_pid : t -> global_pid:int -> int option
val global_pid : t -> local_pid:int -> int option

val view_fingerprint : t -> int
(** Hash of the externally visible view (hostname + mounts + pid map).
    Two kernels present "the same operating environment" iff their
    container fingerprints agree — the invariant tests check across
    migrations. *)
