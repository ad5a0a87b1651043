(** Heterogeneous OS-containers (paper Section 4.1).

    A container is a resource-constrained operating-system environment —
    Linux namespaces plus the replicated kernel's distributed services —
    that presents the same filesystem, abstract hardware resources and
    syscall interface on every kernel. Containers *span* kernels
    elastically: while a process inside has threads on several nodes (or
    residual pages at its home), the container exists on all of them. *)

type t = {
  cid : int;
  name : string;
  mutable processes : Process.t list;
}

val create : cid:int -> name:string -> t
val add_process : t -> Process.t -> unit

val span : t -> residual:(Process.t -> bool) -> int list
(** Nodes the container currently spans: every node running one of its
    threads, plus each process's home node while [residual] reports that
    process still has residual dependencies there. Sorted, deduplicated. *)
