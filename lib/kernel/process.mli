(** Processes and threads as the kernel sees them.

    A thread's user-space computation is a sequence of *phases* — stretches
    of work between migration points. The instrumented binaries place
    migration points at most one scheduling quantum apart, so phase
    boundaries are exactly the places where a pending migration request
    takes effect. Each phase carries the pages it touches, which drives
    the hDSM on-demand page migration. A thread's phases are a lazy
    sequence: a phase is built when the thread reaches it, so a spawned
    process holds no phase list. *)

type phase = {
  instructions : float;
  category : Isa.Cost_model.category;
  pages : Memsys.Page.range list;
      (** data pages accessed during the phase, in access order, as
          maximal ascending runs: no run starts where the one before it
          ends *)
  writes : bool;  (** whether the accesses include stores *)
}

type status = Ready | Running | Migrating | Done

type thread = {
  tid : int;
  mutable node : int;
  mutable status : status;
  mutable remaining : phase Seq.t;
      (** the phases still to run; forcing it rebuilds the next phase *)
  mutable migrate_to : int option;
      (** pending scheduler request, honoured at the next phase boundary *)
  continuation : Continuation.t;
  mutable migrations : int;
  mutable aborted_migrations : int;
      (** migrations rolled back because the handoff message was lost *)
  mutable gen : int;
      (** bumped when the thread is forcibly killed (node crash): engine
          events captured under an older generation become no-ops *)
}

type t = {
  pid : int;
  name : string;
  mutable home : int;  (** kernel holding residual dependencies *)
  binary : Compiler.Toolchain.t option;
  aspace : Memsys.Address_space.t;
  data_pages : Memsys.Page.range list;
  threads : thread list;
  transform_latency : Isa.Arch.t -> float;
      (** stack-transformation cost when leaving a machine of that ISA *)
  mutable finished_at : float option;
  mutable aborted : bool;
      (** killed by a node crash; exit hooks never fire for aborted
          processes — the scheduler re-admits or fails the job instead *)
}

val make_thread : tid:int -> node:int -> phases:phase Seq.t -> thread

val make :
  pid:int ->
  name:string ->
  home:int ->
  ?binary:Compiler.Toolchain.t ->
  aspace:Memsys.Address_space.t ->
  data_pages:Memsys.Page.range list ->
  threads:thread list ->
  transform_latency:(Isa.Arch.t -> float) ->
  unit ->
  t

val alive : t -> bool

val request_migration : t -> to_node:int -> unit
(** Flag every thread of the process (the shared vDSO page write). *)
