(** The public façade of the heterogeneous-ISA migration system.

    This is the API a downstream user programs against; it wires together
    the multi-ISA toolchain, the stack-transformation runtime, and the
    replicated-kernel OS:

    {[
      let binary = Het.compile my_program in
      let report =
        Het.migrate_at binary ~from_:Isa.Arch.X86_64
          ~site:(List.hd (Het.migration_points binary))
      in
      ...
    ]} *)

type binary = Compiler.Toolchain.t

(** {1 Building multi-ISA binaries} *)

val compile : ?budget:int -> Ir.Prog.t -> binary
(** Run the full toolchain: validate, insert migration points (gap budget
    defaults to one scheduling quantum), compile per-ISA, align symbols,
    emit metadata. *)

val compile_benchmark : Workload.Spec.bench -> Workload.Spec.cls -> binary
(** Compile one of the bundled benchmark models. *)

val migration_points : binary -> (string * int) list
(** Reachable migration points: (function, point id). *)

val symbol_address : binary -> string -> int
val code_size : binary -> Isa.Arch.t -> int
(** Total text bytes for that ISA (before alignment padding). *)

val alignment_padding : binary -> Isa.Arch.t -> int

(** {1 The Section-3 state model, checked}

    The paper's formalization partitions software state into classes and
    requires identity mappings for everything except stacks and
    registers: P^A = P^B (process-wide state: globals, heap, code
    addresses), L^A = L^B (thread-local storage), while S (stacks) and R
    (registers) are transformed by f_AB / r_AB. This report verifies
    those properties on a compiled binary. *)

type state_mapping = {
  globals_identity : bool;
      (** every data symbol at the same virtual address on both ISAs *)
  code_aliased : bool;
      (** the text section occupies the same range, with per-ISA images *)
  tls_identity : bool;  (** L^A = L^B: unified TLS layout *)
  stacks_divergent : bool;
      (** frame layouts genuinely differ, so S needs f_AB *)
  divergent_frames : (string * int * int) list;
      (** functions whose ARM64/x86-64 frame sizes differ *)
}

val state_mapping_report : binary -> state_mapping

val debug_frame : binary -> Isa.Arch.t -> string
(** The rendered `.debug_frame` (DWARF CFI) for one ISA of the binary —
    the unwind metadata the transformation runtime consumes. *)

(** {1 Migrating a suspended thread} *)

type migration_report = {
  site : string * int;
  from_arch : Isa.Arch.t;
  to_arch : Isa.Arch.t;
  frames : int;
  values_copied : int;
  pointers_fixed : int;
  latency_us : float;
  verified : bool;  (** live state proven equivalent after transformation *)
}

val migrate_at :
  binary -> from_:Isa.Arch.t -> site:string * int -> (migration_report, string) result
(** Execute the program on [from_] up to the migration point, transform
    the thread's stack and registers to the other ISA, and verify
    semantic equivalence of the live state. *)

val migration_latencies_us : binary -> Isa.Arch.t -> float list
(** Stack-transformation latency at every reachable migration point when
    leaving a machine of the given ISA (the Figure 10 distribution). *)

(** {1 Running on a heterogeneous cluster} *)

type cluster = {
  engine : Sim.Engine.t;
  pop : Kernel.Popcorn.t;
  container : Kernel.Container.t;
}

val make_cluster :
  ?machines:Machine.Server.t list ->
  ?faults:Faults.Plan.t ->
  ?dsm_batch:bool ->
  ?prefetch:bool ->
  unit ->
  cluster
(** Default machines: the paper's Xeon E5-1650 v2 + APM X-Gene 1 pair
    joined by the Dolphin PCIe interconnect. [faults] (default
    {!Faults.Plan.zero}) injects a deterministic fault plan — see
    {!Faults.Plan}. [dsm_batch]
    and [prefetch] (default off — bit-identical behaviour) enable
    coalesced hDSM page transfers and the migration working-set
    prefetch; see {!Kernel.Popcorn.create}. *)

val deploy :
  cluster ->
  binary ->
  spec:Workload.Spec.t ->
  ?threads:int ->
  ?quantum_instructions:float ->
  node:int ->
  unit ->
  Kernel.Process.t
(** Load the multi-ISA binary into a heterogeneous OS-container on the
    node and create its threads (not yet running). *)

val start : cluster -> Kernel.Process.t -> unit

val migrate : cluster -> Kernel.Process.t -> to_node:int -> unit

val migrate_container : cluster -> Kernel.Container.t -> to_node:int -> unit
(** Container migration: flag every live process of the container. The
    container keeps presenting the same environment on the destination
    kernel (namespaces and service slices are replicated); its span
    shrinks back to one node once residual pages drain. *)

val run : cluster -> unit
val run_until : cluster -> float -> unit
val now : cluster -> float
val energy : cluster -> int -> float
val utilization : cluster -> int -> float
