(** The replicated-kernel OS ensemble.

    One kernel instance per server, each natively compiled for its ISA;
    kernels share no state and cooperate through messages (paper Section
    5.1). This module hosts the distributed services — thread migration,
    hDSM, the heterogeneous loader — and executes processes over the
    discrete-event engine: threads run phase-by-phase, page accesses go
    through the DSM, and pending migration requests are honoured at phase
    boundaries (migration points).

    Under a fault plan, the ensemble injects deterministic failures:
    message loss/delay (with retry and exponential backoff in
    {!Message}), page-request timeouts, and scheduled node crashes. A
    migration whose handoff message exhausts its retry budget aborts and
    rolls back — the thread stays runnable on the source node with its
    pre-transformation continuation intact. *)

type node = {
  id : int;
  machine : Machine.Server.t;
  meter : Machine.Server.meter;  (** integrated system energy *)
  mutable busy : int;  (** threads currently executing a phase *)
  mutable powered : bool;  (** false = low-power state *)
  mutable crashed : bool;  (** fail-stop: never powers back on *)
}

type t = {
  engine : Sim.Engine.t;
  bus : Message.t;
  dsm : Dsm.Hdsm.t;
  faults : Faults.Injector.t;  (** built from {!Faults.Plan.zero} by default *)
  obs : Obs.t;  (** observability sink; {!Obs.noop} unless passed to create *)
  prefetch : bool;  (** push the migrating thread's working set ahead *)
  nodes : node array;
  vdso : Vdso.t;  (** the shared scheduler/application flag page *)
  mutable containers : Container.t list;
  mutable next_pid : int;
  mutable next_cid : int;
  mutable next_slot : int;  (** loader slot allocator, per ensemble *)
  mutable migration_downtime_s : float;
      (** summed simulated time threads spent paused in migrations
          (transformation + handoff message + any prefetch stall),
          aborted attempts included *)
  mutable drain_time_s : float;
      (** summed simulated latency of post-migration residual-page
          drains — the Figure 11 page-transfer spike *)
  mutable exit_hooks : (Process.t -> unit) list;
  mutable thread_hooks : (Process.t -> Process.thread -> unit) list;
  mutable abort_hooks : (Process.t -> Process.thread -> dest:int -> unit) list;
  mutable crash_hooks : (int -> Process.t list -> unit) list;
  mutable migrated_hooks :
    (Process.t -> Process.thread -> from_:int -> to_:int -> unit) list;
}

val create :
  Sim.Engine.t ->
  ?faults:Faults.Plan.t ->
  ?dsm_batch:bool ->
  ?prefetch:bool ->
  ?obs:Obs.t ->
  machines:Machine.Server.t list ->
  unit ->
  t
(** Boot one kernel per machine, joined by the Dolphin PXH810
    interconnect.
    [faults] defaults to {!Faults.Plan.zero}, which injects nothing and
    draws nothing: a run without it is byte-identical to one with the
    zero plan, message statistics included.
    [dsm_batch] (default false) coalesces contiguous hDSM page runs into
    single protocol operations; [prefetch] (default false) pushes a
    migrating thread's predicted next-phase pages to the destination
    during the stack transformation. Both default off, leaving behaviour
    bit-identical to the historical per-page model.

    [obs] (default {!Obs.noop}) threads a structured-observability sink
    through the ensemble and its bus/DSM: per-phase execution spans,
    migration phase spans ([stack_transform], [handoff],
    [prefetch_stall], [drain] and the covering [migrate] span whose
    durations fold back to [migration_downtime_s] and [drain_time_s]
    {e exactly} — the same floats are added to the aggregates and
    recorded as span durations, in the same order), plus counters and
    latency histograms. With the no-op sink every simulated result is
    bit-identical to a run without it.

    Raises [Invalid_argument] if the plan schedules a crash on a node
    index outside [machines], or references an unknown message kind. *)

val node_of_arch : t -> Isa.Arch.t -> node
(** First node of the given ISA. Raises [Not_found]. *)

val utilization : t -> int -> float
(** busy threads / cores, clamped to [\[0,1\]]; 0 when powered off. *)

val energy : t -> int -> float
(** Joules consumed by the node from time 0 until now. Exact: power
    changes only at busy/power transitions, where the node's meter is
    settled. A powered-down node, crashed or not, draws sleep power. *)

val crash : t -> node:int -> Process.t list
(** Fail-stop the node at the current simulated time: power it off
    permanently and kill every process that has a live thread on it (or
    in-flight to it). Returns the orphaned processes; their exit hooks
    never fire — re-admission is the scheduler's job. Idempotent: a
    second crash of the same node returns []. Raises [Invalid_argument]
    for an unknown node index. Plan-scheduled crashes call this
    automatically. *)

val new_container : t -> name:string -> Container.t

(** {2 Stack-transformation latency cache}

    {!spawn} with [?binary] measures the binary's median
    stack-transformation latency through the real runtime — an expensive,
    deterministic computation memoized process-globally, keyed on the
    program IR (structural equality: recompiling the same program hits).
    The cache is mutex-guarded and capacity-bounded with FIFO eviction.
    Per-ensemble hit/miss counts also land in the [obs] metrics
    [popcorn.latency_cache.hits]/[popcorn.latency_cache.misses]. *)

val latency_cache_clear : unit -> unit
(** Empty the cache and zero the hit/miss counters (tests). *)

val latency_cache_stats : unit -> int * int
(** [(hits, misses)] since the last {!latency_cache_clear}. *)

val latency_cache_size : unit -> int
(** Entries currently cached. *)

val set_latency_cache_capacity : int -> unit
(** Change the bound (default 64), evicting oldest entries if the cache
    is over it. Raises [Invalid_argument] if [< 1]. *)

val spawn :
  t ->
  container:Container.t ->
  node:int ->
  name:string ->
  ?binary:Compiler.Toolchain.t ->
  ?transform_latency:(Isa.Arch.t -> float) ->
  footprint_bytes:int ->
  thread_phases:Process.phase Seq.t list ->
  unit ->
  Process.t
(** Load the image on the node (heterogeneous loader), create one thread
    per phase sequence, register pages with the DSM. If [binary] is given its
    median stack-transformation cost per source ISA is measured through
    the real transformation runtime unless [transform_latency] overrides
    it. The process does not run until {!start}. *)

val start : t -> Process.t -> unit
(** Begin executing all threads of the process at the current simulated
    time. *)

val migrate : t -> Process.t -> to_node:int -> unit
(** Raises [Invalid_argument] for an unknown node.
    Set the migration flag (vDSO page): each thread migrates at its next
    phase boundary — stack transformation on the source, a thread-
    migration message, resumption on the destination; pages then follow
    on demand. When the last thread leaves the home kernel, residual
    pages are drained and the home moves. *)

val on_process_exit : t -> (Process.t -> unit) -> unit

val on_thread_finish : t -> (Process.t -> Process.thread -> unit) -> unit
(** Called when a thread runs out of phases — and when a crash forcibly
    retires it — before any process-exit hooks fire. Lets observers (the
    datacenter scheduler's incremental load accounting) retire the thread
    from per-node counters. During crash teardown the hook runs while
    [migrate_to] is still set, so destination-side accounting can be
    undone. *)

val on_migration_abort : t -> (Process.t -> Process.thread -> dest:int -> unit) -> unit
(** Called when a thread's migration handoff message exhausted its retry
    budget and the migration rolled back onto the source node. *)

val on_node_crash : t -> (int -> Process.t list -> unit) -> unit
(** Called after a plan-scheduled crash, with the node id and the
    processes it orphaned (their threads already retired). *)

val on_thread_migrated : t -> (Process.t -> Process.thread -> from_:int -> to_:int -> unit) -> unit
(** Called when a thread's migration handoff message was delivered and the
    thread restarted on the destination node — the ordering edge the DSM
    race detector needs between the thread's source- and destination-side
    page accesses. Fires after [th.node] has moved, before the thread's
    next phase runs. *)

val attach_sensors : t -> Obs.t -> hz:float -> until:float -> unit
(** Sample every node's power and load into the sink every [1/hz]
    seconds of simulated time up to [until], as the paper's 100 Hz DAQ
    does: counter samples on the node's pid, one track each for
    ["cpu_w"] and ["system_w"] (watts) and ["load"] (percent of the
    cores busy, 0 when powered off), with the value under the arg
    ["value"]. A node that is powered off reads 0 on ["cpu_w"] and its
    sleep draw, what its energy meter charges, on ["system_w"]. Read a
    series back with {!Obs.counter_series}. *)

val set_powered : t -> int -> bool -> unit
(** No-op on a crashed node. *)

val aborted_migrations : t -> int
(** Total migrations rolled back across all threads of all containers. *)
