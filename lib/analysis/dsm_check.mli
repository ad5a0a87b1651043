(** Pass 5: DSM race detection over captured hDSM access logs.

    Runs a workload on a two-node cluster with the hDSM observer
    installed, logging the hDSM's own observations — an [Obs_access] per
    page access and an [Obs_sync] per coherence message (page fetch,
    invalidation, drain, prefetch transfer) — plus an [Obs_sync] per
    thread-migration handoff, then replays the log through the
    vector-clock detector. A coherent execution is race-free by
    construction — the protocol's own messages order all conflicting
    accesses — so any reported race means the coherence protocol let two
    kernels touch a page without a message between them. *)

val rules : (string * Diagnostic.severity * string) list

val capture :
  binary:Compiler.Toolchain.t ->
  spec:Workload.Spec.t ->
  Dsm.Hdsm.observation list * int
(** Deterministic two-node capture run: spawn the workload with two
    threads on node 0, migrate the process mid-run, record until
    completion. Returns the event log and the number of units (nodes). *)

val check_log :
  label:string -> units:int -> Dsm.Hdsm.observation list -> Diagnostic.t list
(** Replay a log through {!Race.detect}; one [dsm-race] diagnostic per
    racy page, plus a [dsm-empty-log] info when the log saw no page
    accesses at all (a capture-harness failure would otherwise look like
    a clean run). *)

val check :
  label:string ->
  binary:Compiler.Toolchain.t ->
  spec:Workload.Spec.t ->
  Diagnostic.t list
