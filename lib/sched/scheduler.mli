(** The datacenter scheduler: admission, placement, rebalancing.

    Runs a job set under a policy on a two-server Popcorn ensemble and
    reports the metrics of Figures 12-13: per-machine energy, makespan,
    and energy-delay product. Idle machines enter the low-power state
    (consolidation); dynamic policies periodically compare loads against
    the policy's target share and migrate jobs to correct deviations. *)

type result = {
  policy : Policy.t;
  makespan : float;  (** seconds until the last job completes *)
  energy : float array;  (** joules per machine *)
  total_energy : float;
  edp : float;  (** total energy x makespan, J*s *)
  migrations : int;  (** thread migrations performed *)
  completed : int;  (** jobs finished *)
  rejected : int;  (** jobs refused at submission (wider than any machine) *)
  failed : int;
      (** jobs lost to a node crash after exhausting the retry budget, or
          left wider than every surviving machine.
          [completed + rejected + failed] = jobs submitted, always. *)
  retried : int;  (** crash-orphaned jobs re-admitted to the queue *)
  migration_aborts : int;
      (** thread migrations rolled back (handoff message lost) *)
  downtime_s : float;
      (** summed simulated migration downtime across all threads:
          transformation + handoff message + any prefetch stall *)
  remote_fetches : int;
      (** hDSM pages moved across the interconnect during the run *)
  drain_time_s : float;
      (** summed simulated post-migration residual-page drain latency *)
}

type admission = Fcfs | Sjf
(** Queue ordering at admission: first-come-first-served (the paper's
    setup) or shortest-job-first (part of the policy space the paper
    leaves as future work). *)

val run :
  ?admission:admission ->
  ?faults:Faults.Plan.t ->
  ?dsm_batch:bool ->
  ?prefetch:bool ->
  ?obs:Obs.t ->
  Policy.t ->
  Job.t list ->
  result
(** Simulate to completion. Jobs run in phases of 1e8 instructions,
    and the dynamic policies check loads every 2 s. [admission] is the
    queue order (default [Fcfs]). Jobs wider than every machine are
    rejected at submission and counted in [rejected]. [dsm_batch] and
    [prefetch] (both default false, bit-identical to the historical
    model when off) enable coalesced hDSM transfers and the migration
    working-set prefetch; their effect is visible in [downtime_s],
    [remote_fetches], [drain_time_s] and the makespan.

    [obs] (default {!Obs.noop} — the run computes exactly the same
    result, byte for byte) collects structured observability: job
    lifecycle instants ([job_submit] / [job_start] / [job_migrate] /
    [job_retry] / [job_finish] / [job_fail] / [job_reject]) and
    node-load counter samples on the {!Obs.scheduler_pid} track, the
    ensemble's phase/migration/DSM/RPC spans, and an end-of-run gauge
    snapshot of this [result] plus hDSM and message-bus statistics. The
    "migrate" and "drain" span durations fold back to [downtime_s] and
    [drain_time_s] exactly.

    [faults] (default {!Faults.Plan.zero}, which injects nothing and
    draws nothing) threads a deterministic fault plan through the ensemble:
    messages are dropped/delayed and retried with exponential backoff,
    page requests time out, and scheduled node crashes kill in-flight
    jobs. A crash-orphaned job is re-queued up to
    [plan.retry_budget - 1] times, then counted in [failed]; queued or
    arriving jobs wider than every surviving machine also fail. The
    same plan and seed reproduce bit-identical results.

    Each call is self-contained: it builds its own {!Sim.Engine},
    Popcorn ensemble, and per-run state, and shares nothing mutable
    with other calls (the only module-global touched is the mutex-
    guarded transform-latency memo in {!Kernel.Popcorn}). Concurrent
    [run]s on separate domains therefore produce results bit-identical
    to sequential execution. *)

val pp_result : Format.formatter -> result -> unit
