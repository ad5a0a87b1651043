(** The island-scheduler core: jobs placed over a {!Machine.Topology}
    by policies that choose *which node* as well as *which ISA*, at
    warehouse scale, on the time-island runtime ({!Sim.Islands}).

    Island 0 is the scheduler at the cluster head; islands 1..N are the
    topology's nodes. All control traffic (dispatch, completion
    reports, migration commands) is batched per [epoch_s] and carried
    over its path through the rack fabric, so each island pair's
    minimum delay — the epoch plus that path's latency — forms the
    runtime's topology-aware lookahead matrix. Migration transfers and
    cold-set page faults are path-dependent: cross-rack moves pay the
    aggregation hop. The report is a pure function of the config:
    domain count never changes a byte. *)

type policy =
  | Pack_power_cap
      (** power-capped bin packing: fewest, fullest nodes under a
          global projected-power budget; admission blocks at the cap *)
  | Edp_migrate
      (** energy/EDP-aware placement (throughput per watt for the
          job's category) plus per-epoch global dynamic migration of
          the worst-placed job, cross-ISA and cross-rack *)
  | Work_steal
      (** round-robin local placement; idle nodes steal from the
          most-loaded victim, in-rack victims preferred *)
  | Least_loaded
      (** fleet placement: the node with the lowest per-core load after
          placement; every epoch the most-loaded node sends one job to
          the least-loaded *)
  | Round_robin
      (** fleet placement: the next node in turn, with
          [Least_loaded]'s per-epoch rebalance *)

val policy_name : policy -> string
val policy_of_name : string -> policy option

val all_policies : policy list
(** The three global policies: [[Pack_power_cap; Edp_migrate; Work_steal]]. *)

type config = {
  topology : Machine.Topology.t;
  jobs : int;
  seed : int;
  mean_interarrival_s : float;  (** open-loop Poisson arrivals *)
  epoch_s : float;  (** control-traffic batching epoch *)
  policy : policy;
  power_cap_w : float;
      (** [Pack_power_cap]: projected cluster power admission budget *)
  migration : bool;
      (** per-epoch rebalance; [false] turns it off for every policy *)
  fail_rate : float;
      (** per-phase failure probability; phases retry up to a budget,
          then the job fails. [0] draws no random numbers. *)
}

val default : topology:Machine.Topology.t -> jobs:int -> seed:int -> config
(** [Edp_migrate] at a brisk 0.02 s mean interarrival, power cap 75% of
    110 W per node, migration on, no failures. *)

val fleet : nodes:int -> jobs:int -> seed:int -> config
(** The fleet preset: [Least_loaded] over one flat rack of alternating
    x86/arm64 nodes whose local link is the paper's 10GbE
    point-to-point interconnect, at 0.5 s mean interarrival. *)

val power_floor : Machine.Topology.t -> float
(** The lowest [power_cap_w] under which [Pack_power_cap] admits every
    job: the idle cluster's projected power plus the cheapest placement
    of the widest job the pool draws. Below it that job never fits and
    the run would not end. *)

type result = {
  completed : int;
  failed : int;  (** jobs that exhausted their phase retries *)
  retried_phases : int;
  migrations : int;
  steals : int;  (** jobs that landed on a node via work stealing *)
  deferred : int;
      (** epochs in which the power cap blocked the queue head: a job
          that waits out many epochs counts once per epoch *)
  makespan : float;
  total_energy_j : float;
  energy_x86_j : float;
  energy_arm_j : float;
  edp : float;
  peak_power_w : float;  (** max projected cluster power at placement *)
  p50_latency_s : float;
  p99_latency_s : float;
  events : int;  (** simulation events executed *)
  windows : int;  (** conservative synchronization windows *)
}

val run : ?domains:int -> config -> result
(** Deterministic: the result is a pure function of [config], not of
    [domains]; [completed + failed = jobs]. Raises [Invalid_argument]
    for a topology with fewer than 2 nodes, [jobs < 1], non-positive
    [epoch_s]/[power_cap_w], or a [Pack_power_cap] run whose cap is
    below {!power_floor}. *)

val run_audited : ?domains:int -> config -> result * Sim.Islands.capture
(** Like {!run}, with the runtime's audit capture enabled: records post
    edges, executed events, window barriers, PRNG fingerprints, and
    ownership touches (the scheduler island owns the queue and load
    estimates; node island [i+1] owns node [i]'s state) for the
    [hetmig audit] passes. Capture is pure observation — the result is
    identical to {!run}'s. *)

val render : config -> result -> string
(** Byte-stable text report (no wall-clock, no domain count): the
    artifact CI diffs between [--seq] and [--islands N] runs. The fleet
    placements print the fleet report (failures and retries), the
    global policies the cluster report (steals, deferrals, peak
    power). *)
