(** Open-loop request serving with latency SLOs.

    The paper's headline datacenter workload is Redis served across the
    ISA boundary; this module supplies the serving-side story the batch
    scheduler cannot express: long-lived service instances pinned to
    fleet nodes, open-loop request traffic pulled lazily from a
    streaming {!Arrival.source}, per-request latency accounting, and an
    SLO-aware policy that shifts capacity toward x86 when a windowed
    p99 estimate breaches the SLO and back to ARM for energy when the
    window goes quiet.

    Runs execute on the {!Sim.Islands} runtime (island 0 routes and
    decides; islands 1..N are nodes alternating Xeon/X-Gene, as in
    {!Cluster}) with the routing epoch as the conservative lookahead, so
    [run ~domains:n] is bit-identical to [run ~domains:1].

    The request hot path is allocation-light by design: arrivals stream
    one at a time (the calendar holds a single pending arrival, never
    the trace), per-instance queues are scalar rings, latencies
    accumulate into per-node log-histograms, and each policy window is
    a {!Sim.Window_hist} holding one entry per (epoch, latency bucket)
    — so memory is independent of trace length and request rate, and
    one run can serve millions of requests.

    Services are replica groups. Each service starts with [replicas]
    instances spread along its anchor chain and the router picks among
    live replicas per request — deterministic power-of-two-choices or
    least-loaded against a routed-minus-resolved load estimate; with a
    single live replica no PRNG is consulted and routing degenerates to
    the classic home-node path. Under {!Slo_aware}, a p99 breach adds
    an x86 replica while [max_replicas] headroom remains (scale-out)
    instead of stop-and-copy moving the singleton, and a quiet window
    retires x86 replicas back onto the ARM anchors (scale-in, merging
    the drained backlog into a surviving replica's queue). With
    [replicas = max_replicas = 1] the policy reduces exactly to the
    classic single-instance escalate/park cycle.

    Migration is drain-based stop-and-copy: requests arriving at a
    draining instance queue behind it and wait out the
    transform + working-set transfer + kernel-state replication pause,
    inflating the tail — the downtime-vs-tail-budget trade. Setting
    [zero_downtime] stubs the pause to zero for ablations. *)

type policy =
  | Slo_aware
      (** start on ARM; escalate to x86 on windowed p99 breach, return
          to ARM when the window is quiet *)
  | Static_x86  (** pin every service to its x86 anchors *)
  | Static_arm  (** pin every service to its ARM anchors *)

val policy_name : policy -> string

type routing =
  | P2c
      (** power of two choices: two island-0 PRNG draws over the live
          replicas, fewer outstanding requests wins, ties to the lower
          node id *)
  | Least_loaded  (** full scan of live replicas; deterministic *)

val routing_name : routing -> string

type config = {
  nodes : int;
  seed : int;
  epoch_s : float;  (** routing/report batching epoch = lookahead *)
  slo_ms : float;
  policy : policy;
  window_s : float;
      (** sliding window for the p99 estimate. Each service's window
          holds at most one entry per (epoch, latency bucket) in it and
          is pruned at each SLO tick, one window apart:
          O(buckets × 2 [window_s] / [epoch_s]) words, whatever the
          request rate. *)
  demand_instructions : float;  (** mean per-request work *)
  demand_sigma : float;  (** lognormal sigma of per-request work *)
  workers : int;  (** concurrent requests per service instance *)
  zero_downtime : bool;  (** ablation stub: migrations pause nothing *)
  crashes : Faults.Plan.crash list;
  replicas : int;  (** initial replicas per service (default 1) *)
  max_replicas : int;
      (** scale-out ceiling for the SLO policy; must be >= [replicas] *)
  routing : routing;
  limit : int;  (** cap on requests pulled from the source; 0 = all *)
  source : Arrival.source;
}

val default : nodes:int -> seed:int -> source:Arrival.source -> config
(** The [nodes] are one {!Machine.Topology} rack, alternating x86 and
    arm64, every pair over its 10GbE local link; each instance queues at
    most 512 requests (overflow drops), and a migration moves a 64 MiB
    working set; these are fixed, not configurable. *)

val epoch_floor_s : float
(** The latency of {!Machine.Topology.local}: [epoch_s] must exceed it. *)

type result = {
  tname : string;  (** the stream's trace name *)
  services : int;
  arrived : int;
  responded : int;
  dropped : int;
      (** queue overflows, crash losses, and routing-transient rejects;
          [responded + dropped + in_flight_at_end = arrived], always *)
  in_flight_at_end : int;
  forwarded : int;  (** deliveries that chased a moved instance *)
  migrations : int;  (** drain-based instance moves (incl. scale-ins) *)
  scale_outs : int;  (** replicas added by the SLO policy *)
  downtime_s : float;  (** summed stop-and-copy pauses *)
  slo_violations : int;  (** responses above the SLO *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  makespan : float;
  energy_x86_j : float;
  energy_arm_j : float;
  total_energy_j : float;
  events : int;
  windows : int;
}

val run : ?domains:int -> ?obs:Obs.t -> config -> result
(** Open a fresh stream over [cfg.source] and simulate it to
    completion. [domains] bounds the island runtime's parallel lanes;
    any value produces bit-identical results. [obs] (default
    {!Obs.noop}, byte-identical off switch) collects the per-request
    latency histogram ([serve.latency_ms]), response/drop counters,
    per-service windowed-p99 counter samples on the
    {!Obs.scheduler_pid} track, migration/scale-out spans, per-epoch GC
    samples ([serve.gc.minor_words_per_epoch] plus cumulative
    minor/major/top-heap gauges — the allocation-flatness evidence),
    and an end-of-run gauge snapshot; the sink is only touched from the
    controller island and instrumented runs execute the same event
    schedule as plain ones, so reports stay byte-identical with
    observability on or off, under any domain count. Raises
    [Invalid_argument] on configs that cannot run: fewer than 2 nodes,
    an epoch at or below {!epoch_floor_s}, no workers, a window that is
    not finite and positive, a negative or non-finite demand, replica
    counts out of range, a negative limit, or crashes at unknown
    nodes. *)

val run_audited :
  ?domains:int -> ?obs:Obs.t -> config -> result * Sim.Islands.capture
(** Like {!run}, with the runtime's audit capture enabled: records post
    edges, executed events, window barriers, PRNG fingerprints, and
    ownership touches for the [hetmig audit] passes. The controller
    island owns the routing and window state; node island [i+1] owns
    node [i]'s serving state, request queues and digest buffers. The
    simulated result is identical to {!run}'s — capture is pure
    observation. *)

val render : config -> result -> string
(** Byte-stable report (pure function of config and result): the
    `--seq` vs `--islands N` CI diff runs on exactly this string. *)
