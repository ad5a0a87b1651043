(** Workload-set generators (paper Section 7, "Job Arrivals and
    Scheduling").

    Job mixes are drawn uniformly from the benchmark pool (NPB classes
    A/B/C plus bzip2smp and Verus) with 1-4 threads, matching the paper's
    uniform-distribution sets. *)

val sustained : seed:int -> jobs:int -> Job.t list
(** A sustained workload: [jobs] jobs all available from t=0; the
    scheduler admits a new one as soon as one finishes (the paper's 10
    sets of 40 jobs). *)

val periodic :
  seed:int -> waves:int -> max_per_wave:int -> Job.t list
(** Periodic arrivals: waves of up to [max_per_wave] jobs spaced uniformly
    60-240 s apart (the paper's 10 sets of 5 waves of <= 14 jobs). *)

(** {1 Open-loop request traces}

    Serving workloads ({!Service}) are driven by per-request arrival
    traces rather than job sets: requests arrive whether or not earlier
    ones have completed (open loop), which is what produces real
    queueing tails. *)

type request = {
  rid : int;  (** dense id, the trace's canonical (at, svc) order *)
  svc : int;  (** service the request targets, in [\[0, services)] *)
  at : float;  (** arrival time, seconds *)
}

type request_trace = {
  tname : string;
  services : int;
  requests : request array;  (** sorted by (at, svc); [rid = index] *)
}

val bursty :
  ?rate_high:float ->
  ?rate_low:float ->
  ?mean_on:float ->
  ?mean_off:float ->
  seed:int ->
  services:int ->
  duration_s:float ->
  unit ->
  request_trace
(** MMPP on/off traffic: each service alternates exponential sojourns in
    a high-rate ON state ([mean_on] s, [rate_high] req/s, default 10 s at
    40 req/s) and a low-rate OFF state ([mean_off] s, [rate_low] req/s,
    default 30 s at 2 req/s), with Poisson arrivals within each sojourn.
    Services draw from independent split streams, so the per-service
    sub-traces are stable under [services] changes. *)

val diurnal :
  ?peak_rps:float ->
  ?day_s:float ->
  seed:int ->
  services:int ->
  days:int ->
  unit ->
  request_trace
(** Piecewise-constant day curve: 24 equal slots per compressed day of
    [day_s] seconds (default 240 — a day in four minutes), each slot's
    Poisson rate [peak_rps] (default 20, at least 0) scaled by a fixed
    trough/ramp/plateau/peak shape whose night trough is 0: truly
    silent, so idle-return policies have something to harvest.
    Each service's curve is phase-shifted by a per-service random
    offset so peaks stagger across the fleet. *)

(** {1 Streaming traces}

    A {!stream} is a one-shot cursor over a request sequence in
    canonical (at, svc) order with densely increasing rids. Nothing is
    materialized: generator streams hold one incremental MMPP/diurnal
    state machine per service (k-way merged on the fly through a
    winner tree, O(log services) per pull), file streams
    read one line per pull — so memory is independent of trace length,
    which is what lets one serving run push millions of requests.

    Generator streams reproduce the materialized generators exactly:
    for any seed and parameters, [materialize (bursty_source …)] equals
    [bursty …] request for request (QCheck'd in the test suite). *)

type stream

type source =
  | Bursty of {
      rate_high : float;
      rate_low : float;
      mean_on : float;
      mean_off : float;
      seed : int;
      services : int;
      duration_s : float;
    }
  | Diurnal of {
      peak_rps : float;
      day_s : float;
      seed : int;
      services : int;
      days : int;
    }
  | Replay_file of string
  | Materialized of request_trace
      (** A [source] names a trace without holding it. Streams are
          one-shot stateful cursors, so anything that runs a trace more
          than once (a sequential-vs-islands comparison, say) keeps the
          source and re-opens a fresh stream per run. *)

val bursty_source :
  ?rate_high:float ->
  ?rate_low:float ->
  ?mean_on:float ->
  ?mean_off:float ->
  seed:int ->
  services:int ->
  duration_s:float ->
  unit ->
  source
(** {!Bursty} with {!bursty}'s defaults; validates eagerly. *)

val diurnal_source :
  ?peak_rps:float ->
  ?day_s:float ->
  seed:int ->
  services:int ->
  days:int ->
  unit ->
  source
(** {!Diurnal} with {!diurnal}'s defaults; validates eagerly. *)

val open_stream : ?limit:int -> source -> stream
(** Open a fresh cursor. [limit] caps the number of requests the stream
    will yield (a cheap way to bound replay of a longer source).
    {!Replay_file} streams require the file in canonical (at, svc)
    order — {!stream_to_file} output always is. A missing file raises
    [Sys_error]; a malformed header or line, a negative or NaN time, an
    out-of-range service id or an out-of-order line raises
    [Invalid_argument "<path>, line <n>: <what>"] when the stream reaches
    it. {!Validate.trace_file} checks a whole file up front. *)

val next : stream -> bool
(** Advance to the next request; [false] once the stream is exhausted
    (idempotent). After [true], read the cursor with {!at}/{!svc}/{!rid}. *)

val at : stream -> float
val svc : stream -> int

val rid : stream -> int
(** Dense id of the current request, assigned in pull order (identical
    to the materialized trace's rid). *)

val stream_name : stream -> string
val stream_services : stream -> int

val close_stream : stream -> unit
(** Release underlying resources (the open file for {!Replay_file};
    a no-op otherwise). Safe to call more than once. *)

val materialize : ?limit:int -> source -> request_trace
(** Pull a whole stream into the classic list form — the compatibility
    bridge: [materialize (Materialized t)] = [t], and generator sources
    reproduce {!bursty}/{!diurnal}. *)

val stream_to_file : stream -> string -> unit
(** Drain [stream] into a replayable trace file without ever holding the
    trace in memory: a [# hetmig-request-trace v1 services=<n> name=<s>]
    header, then one [<at> <svc>] line per request. Times are lossless
    hex floats, so replaying the file ({!Replay_file}) reproduces the
    stream bit-identically; hand-written files may use decimal times and
    [#] comment lines. *)
