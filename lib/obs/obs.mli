(** Structured observability: spans, events, and metrics over sim-time.

    One [t] is a sink owned by a single simulation run (a {!Sched.Scheduler.run}
    call, or a hand-built Popcorn ensemble). The default sink is {!noop}: every
    recording function returns immediately without touching the heap, so an
    uninstrumented run is byte-identical to one from a build without this
    library. An {!create}d sink collects:

    - {b trace events} in the Chrome trace-event model — complete spans with a
      begin timestamp and duration, instant events, counter samples, and
      process/thread name metadata. Timestamps are simulated seconds; the
      {!chrome_json} exporter converts to microseconds as the format requires.
      The convention throughout hetmig: [pid] is the node id (one track per
      node), [tid] is the thread id (one row per thread), with reserved tracks
      {!interconnect_pid} for the message bus and {!scheduler_pid} for the
      datacenter scheduler, and reserved row {!dsm_tid} for each node's hDSM
      protocol lane.
    - {b metrics} in a typed registry: monotonic integer counters, float
      gauges, and log-scale histograms (base 10, rendered through the fixed
      {!Sim.Stats.log_histogram}).

    Recording is append-only and allocation-light; nothing here reads the
    clock or draws randomness, so an instrumented run produces the same
    simulation results as an uninstrumented one — only the sink differs. *)

type t

val noop : t
(** The disabled sink: every operation is a no-op. *)

val create : unit -> t
(** A collecting sink. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. Call sites building non-trivial event
    arguments should guard on this to keep the off switch free. *)

(** {1 Track conventions} *)

val interconnect_pid : int
(** Synthetic Chrome "process" holding one row per message kind. *)

val scheduler_pid : int
(** Synthetic Chrome "process" for job lifecycle events. *)

val dsm_tid : int
(** Reserved row under each node's track for hDSM protocol activity
    (real thread ids start at 100). *)

(** {1 Events} *)

type arg = S of string | I of int | F of float

val complete :
  t -> ts:float -> dur:float -> pid:int -> tid:int -> cat:string ->
  name:string -> ?args:(string * arg) list -> unit -> unit
(** A finished span: began at [ts] (simulated seconds), lasted [dur]. *)

val instant :
  t -> ts:float -> pid:int -> tid:int -> cat:string -> name:string ->
  ?args:(string * arg) list -> unit -> unit
(** A point event. *)

val counter_sample :
  t -> ts:float -> pid:int -> name:string -> args:(string * arg) list -> unit
(** A Chrome counter sample ([ph:"C"]): each arg becomes a stacked series
    of the counter track [name] under [pid]. *)

val process_name : t -> pid:int -> string -> unit
val thread_name : t -> pid:int -> tid:int -> string -> unit

type span
(** An open span (begin/end pairing). Opening under {!noop} yields a dummy
    whose close is also a no-op. *)

val begin_span :
  t -> ts:float -> pid:int -> tid:int -> cat:string -> name:string ->
  ?args:(string * arg) list -> unit -> span

val end_span : t -> span -> ts:float -> ?args:(string * arg) list -> unit -> unit
(** Record the closed span as a complete event with duration
    [ts - begin ts]; extra [args] are appended to the begin args. *)

(** {1 Metrics} *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at zero on first touch). Raises
    [Invalid_argument] if the name is already a gauge or histogram. *)

val gauge : t -> string -> float -> unit
(** Set a gauge. *)

val observe : t -> string -> float -> unit
(** Add a sample to a histogram. Samples must be non-negative (they are
    rendered through {!Sim.Stats.log_histogram}, which rejects negatives). *)

(** {1 Inspection (tests and reconciliation checks)} *)

type span_view = {
  v_ts : float;
  v_dur : float;
  v_pid : int;
  v_tid : int;
  v_cat : string;
  v_name : string;
}

val spans : ?cat:string -> ?name:string -> t -> span_view list
(** Complete spans in recording order, optionally filtered. Folding their
    durations left-to-right replays the exact float additions of the
    aggregate counters they mirror (e.g. migration downtime). *)

val event_count : t -> int
val counter_value : t -> string -> int option
val gauge_value : t -> string -> float option
val histogram_samples : t -> string -> float list option
(** Samples in recording order. *)

val counter_series :
  t -> pid:int -> name:string -> arg:string -> (float * float) list
(** [(ts, value)] of [arg] in every {!counter_sample} of the track [name]
    under [pid], in recording order. An [I] value is converted to a
    float; a sample whose [arg] is missing or a string is skipped. [[]]
    under {!noop}. *)

(** {1 Exporters} *)

val chrome_json : t -> string
(** The collected events as Chrome trace-event JSON ({i traceEvents} array
    object form), loadable in Perfetto / chrome://tracing. Deterministic:
    byte-identical across runs that record the same events. *)

val metrics_json : t -> string
(** The metrics registry as JSON with keys sorted byte-stably; histograms
    are rendered as fixed base-10 log histograms. *)

val metrics_text : t -> string
(** Human-readable one-line-per-metric dump, sorted. *)

(** {2 JSON scalars} The repo's one JSON encoder: the exporters above,
    the lint and audit reports and the bench harness's [--json] use it. *)

val json_escape : string -> string
(** A JSON string body; control bytes but newline become [\u00XX]. *)

val json_float : float -> string
(** [%.6g], or [null] for a NaN or an infinity. *)
