(** Conservative-lookahead parallel discrete-event runtime ("time
    islands").

    A simulation is split into islands, each owning a private
    {!Calendar}, clock, and PRNG stream (split deterministically from
    the run seed). Actions must only touch state owned by their island;
    cross-island causality flows exclusively through {!post}, whose
    delivery delay is bounded below by the runtime's [lookahead] — in a
    datacenter model, the minimum cross-node interconnect/protocol
    latency. Under that contract no island can receive an event earlier
    than its local clock, every event executes in the deterministic
    (time, seq, src-island) total order, and a run is bit-identical
    whatever [domains] is: [run ~domains:1] is the sequential reference
    execution of the same schedule. *)

type t
(** A runtime: a set of islands plus the window machinery. *)

type island
(** Handle to one island, passed to every action it executes. *)

(** {2 Audit capture}

    With [capture:true], the runtime records a structural trace of the
    execution — post edges, executed events, window barriers, PRNG
    fingerprints, ownership touches — for the [hetmig audit] passes in
    [lib/analysis]. Recording is pure observation (it never perturbs
    the schedule), each island writes only its own buffers from its own
    lane, and barrier snapshots are taken single-threaded, so capture
    is race-free and deterministic at any domain count. *)

type touch_rec = {
  t_owner : int;  (** island that owns the touched resource *)
  t_resource : int;  (** model-assigned resource id *)
  t_write : bool;
}

type exec_rec = {
  x_isl : int;  (** executing island *)
  x_time : float;
  x_seq : int;
  x_src : int;  (** source island of the event's (time, seq, src) key *)
  x_clock_before : float;  (** island clock before this event ran *)
  x_window : int;
  x_prng_before : int64;  (** island PRNG fingerprint before the event *)
  x_prng_after : int64;  (** … and after *)
  x_touches : touch_rec list;  (** ownership touches, program order *)
}

type post_rec = {
  p_src : int;
  p_dst : int;
  p_send_time : float;
  p_after : float;  (** requested delay, exact as passed to {!post} *)
  p_deliver_time : float;
  p_seq : int;
  p_window : int;  (** window in which the post was made *)
}

type barrier_rec = {
  b_window : int;
  b_from : float;  (** window start: global min pending event time *)
  b_until : float;  (** window end: [b_from + lookahead] *)
  b_prng : int64 array;  (** per-island PRNG fingerprints at the barrier *)
}

type capture = {
  c_islands : int;
  c_lookahead : float;  (** window lookahead (minimum over edges) *)
  c_edge : float array array;
      (** per-edge lookahead matrix as passed to {!create}, or [[||]]
          when the runtime used the uniform scalar lookahead *)
  c_prng0 : int64 array;  (** per-island PRNG fingerprints at creation *)
  c_execs : exec_rec list array;
      (** per island, in true execution order (deliberately not
          re-sorted: out-of-order pops are evidence) *)
  c_posts : post_rec list;  (** merged, (send_time, seq, src) order *)
  c_barriers : barrier_rec list;  (** window order *)
  c_calendar_violations : int;
      (** summed {!Calendar.order_violations} tripwire counts *)
}

val create :
  ?capture:bool ->
  ?edge_lookahead:float array array ->
  islands:int ->
  lookahead:float ->
  seed:int ->
  unit ->
  t
(** [capture:true] records the audit capture (see {!capture}) and arms
    the calendars' pop-order tripwires; it is off by default, costing
    nothing. The capture is the runtime's only recorder. [lookahead]
    must be finite and positive.

    [edge_lookahead], when given, is an [islands × islands] matrix of
    per-edge delivery floors (topology-aware lookahead): a {!post} from
    [src] to [dst] must request [after >= edge_lookahead.(src).(dst)].
    Every distinct-pair entry must be finite and at least [lookahead] —
    the scalar stays the global safety floor, and the synchronization
    window still advances by the matrix minimum, so the §7b argument is
    unchanged while wider edges admit wider windows. *)

val island : t -> int -> island

val id : island -> int
val now : island -> float
(** The island's local clock: the timestamp of the event being executed. *)

val prng : island -> Prng.t
(** The island's private PRNG stream. Draw order is the island's
    deterministic execution order, so results never depend on the
    domain count. *)

val schedule : island -> at:float -> (island -> unit) -> unit
(** Island-local event; [at] must not be in the island's past. *)

val schedule_in : island -> after:float -> (island -> unit) -> unit

val post : island -> dst:int -> after:float -> (island -> unit) -> unit
(** Cross-island event, delivered to [dst] at [now + after]. [after]
    must be at least the runtime's lookahead — this is the conservative
    synchronization contract; violating it raises [Invalid_argument].
    Posting to the own island degrades to {!schedule_in}.

    Posts are batch-staged: each (src, dst) pair owns a recycled
    struct-of-arrays outbox that accumulates the whole window's
    messages and is merged into the destination calendar in one pass at
    the barrier (senders track their dirty destinations, so merge cost
    is proportional to traffic, not islands²). Steady-state posting
    allocates nothing, which is what amortizes barrier cost at
    millions-of-requests rates. *)

val run : ?domains:int -> t -> unit
(** Execute until no events remain anywhere. [domains] bounds the number
    of parallel lanes (capped at the island count); [1] (the default)
    runs the sequential reference schedule on the calling domain. *)

val touch : island -> owner:int -> resource:int -> write:bool -> unit
(** Ownership observer for the audit layer: a model tags an access to
    mutable state with the island that owns it ([owner]) and a
    model-chosen [resource] id. Touches are attached, in program order,
    to the event currently executing on [isl]; without [capture] this
    is a single branch. The island-race audit pass flags touches whose
    [owner] differs from the executing island with no happens-before
    edge. *)

val capture : t -> capture option
(** The recorded audit capture, or [None] without [capture:true]. Call
    after {!run}; the capture is assembled fresh on each call. *)

val events_executed : t -> int
val windows : t -> int
(** Number of synchronization windows the run took. *)
