(** Inter-kernel messaging layer.

    Kernels in the replicated-kernel OS share no data structures; every
    interaction crosses the interconnect as a message (paper Section
    5.1). The bus delivers a callback after the modeled transfer latency
    and keeps traffic statistics.

    Every send runs under a fault injector: each attempt may be lost
    according to the fault plan. Lost attempts are detected by timeout
    and retransmitted with exponential backoff until the plan's retry
    budget is exhausted, at which point the message is abandoned and the
    caller's [on_failure] fires. Under {!Faults.Plan.zero} (the default)
    the bus is a perfect fabric: one attempt per message, delivered
    after exactly the transfer time. *)

type kind =
  | Thread_migration  (** register state + transformation handoff *)
  | Page_request
  | Page_reply
  | Service_update  (** replicated-service state consistency traffic *)

val all_kinds : kind list
val kind_to_string : kind -> string

type retry_stats = {
  mutable attempts : int;  (** physical sends, including retransmissions *)
  mutable delivered : int;
  mutable dropped : int;  (** attempts lost by the fault plan *)
  mutable retried : int;  (** retransmissions scheduled after a timeout *)
  mutable failed : int;  (** messages abandoned after the retry budget *)
}

type t

val create :
  ?faults:Faults.Injector.t ->
  ?obs:Obs.t ->
  Sim.Engine.t ->
  Machine.Interconnect.t ->
  t
(** [faults] defaults to an injector built from {!Faults.Plan.zero}.
    [obs] (default {!Obs.noop}) records one complete RPC span per message
    — first send attempt to delivery or abandonment, on the interconnect
    track's per-kind row — plus retry instants and
    [msg.sent./msg.dropped./msg.failed.<kind>] counters. With the no-op
    sink the bus behaves exactly as before this option existed. *)

val send :
  t ->
  kind ->
  ?on_failure:(unit -> unit) ->
  bytes:int ->
  on_delivery:(unit -> unit) ->
  unit ->
  unit
(** Schedule [on_delivery] after the one-way transfer time for [bytes]
    (plus any injected delay). Under a fault plan, a send whose every
    attempt is dropped calls [on_failure] instead — callers owning
    state that rides the message (thread migration!) must roll back
    there. [on_failure] defaults to a no-op for fire-and-forget
    traffic. Raises [Invalid_argument] on negative [bytes]. *)

val sent : t -> kind -> int
(** Send attempts of a kind (retransmissions included). *)

val retry_stats : t -> kind -> retry_stats
(** Per-kind retry/failure counters; all zeros before the first send.
    The returned record is live. *)

val total_bytes : t -> int
val total_messages : t -> int
