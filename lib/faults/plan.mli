(** Deterministic fault plans.

    A plan is pure data: message drop/delay probabilities per message
    kind, scheduled node-crash events, and page-request timeout rates,
    together with the retry discipline (budget + exponential backoff)
    the kernel uses to survive them. All randomness derived from a plan
    flows through a splitmix64 generator seeded with [seed], so the same
    plan + seed reproduces a bit-identical run — sequentially and under
    any domain-pool width (each simulation owns its own injector).

    The zero plan is the default everywhere: a run given no plan runs
    under {!zero}, which injects nothing and draws nothing. *)

type msg_fault = {
  kind : string;
      (** a [Kernel.Message.kind] name (e.g. ["thread_migration"]), or
          ["*"] to apply to every kind without an explicit entry *)
  drop : float;  (** probability in [\[0,1\]] that one send attempt is lost *)
  delay : float;  (** probability that a delivered message is delayed *)
  delay_s : float;  (** extra latency added when delayed *)
}

type crash = {
  at : float;  (** simulated time of the crash, >= 0 *)
  node : int;  (** node index; validated against the booted ensemble *)
}

type t = {
  seed : int;
  messages : msg_fault list;
  crashes : crash list;
  page_timeout_rate : float;
      (** probability that a phase's DSM page traffic times out once *)
  retry_budget : int;
      (** total attempts per message (>= 1); also bounds how many times
          the datacenter scheduler re-admits a crash-orphaned job *)
}

val page_timeout_penalty_s : float
(** Latency added per page timeout: 1 ms. *)

val backoff_base_s : float
(** Wait before the first retransmission: 50 us; doubles per attempt. *)

val zero : t
(** The default plan: no drops, no delays, no crashes, no timeouts. *)

val make :
  ?seed:int ->
  ?messages:msg_fault list ->
  ?crashes:crash list ->
  ?page_timeout_rate:float ->
  ?retry_budget:int ->
  unit ->
  t
(** Validating constructor. Raises [Invalid_argument] on any
    out-of-range field: probabilities outside [\[0,1\]], negative
    delays or crash times, a retry budget below 1 (a budget of 0
    would mean "never even try" and is certainly a bug), or a duplicate
    message-kind entry. Message-kind {e names} are validated later,
    against the live ensemble, by {!Injector.create}. *)

val uniform : ?seed:int -> ?retry_budget:int -> drop:float -> unit -> t
(** [uniform ~drop ()] drops every message kind with probability
    [drop]; shorthand for a single ["*"] entry. *)

val pp : Format.formatter -> t -> unit
