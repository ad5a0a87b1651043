(** The runtime half of a fault plan.

    An injector owns the plan's PRNG and answers the kernel's questions
    — "is this send attempt lost?", "is this delivery delayed?", "did
    this page-request batch time out?". It counts nothing: the message
    bus counts what it lost ([Kernel.Message.retry_stats]). One injector
    belongs to exactly one simulation engine; a fresh injector from the
    same plan replays the same decisions in the same order, which is
    what makes faulty runs bit-reproducible. *)

type t

val create : Plan.t -> kinds:string list -> t
(** Validate the plan against the live ensemble's message kinds and
    seed the PRNG. Raises [Invalid_argument] if the plan references a
    message kind not in [kinds] (["*"] is always accepted): a fault
    plan that silently matched nothing would make every "we survived
    the fault" result a lie. *)

val fault_for : t -> kind:string -> Plan.msg_fault option
(** The plan's entry for message kind [kind], else its ["*"] entry, else
    [None], wherever ["*"] is listed. A sender resolves each kind once and
    passes the result to {!drop_attempt} and {!delivery_delay}, so a send
    looks up no name. *)

val drop_attempt : t -> Plan.msg_fault option -> bool
(** Does the plan lose this send attempt of a kind whose entry
    ({!fault_for}) is the given one? Draws from the PRNG only when the
    configured drop probability is positive, so a zero plan leaves the
    stream untouched. *)

val delivery_delay : t -> Plan.msg_fault option -> float
(** Extra latency for a delivered message of a kind whose entry is the
    given one (0. when not delayed). *)

val page_timeout : t -> bool
(** Does this phase's DSM page traffic time out once? *)

val retry_budget : t -> int

val backoff : attempt:int -> float
(** Wait before retransmission number [attempt] (1-based):
    [Plan.backoff_base_s *. 2^(attempt-1)]. *)

val crashes : t -> Plan.crash list
