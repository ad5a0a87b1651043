(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulator flows through explicitly seeded [Prng.t]
    values so that every experiment is reproducible bit-for-bit. A
    generator is 8 bytes of splitmix64 state, read and written unboxed,
    so a draw advances it without allocating; only a result returned
    through a call that is not inlined is boxed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val fingerprint : t -> int64
(** The raw splitmix64 state, without advancing [t]. Two generators with
    equal fingerprints produce identical draw sequences; the audit layer
    snapshots fingerprints around events to certify that a stream only
    advanced inside its owning island's execution. *)

val draws_between : before:int64 -> after:int64 -> int
(** Number of state advances (single draws or splits) separating two
    {!fingerprint}s of the same generator. Exact: the splitmix64 state
    moves by a fixed odd increment per draw, which is invertible
    mod 2{^64}. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal deviate. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal deviate: [exp (gaussian mu sigma)]. *)

val lognormal_of_seed : int -> mu:float -> sigma:float -> float
(** [lognormal_of_seed seed ~mu ~sigma] is bit-identical to
    [lognormal (create seed) ~mu ~sigma] without materializing the
    generator: one straight-line, allocation-free draw. Meant for hot
    paths that hash a per-item seed (e.g. per-request service demand). *)

val choice : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
