(** Sliding-window histogram over timestamped bucket samples.

    A sample is a bucket index stamped with a time; samples arrive in
    nondecreasing time and leave from the old end when the window is
    pruned. The window keeps one entry per distinct (time, bucket) pair
    with a count, so its memory is bounded by the number of buckets
    times the number of distinct sample times in the window, whatever
    the sample count. The serving controller ({!Sched.Service}) keeps
    one per service for its windowed p99: every sample of a digest
    carries the controller's clock, so a busy epoch adds one entry per
    touched bucket instead of one per response.

    The live per-bucket counts are a {!Stats.histogram}, read by
    {!Stats.percentile}. Adding and pruning touch only preallocated
    arrays, which grow by doubling and never shrink. *)

type t

val create : bucket_lo:float array -> t
(** Empty window over [Array.length bucket_lo] buckets, with the given
    lower bucket edges (as {!Stats.log_histogram} records them). The
    array is shared, not copied. *)

val add : t -> float -> int -> unit
(** [add w time bucket] records one sample. When the newest entry for
    [bucket] has the same [time], its count grows in place. Raises
    [Invalid_argument] when [bucket] is out of range, or [time] is NaN
    or before the newest sample still in the window. *)

val prune : t -> horizon:float -> unit
(** Drop every sample whose time is before [horizon], whole entries at
    a time, oldest first. *)

val total : t -> int
(** Samples in the window. *)

val is_empty : t -> bool

val entries : t -> int
(** Stored (time, bucket) entries: at most the number of distinct
    (time, bucket) pairs among the samples in the window. *)

val histogram : t -> Stats.histogram
(** The window's per-bucket counts. The same record is returned every
    time and its counts follow later adds and prunes; do not mutate
    it. *)
