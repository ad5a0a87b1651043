(** Descriptive statistics used throughout the evaluation harness. *)

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  median : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list and on NaN inputs. *)

val mean : float list -> float
val stddev : float list -> float

val quantile : float array -> float -> float
(** [quantile sorted q] with [q] in [\[0,1\]]; linear interpolation between
    order statistics. The array must be sorted ascending (with
    [Float.compare] order). Raises [Invalid_argument] on the empty array
    and on arrays containing NaN. *)

type boxplot = {
  bmin : float;
  q1 : float;
  bmedian : float;
  q3 : float;
  bmax : float;
}

val boxplot : float list -> boxplot
(** Five-number summary (min, Q1, median, Q3, max), as in the paper's
    Figure 10. Raises [Invalid_argument] on the empty list and on NaN
    inputs. *)

val pp_boxplot : Format.formatter -> boxplot -> unit

type histogram = {
  bucket_lo : float array;  (** inclusive lower edge of each bucket *)
  counts : int array;
}

val log_histogram : base:float -> buckets:int -> float list -> histogram
(** Logarithmic histogram: bucket [i] covers [\[base^i, base^(i+1))];
    values in [\[0, 1)] land in bucket 0, values beyond the last bucket in
    the last. Negative or NaN inputs raise [Invalid_argument] — they used
    to be silently binned into bucket 0, which made a histogram of signed
    residuals look like a pile of sub-unit samples. Used for the
    migration-point interval distributions (Figs. 3-5) and the obs metrics
    registry. *)

val log2_bucket : buckets:int -> float -> int
(** The base-2 bucket of {!log_histogram}: [floor(log2 x)] read from the
    IEEE exponent field, [0] below 1, clamped to [buckets - 1]. It does
    not check its input: NaN lands in the last bucket, negatives in
    bucket 0. *)

val log_edges : base:float -> buckets:int -> float array
(** The [bucket_lo] array {!log_histogram} records: [base^i] for each
    bucket [i]. *)

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in [\[0,1\]]: the value below which a
    fraction [q] of the histogram's samples fall, interpolating the
    empirical CDF linearly inside the covering bucket. Bucket edges
    follow {!log_histogram}'s semantics exactly: bucket 0 spans
    [\[0, base)] (its recorded lower edge is [base^0 = 1], but sub-unit
    samples land there), interior bucket [i] spans
    [\[base^i, base^(i+1))] with an {e inclusive} lower edge, and the
    last bucket is closed at [base^buckets]. Raises [Invalid_argument]
    on an empty histogram and on NaN or out-of-range [q] — consistent
    with {!log_histogram}'s rejection of NaN/negative samples. Used for
    the serving path's windowed p50/p99/p999 tail estimates. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values. *)

val resample : (float * float) list -> dt:float -> t_end:float -> float array
(** [resample samples ~dt ~t_end] converts a step signal (value holds until
    the next sample; [samples] in chronological order) into a dense array
    with period [dt] covering [\[0, t_end)]. Before the first sample the
    value is 0. Used for the Figure 11 power and load rows. *)
