type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  median : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

(* Polymorphic [compare] on floats boxes both operands per comparison and,
   worse, its total order is an accident of the runtime representation;
   [Float.compare] is the intended order. NaN is rejected outright: every
   statistic in this module is meaningless over NaN, and letting one sort
   to an end of the array silently corrupts quantiles. *)
let sorted_array xs =
  let arr = Array.of_list xs in
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Stats: NaN input")
    arr;
  Array.sort Float.compare arr;
  arr

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty";
  (* Under [Float.compare] a NaN sorts below every number, so checking the
     first cell catches a NaN anywhere in a caller-sorted array. *)
  if Float.is_nan sorted.(0) || Float.is_nan sorted.(n - 1) then
    invalid_arg "Stats.quantile: NaN input";
  if q <= 0.0 then sorted.(0)
  else if q >= 1.0 then sorted.(n - 1)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int lo in
    if lo + 1 >= n then sorted.(n - 1)
    else sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
    let arr = sorted_array xs in
    {
      n = Array.length arr;
      min = arr.(0);
      max = arr.(Array.length arr - 1);
      mean = mean xs;
      stddev = stddev xs;
      median = quantile arr 0.5;
    }

type boxplot = {
  bmin : float;
  q1 : float;
  bmedian : float;
  q3 : float;
  bmax : float;
}

let boxplot xs =
  match xs with
  | [] -> invalid_arg "Stats.boxplot: empty"
  | _ ->
    let arr = sorted_array xs in
    {
      bmin = arr.(0);
      q1 = quantile arr 0.25;
      bmedian = quantile arr 0.5;
      q3 = quantile arr 0.75;
      bmax = arr.(Array.length arr - 1);
    }

let pp_boxplot ppf b =
  Format.fprintf ppf "min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f" b.bmin b.q1
    b.bmedian b.q3 b.bmax

type histogram = {
  bucket_lo : float array;
  counts : int array;
}

(* floor(log2 x) straight from the IEEE exponent field: exact at every
   bucket edge (log-quotient rounding can misplace samples equal to a
   power of two) and free of the transcendental, so hot accounting paths
   can bin with it. Inlined: a call would box [x]. *)
let[@inline] log2_bucket ~buckets x =
  if x < 1.0 then 0
  else begin
    let b =
      (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52)
      land 0x7FF)
      - 1023
    in
    if b >= buckets then buckets - 1 else b
  end

let log_edges ~base ~buckets =
  Array.init buckets (fun i -> base ** float_of_int i)

let log_histogram ~base ~buckets xs =
  assert (base > 1.0 && buckets > 0);
  let counts = Array.make buckets 0 in
  let bucket_of x =
    if Float.is_nan x || x < 0.0 then
      invalid_arg
        (Printf.sprintf "Stats.log_histogram: negative or NaN input %g" x)
    else if base = 2.0 then log2_bucket ~buckets x
    else if x < 1.0 then 0
    else begin
      let b = int_of_float (Float.floor (log x /. log base)) in
      if b >= buckets then buckets - 1 else b
    end
  in
  List.iter (fun x -> counts.(bucket_of x) <- counts.(bucket_of x) + 1) xs;
  { bucket_lo = log_edges ~base ~buckets; counts }

(* Percentile extraction from a log histogram, interpolating the
   empirical CDF linearly inside the covering bucket. Bucket edges are
   the histogram's own semantics: bucket 0 really covers [0, base) even
   though its recorded lower edge is base^0 = 1, and the last bucket is
   closed at base^buckets (everything beyond was clamped into it). The
   bucket-edge conventions matter at exact boundaries: a sample equal to
   base^i lands in bucket i (inclusive lower edge), so the estimate for
   a point mass at base^i must come back inside [base^i, base^(i+1)),
   never from bucket i-1. *)
let percentile h q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg (Printf.sprintf "Stats.percentile: q=%g outside [0,1]" q);
  let buckets = Array.length h.bucket_lo in
  if buckets = 0 || buckets <> Array.length h.counts then
    invalid_arg "Stats.percentile: malformed histogram";
  let total = Array.fold_left ( + ) 0 h.counts in
  if total = 0 then invalid_arg "Stats.percentile: empty histogram";
  (* Recover the base from the recorded edges (base^1 / base^0); a
     single-bucket histogram has no second edge, so fall back to the
     log_histogram default width of one decade. *)
  let base = if buckets > 1 then h.bucket_lo.(1) /. h.bucket_lo.(0) else 10.0 in
  let lo_of i = if i = 0 then 0.0 else h.bucket_lo.(i) in
  let hi_of i =
    if i = buckets - 1 then h.bucket_lo.(i) *. base else h.bucket_lo.(i + 1)
  in
  let rank = q *. float_of_int total in
  let rec find i cum =
    let c = h.counts.(i) in
    if i = buckets - 1 || rank <= float_of_int (cum + c) then (i, cum)
    else find (i + 1) (cum + c)
  in
  (* Skip leading empty buckets so rank=0 resolves to the first occupied
     bucket's lower edge, not to 0 counts of air below it. *)
  let rec first_occupied i = if h.counts.(i) > 0 then i else first_occupied (i + 1) in
  let start = first_occupied 0 in
  let i, cum = find start 0 in
  let c = h.counts.(i) in
  if c = 0 then lo_of i
  else begin
    let frac = (rank -. float_of_int cum) /. float_of_int c in
    let frac = Float.min 1.0 (Float.max 0.0 frac) in
    lo_of i +. (frac *. (hi_of i -. lo_of i))
  end

let geometric_mean xs =
  match xs with
  | [] -> invalid_arg "Stats.geometric_mean: empty"
  | _ ->
    let s = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (s /. float_of_int (List.length xs))

let resample samples ~dt ~t_end =
  let n = int_of_float (Float.ceil (t_end /. dt)) in
  let out = Array.make (max n 0) 0.0 in
  let rec fill samples current i =
    if i >= Array.length out then ()
    else begin
      let time = float_of_int i *. dt in
      match samples with
      | (st, sv) :: rest when st <= time -> fill rest sv i
      | _ ->
        out.(i) <- current;
        fill samples current (i + 1)
    end
  in
  fill samples 0.0 0;
  out
