(* Sliding-window histogram. Entries live in a circular buffer of three
   parallel lanes (time, bucket, count) whose capacity is a power of
   two, so a slot is an index masked by [capacity - 1].

   Every entry has a sequence number: the number of entries pruned
   before it reached the head plus its distance from the head.
   [last.(b)] is the sequence number of bucket [b]'s newest entry.
   Since times never decrease, a live entry of [b] with the new
   sample's time can only be that newest one, so [add] finds the entry
   to bump with one lookup and no search; a sequence number below
   [pruned] means the entry is gone. The per-bucket counts are kept in
   step on both ends, so reading the histogram costs nothing extra. *)

type t = {
  hist : Stats.histogram;  (* counts = per-bucket sum of entry counts *)
  last : int array;  (* per bucket; -1 before its first entry *)
  mutable times : float array;
  mutable buckets : int array;
  mutable counts : int array;
  mutable head : int;
  mutable len : int;
  mutable pruned : int;  (* entries ever pruned: the head's sequence number *)
  mutable total : int;
}

let create ~bucket_lo =
  let n = Array.length bucket_lo in
  {
    hist = { Stats.bucket_lo; counts = Array.make n 0 };
    last = Array.make n (-1);
    times = [||];
    buckets = [||];
    counts = [||];
    head = 0;
    len = 0;
    pruned = 0;
    total = 0;
  }

let total w = w.total
let is_empty w = w.total = 0
let entries w = w.len
let histogram w = w.hist

let grow w =
  let mask = Array.length w.times - 1 in
  let cap = max 8 (2 * Array.length w.times) in
  let times = Array.make cap 0.0
  and buckets = Array.make cap 0
  and counts = Array.make cap 0 in
  for i = 0 to w.len - 1 do
    let j = (w.head + i) land mask in
    times.(i) <- w.times.(j);
    buckets.(i) <- w.buckets.(j);
    counts.(i) <- w.counts.(j)
  done;
  w.times <- times;
  w.buckets <- buckets;
  w.counts <- counts;
  w.head <- 0

(* Inlined so that a caller's unboxed [time] (the controller's clock, once
   per response) is never boxed. *)
let[@inline] add w time b =
  let hc = w.hist.Stats.counts in
  if b < 0 || b >= Array.length hc then
    invalid_arg "Window_hist.add: bucket out of range";
  let mask = Array.length w.times - 1 in
  if
    Float.is_nan time
    || (w.len > 0 && time < w.times.((w.head + w.len - 1) land mask))
  then invalid_arg "Window_hist.add: time NaN or before the newest sample";
  let k = w.last.(b) - w.pruned in
  let j = (w.head + k) land mask in
  if k >= 0 && w.times.(j) = time then w.counts.(j) <- w.counts.(j) + 1
  else begin
    if w.len = Array.length w.times then grow w;
    let j = (w.head + w.len) land (Array.length w.times - 1) in
    w.times.(j) <- time;
    w.buckets.(j) <- b;
    w.counts.(j) <- 1;
    w.last.(b) <- w.pruned + w.len;
    w.len <- w.len + 1
  end;
  hc.(b) <- hc.(b) + 1;
  w.total <- w.total + 1

let prune w ~horizon =
  let hc = w.hist.Stats.counts in
  let mask = Array.length w.times - 1 in
  while w.len > 0 && w.times.(w.head) < horizon do
    let h = w.head in
    let b = w.buckets.(h) and n = w.counts.(h) in
    hc.(b) <- hc.(b) - n;
    w.total <- w.total - n;
    w.head <- (h + 1) land mask;
    w.len <- w.len - 1;
    w.pruned <- w.pruned + 1
  done
