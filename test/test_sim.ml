let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkb msg = Alcotest.check Alcotest.bool msg

(* --- Prng -------------------------------------------------------------- *)

let prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sim.Prng.next_int64 a)
      (Sim.Prng.next_int64 b)
  done

let prng_different_seeds () =
  let a = Sim.Prng.create 1 and b = Sim.Prng.create 2 in
  checkb "different streams" false
    (Sim.Prng.next_int64 a = Sim.Prng.next_int64 b)

let prng_int_range () =
  let rng = Sim.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.int rng 17 in
    checkb "0 <= v < 17" true (v >= 0 && v < 17)
  done

let prng_int_in_range () =
  let rng = Sim.Prng.create 8 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.int_in rng (-5) 5 in
    checkb "in [-5,5]" true (v >= -5 && v <= 5)
  done

let prng_float_range () =
  let rng = Sim.Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.float rng 3.5 in
    checkb "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let prng_gaussian_moments () =
  let rng = Sim.Prng.create 10 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Sim.Prng.gaussian rng ~mean:5.0 ~stddev:2.0) in
  let s = Sim.Stats.summarize xs in
  checkb "mean close" true (Float.abs (s.Sim.Stats.mean -. 5.0) < 0.1);
  checkb "stddev close" true (Float.abs (s.Sim.Stats.stddev -. 2.0) < 0.1)

let prng_exponential_mean () =
  let rng = Sim.Prng.create 11 in
  let xs = List.init 20_000 (fun _ -> Sim.Prng.exponential rng ~mean:3.0) in
  checkb "mean close" true (Float.abs (Sim.Stats.mean xs -. 3.0) < 0.15);
  List.iter (fun x -> checkb "positive" true (x >= 0.0)) xs

let prng_split_independent () =
  let a = Sim.Prng.create 12 in
  let b = Sim.Prng.split a in
  checkb "split differs from parent" false
    (Sim.Prng.next_int64 a = Sim.Prng.next_int64 b)

let prng_copy_preserves () =
  let a = Sim.Prng.create 13 in
  let _ = Sim.Prng.next_int64 a in
  let b = Sim.Prng.copy a in
  check Alcotest.int64 "copies agree" (Sim.Prng.next_int64 a)
    (Sim.Prng.next_int64 b)

let prng_shuffle_permutation () =
  let rng = Sim.Prng.create 14 in
  let arr = Array.init 50 Fun.id in
  Sim.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

(* Draws pinned to the values a build with the boxed [int64] state
   printed, so a change of the state's representation cannot move a
   stream: raw draws of a seed and of a [split] child, [int] and
   [exponential] draws, and fingerprints around a [copy]. *)
let prng_pinned_draws () =
  let i64 = Alcotest.check Alcotest.int64 in
  let a = Sim.Prng.create 42 in
  List.iter
    (fun v -> i64 "create 42" v (Sim.Prng.next_int64 a))
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ];
  let p = Sim.Prng.create 42 in
  let c = Sim.Prng.split p in
  List.iter
    (fun v -> i64 "split child" v (Sim.Prng.next_int64 c))
    [ 6168158941143839527L; -3019913106490840865L ];
  i64 "parent after split" 2958219263312191191L (Sim.Prng.next_int64 p);
  let r = Sim.Prng.create 7 in
  List.iter
    (fun (bound, v) -> check Alcotest.int "int" v (Sim.Prng.int r bound))
    [ (1000, 963); (1000, 181); (17, 8) ];
  let e = Sim.Prng.create 11 in
  List.iter
    (fun (mean, v) ->
      checkb "exponential" true (Sim.Prng.exponential e ~mean = v))
    [ (3.0, 0x1.3707b09ca2f29p+3); (0.5, 0x1.545c462fd9b04p-2) ];
  let g = Sim.Prng.create 99 in
  ignore (Sim.Prng.next_int64 g);
  let before = Sim.Prng.fingerprint g in
  i64 "fingerprint" 1731026589238705310L before;
  let h = Sim.Prng.copy g in
  i64 "copy keeps the fingerprint" before (Sim.Prng.fingerprint h);
  for _ = 1 to 5 do
    ignore (Sim.Prng.next_int64 h)
  done;
  ignore (Sim.Prng.split h);
  let after = Sim.Prng.fingerprint h in
  i64 "fingerprint after six advances" (-3651660789660310244L) after;
  check Alcotest.int "draws_between" 6
    (Sim.Prng.draws_between ~before ~after);
  i64 "the original did not advance" before (Sim.Prng.fingerprint g)

(* The allocation-free draws must replay the generator's draw
   sequences: [lognormal_of_seed] against a fresh generator, and
   [exponential] against its defining formula. *)
let prng_lognormal_of_seed_equiv =
  QCheck.Test.make ~name:"Prng.lognormal_of_seed = lognormal . create"
    ~count:500
    QCheck.(triple int (float_bound_exclusive 2.0) (float_bound_exclusive 1.5))
    (fun (seed, mu, sigma) ->
      Sim.Prng.lognormal_of_seed seed ~mu ~sigma
      = Sim.Prng.lognormal (Sim.Prng.create seed) ~mu ~sigma)

let prng_exponential_is_neg_mean_log_u =
  QCheck.Test.make ~name:"Prng.exponential = -mean * log unit_float"
    ~count:500
    QCheck.(pair int (float_bound_exclusive 10.0))
    (fun (seed, m) ->
      let mean = m +. 0.01 in
      let a = Sim.Prng.create seed in
      let b = Sim.Prng.copy a in
      let u = Int64.to_float (Int64.shift_right_logical (Sim.Prng.next_int64 b) 11)
              *. (1.0 /. 9007199254740992.0) in
      u <= 1e-300 || Sim.Prng.exponential a ~mean = -.mean *. log u)

(* --- Ring --------------------------------------------------------------- *)

let ring_fifo_order () =
  let r = Sim.Ring.create ~capacity:4 () in
  for i = 0 to 99 do
    Sim.Ring.push r (float_of_int i) i
  done;
  check Alcotest.int "length" 100 (Sim.Ring.length r);
  for i = 0 to 99 do
    checkf "peek_f sees oldest" (float_of_int i) (Sim.Ring.peek_f r);
    check Alcotest.int "pop is FIFO" i (Sim.Ring.pop r)
  done;
  checkb "drained" true (Sim.Ring.is_empty r)

let ring_wraparound () =
  (* Interleave pushes and pops so the window straddles the backing
     array's wrap point, then check iteration and pops against the
     logical order. *)
  let r = Sim.Ring.create ~capacity:8 () in
  for i = 0 to 5 do Sim.Ring.push r (float_of_int i) i done;
  for _ = 0 to 3 do ignore (Sim.Ring.pop r) done;
  for i = 6 to 12 do Sim.Ring.push r (float_of_int i) i done;
  check Alcotest.int "length" 9 (Sim.Ring.length r);
  let seen = ref [] in
  Sim.Ring.iter r (fun f i -> seen := (f, i) :: !seen);
  checkb "iter is oldest-first, lanes together" true
    (List.rev !seen = List.init 9 (fun k -> (float_of_int (4 + k), 4 + k)));
  for k = 0 to 8 do
    checkf "peek_f in logical order" (float_of_int (4 + k)) (Sim.Ring.peek_f r);
    check Alcotest.int "pop in logical order" (4 + k) (Sim.Ring.pop r)
  done

let ring_detach () =
  let r = Sim.Ring.create () in
  for i = 0 to 9 do Sim.Ring.push r (float_of_int i) i done;
  let d = Sim.Ring.detach r in
  checkb "detach empties the source" true (Sim.Ring.is_empty r);
  check Alcotest.int "source keeps no capacity" 0 (Sim.Ring.capacity r);
  check Alcotest.int "detached holds the backlog" 10 (Sim.Ring.length d);
  check Alcotest.int "detached backlog in order" 0 (Sim.Ring.pop d);
  Sim.Ring.push r 99.0 99;
  check Alcotest.int "source usable after detach" 99 (Sim.Ring.pop r)

let ring_clear_shrinks () =
  let r = Sim.Ring.create ~capacity:4 () in
  for i = 0 to 999 do Sim.Ring.push r 0.0 i done;
  checkb "grew" true (Sim.Ring.capacity r >= 1000);
  Sim.Ring.clear r;
  checkb "cleared" true (Sim.Ring.is_empty r);
  check Alcotest.int "released its backing arrays" 0 (Sim.Ring.capacity r);
  Sim.Ring.push r 7.0 7;
  checkf "still usable: float lane" 7.0 (Sim.Ring.peek_f r);
  check Alcotest.int "still usable: int lane" 7 (Sim.Ring.pop r)

(* --- Window_hist -------------------------------------------------------- *)

let win_lo buckets = Array.init buckets (fun i -> 2.0 ** float_of_int i)

(* The coalesced window against a reference that keeps one entry per
   sample: random nondecreasing times with ties, random buckets, random
   prune horizons. After every step the per-bucket counts, the total
   and emptiness agree, and the window stores no more entries than the
   distinct (time, bucket) pairs among the samples it holds. An op is
   an add when [kind < 7]: the time steps by [max 0 (a - 1)] ticks, so
   half the adds tie; otherwise a prune at [now + 1 - b] ticks. *)
let window_hist_matches_per_sample =
  let buckets = 8 in
  QCheck.Test.make ~name:"Window_hist = per-sample window" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 300)
        (triple (int_range 0 9) (int_range 0 3) (int_range 0 7)))
    (fun ops ->
      let w = Sim.Window_hist.create ~bucket_lo:(win_lo buckets) in
      let samples = Queue.create () in
      let now = ref 0 in
      let agrees () =
        let counts = Array.make buckets 0 in
        Queue.iter (fun (_, b) -> counts.(b) <- counts.(b) + 1) samples;
        let pairs = Hashtbl.create 16 in
        Queue.iter (fun tb -> Hashtbl.replace pairs tb ()) samples;
        (Sim.Window_hist.histogram w).Sim.Stats.counts = counts
        && Sim.Window_hist.total w = Queue.length samples
        && Sim.Window_hist.is_empty w = Queue.is_empty samples
        && Sim.Window_hist.entries w <= Hashtbl.length pairs
      in
      List.for_all
        (fun (kind, a, b) ->
          if kind < 7 then begin
            now := !now + max 0 (a - 1);
            let t = float_of_int !now in
            Sim.Window_hist.add w t b;
            Queue.add (t, b) samples
          end
          else begin
            let horizon = float_of_int (!now + 1 - b) in
            Sim.Window_hist.prune w ~horizon;
            while
              (not (Queue.is_empty samples))
              && fst (Queue.peek samples) < horizon
            do
              ignore (Queue.pop samples)
            done
          end;
          agrees ())
        ops)

let window_hist_bounded () =
  let w = Sim.Window_hist.create ~bucket_lo:(win_lo 3) in
  for i = 0 to 9_999 do
    Sim.Window_hist.add w 1.0 (i mod 3)
  done;
  check Alcotest.int "one entry per (time, bucket)" 3
    (Sim.Window_hist.entries w);
  check Alcotest.int "every sample counted" 10_000 (Sim.Window_hist.total w);
  check Alcotest.(array int) "per-bucket counts" [| 3334; 3333; 3333 |]
    (Sim.Window_hist.histogram w).Sim.Stats.counts;
  (* Slide a 10-tick window over 200 ticks of 50 samples each, spread
     over 5 of 8 buckets: the entries track the distinct pairs still
     in the window, not the samples. *)
  let w = Sim.Window_hist.create ~bucket_lo:(win_lo 8) in
  for tick = 0 to 199 do
    let t = float_of_int tick in
    for i = 0 to 49 do
      Sim.Window_hist.add w t (i * 7 mod 5)
    done;
    Sim.Window_hist.prune w ~horizon:(t -. 9.0);
    let ticks = min (tick + 1) 10 in
    check Alcotest.int "entries = distinct pairs in the window" (5 * ticks)
      (Sim.Window_hist.entries w);
    check Alcotest.int "samples in the window" (50 * ticks)
      (Sim.Window_hist.total w)
  done;
  Sim.Window_hist.prune w ~horizon:1000.0;
  checkb "pruned empty" true (Sim.Window_hist.is_empty w);
  check Alcotest.int "no entries left" 0 (Sim.Window_hist.entries w);
  let late =
    Invalid_argument "Window_hist.add: time NaN or before the newest sample"
  in
  Alcotest.check_raises "NaN time" late (fun () -> Sim.Window_hist.add w nan 0);
  Alcotest.check_raises "time before the newest sample" late (fun () ->
      Sim.Window_hist.add w 5.0 0;
      Sim.Window_hist.add w 4.0 0);
  Alcotest.check_raises "bucket out of range"
    (Invalid_argument "Window_hist.add: bucket out of range")
    (fun () -> Sim.Window_hist.add w 5.0 8)

(* --- Stats ------------------------------------------------------------- *)

let stats_summary_basic () =
  let s = Sim.Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "mean" 3.0 s.Sim.Stats.mean;
  checkf "median" 3.0 s.Sim.Stats.median;
  checkf "min" 1.0 s.Sim.Stats.min;
  checkf "max" 5.0 s.Sim.Stats.max;
  check Alcotest.int "n" 5 s.Sim.Stats.n

let stats_stddev () =
  checkf "stddev of constant" 0.0 (Sim.Stats.stddev [ 2.0; 2.0; 2.0 ]);
  let sd = Sim.Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkb "sample stddev" true (Float.abs (sd -. sqrt 2.5) < 1e-9)

let stats_empty_raises () =
  Alcotest.check_raises "empty summarize"
    (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Sim.Stats.summarize []))

let stats_quantile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  checkf "q0" 0.0 (Sim.Stats.quantile sorted 0.0);
  checkf "q0.5" 5.0 (Sim.Stats.quantile sorted 0.5);
  checkf "q1" 10.0 (Sim.Stats.quantile sorted 1.0)

let stats_boxplot_order () =
  let b = Sim.Stats.boxplot [ 9.0; 1.0; 5.0; 3.0; 7.0 ] in
  checkb "ordered" true
    (b.Sim.Stats.bmin <= b.q1 && b.q1 <= b.bmedian && b.bmedian <= b.q3
   && b.q3 <= b.bmax);
  checkf "min" 1.0 b.Sim.Stats.bmin;
  checkf "max" 9.0 b.Sim.Stats.bmax

let stats_log_histogram () =
  let h =
    Sim.Stats.log_histogram ~base:10.0 ~buckets:5 [ 0.5; 5.0; 50.0; 5e9 ]
  in
  check Alcotest.int "bucket0 gets sub-1 and 5" 2 h.Sim.Stats.counts.(0);
  check Alcotest.int "bucket1 gets 50" 1 h.Sim.Stats.counts.(1);
  check Alcotest.int "overflow clamps to last" 1 h.Sim.Stats.counts.(4)

let stats_geometric_mean () =
  checkf "gm of 1,100" 10.0 (Sim.Stats.geometric_mean [ 1.0; 100.0 ])

(* --- Engine ------------------------------------------------------------ *)

let engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  Sim.Engine.schedule e ~at:3.0 (fun () -> order := 3 :: !order);
  Sim.Engine.schedule e ~at:1.0 (fun () -> order := 1 :: !order);
  Sim.Engine.schedule e ~at:2.0 (fun () -> order := 2 :: !order);
  Sim.Engine.run e;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !order);
  checkf "clock at last event" 3.0 (Sim.Engine.now e)

let engine_fifo_at_equal_times () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~at:1.0 (fun () -> order := i :: !order)
  done;
  Sim.Engine.run e;
  check Alcotest.(list int) "insertion order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let engine_schedule_during_run () =
  let e = Sim.Engine.create () in
  let hits = ref [] in
  Sim.Engine.schedule e ~at:1.0 (fun () ->
      hits := "a" :: !hits;
      Sim.Engine.schedule_in e ~after:0.5 (fun () -> hits := "b" :: !hits));
  Sim.Engine.run e;
  check Alcotest.(list string) "chained" [ "a"; "b" ] (List.rev !hits);
  checkf "clock" 1.5 (Sim.Engine.now e)

let engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:2.0 (fun () -> ());
  Sim.Engine.run e;
  checkb "raises on past" true
    (try
       Sim.Engine.schedule e ~at:1.0 (fun () -> ());
       false
     with Invalid_argument _ -> true)

let engine_run_until () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.schedule e ~at:1.0 (fun () -> incr hits);
  Sim.Engine.schedule e ~at:5.0 (fun () -> incr hits);
  Sim.Engine.run_until e 2.0;
  check Alcotest.int "only first fired" 1 !hits;
  checkf "clock advanced to limit" 2.0 (Sim.Engine.now e);
  check Alcotest.int "one pending" 1 (Sim.Engine.pending e)

let engine_many_events_stress () =
  let e = Sim.Engine.create () in
  let rng = Sim.Prng.create 99 in
  let count = ref 0 in
  let last = ref (-1.0) in
  for _ = 1 to 5000 do
    let at = Sim.Prng.float rng 100.0 in
    Sim.Engine.schedule e ~at (fun () ->
        checkb "monotone clock" true (Sim.Engine.now e >= !last);
        last := Sim.Engine.now e;
        incr count)
  done;
  Sim.Engine.run e;
  check Alcotest.int "all fired" 5000 !count

(* --- Trace resampling (Stats.resample) ---------------------------------- *)

let trace_resample () =
  let samples = [ (0.0, 1.0); (1.0, 5.0) ] in
  let arr = Sim.Stats.resample samples ~dt:0.5 ~t_end:2.0 in
  check
    Alcotest.(array (float 1e-9))
    "step signal" [| 1.0; 1.0; 5.0; 5.0 |] arr

let farr = Alcotest.(array (float 1e-9))

let trace_resample_edges () =
  check farr "empty series is all zeros" [| 0.0; 0.0; 0.0; 0.0 |]
    (Sim.Stats.resample [] ~dt:0.5 ~t_end:2.0);
  check farr "zero before a late single sample" [| 0.0; 3.0; 3.0 |]
    (Sim.Stats.resample [ (0.5, 3.0) ] ~dt:0.5 ~t_end:1.5);
  check farr "dt larger than the window collapses to one bin" [| 2.0 |]
    (Sim.Stats.resample [ (0.0, 2.0) ] ~dt:5.0 ~t_end:2.0);
  check farr "empty window yields an empty array" [||]
    (Sim.Stats.resample [ (0.0, 2.0) ] ~dt:0.5 ~t_end:0.0)

(* NaN poisons every order-statistic; the stats layer rejects it loudly
   instead of letting Float.compare sort it to an end of the array. *)
let stats_nan_raises () =
  Alcotest.check_raises "summarize" (Invalid_argument "Stats: NaN input")
    (fun () -> ignore (Sim.Stats.summarize [ 1.0; Float.nan; 2.0 ]));
  Alcotest.check_raises "boxplot" (Invalid_argument "Stats: NaN input")
    (fun () -> ignore (Sim.Stats.boxplot [ Float.nan ]));
  Alcotest.check_raises "quantile (caller-sorted array)"
    (Invalid_argument "Stats.quantile: NaN input") (fun () ->
      ignore (Sim.Stats.quantile [| Float.nan; 1.0 |] 0.5))

let stats_sorts_with_float_compare () =
  (* values polymorphic compare used to box per comparison; the order
     itself must be plain numeric order *)
  let s = Sim.Stats.summarize [ 2.0; -1.0; 0.5; -0.0; 1e300; -1e300 ] in
  checkf "min" (-1e300) s.Sim.Stats.min;
  checkf "max" 1e300 s.Sim.Stats.max;
  checkf "median" 0.25 s.Sim.Stats.median

let stats_log_histogram_rejects () =
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Stats.log_histogram: negative or NaN input -1")
    (fun () ->
      ignore (Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ 2.0; -1.0 ]));
  Alcotest.check_raises "NaN sample"
    (Invalid_argument "Stats.log_histogram: negative or NaN input nan")
    (fun () ->
      ignore (Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ Float.nan ]));
  (* zero is fine: it lands in the first bucket *)
  let h = Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ 0.0; 0.5; 50.0 ] in
  checkb "sub-1 samples in bucket 0" true
    (h.Sim.Stats.counts.(0) = 2 && h.Sim.Stats.counts.(1) = 1)

let percentile_edge_cases () =
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Stats.percentile: empty histogram") (fun () ->
      ignore
        (Sim.Stats.percentile
           (Sim.Stats.log_histogram ~base:10.0 ~buckets:4 []) 0.5));
  let h = Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ 5.0 ] in
  Alcotest.check_raises "q above 1"
    (Invalid_argument "Stats.percentile: q=1.5 outside [0,1]") (fun () ->
      ignore (Sim.Stats.percentile h 1.5));
  Alcotest.check_raises "negative q"
    (Invalid_argument "Stats.percentile: q=-0.1 outside [0,1]") (fun () ->
      ignore (Sim.Stats.percentile h (-0.1)));
  Alcotest.check_raises "NaN q"
    (Invalid_argument "Stats.percentile: q=nan outside [0,1]") (fun () ->
      ignore (Sim.Stats.percentile h Float.nan));
  (* Single sample of 5: bucket 0 spans [0, base) = [0, 10), so every
     quantile interpolates inside [0, 10] (q=1 resolves to the upper
     edge). *)
  List.iter
    (fun q ->
      let v = Sim.Stats.percentile h q in
      checkb
        (Printf.sprintf "single sample: p%g inside its bucket" (q *. 100.0))
        true
        (v >= 0.0 && v <= 10.0))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* Exact bucket boundary: a point mass at base^2 = 100 lands in
     [100, 1000) — the inclusive lower edge — never in bucket 1, and
     p0 resolves to exactly the boundary. *)
  let hb = Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ 100.0; 100.0 ] in
  checkf "boundary mass: p0 at the inclusive edge" 100.0
    (Sim.Stats.percentile hb 0.0);
  List.iter
    (fun q ->
      let v = Sim.Stats.percentile hb q in
      checkb
        (Printf.sprintf "boundary mass: p%g in [100, 1000]" (q *. 100.0))
        true
        (v >= 100.0 && v <= 1000.0))
    [ 0.0; 0.5; 1.0 ];
  (* Bucket 0 spans [0, base) despite its recorded lower edge of 1:
     sub-unit samples must resolve below base, starting at 0. *)
  let h0 = Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ 0.0; 0.25; 0.5 ] in
  checkb "sub-unit mass: p0 at the true lower edge 0" true
    (Sim.Stats.percentile h0 0.0 = 0.0);
  checkb "sub-unit mass: p100 below base" true
    (Sim.Stats.percentile h0 1.0 <= 10.0);
  (* Interpolation is exact on a uniform two-bucket split. *)
  let h2 = Sim.Stats.log_histogram ~base:10.0 ~buckets:4 [ 5.0; 50.0 ] in
  checkf "two-sample median at the shared edge" 10.0
    (Sim.Stats.percentile h2 0.5)

let suite =
  [
    ("prng deterministic", `Quick, prng_deterministic);
    ("prng different seeds", `Quick, prng_different_seeds);
    ("prng int range", `Quick, prng_int_range);
    ("prng int_in range", `Quick, prng_int_in_range);
    ("prng float range", `Quick, prng_float_range);
    ("prng gaussian moments", `Quick, prng_gaussian_moments);
    ("prng exponential mean", `Quick, prng_exponential_mean);
    ("prng split independent", `Quick, prng_split_independent);
    ("prng copy preserves", `Quick, prng_copy_preserves);
    ("prng shuffle is a permutation", `Quick, prng_shuffle_permutation);
    QCheck_alcotest.to_alcotest prng_lognormal_of_seed_equiv;
    QCheck_alcotest.to_alcotest prng_exponential_is_neg_mean_log_u;
    ("ring FIFO order", `Quick, ring_fifo_order);
    ("ring wraparound reads", `Quick, ring_wraparound);
    ("ring detach", `Quick, ring_detach);
    ("ring clear shrinks", `Quick, ring_clear_shrinks);
    QCheck_alcotest.to_alcotest window_hist_matches_per_sample;
    ("window hist: one entry per (time, bucket)", `Quick, window_hist_bounded);
    ("stats summary basics", `Quick, stats_summary_basic);
    ("stats stddev", `Quick, stats_stddev);
    ("stats empty raises", `Quick, stats_empty_raises);
    ("stats quantile interpolation", `Quick, stats_quantile_interpolation);
    ("stats boxplot ordering", `Quick, stats_boxplot_order);
    ("stats log histogram", `Quick, stats_log_histogram);
    ("stats geometric mean", `Quick, stats_geometric_mean);
    ("engine time order", `Quick, engine_runs_in_time_order);
    ("engine FIFO ties", `Quick, engine_fifo_at_equal_times);
    ("engine schedule during run", `Quick, engine_schedule_during_run);
    ("engine rejects past", `Quick, engine_rejects_past);
    ("engine run_until", `Quick, engine_run_until);
    ("engine 5000-event stress", `Quick, engine_many_events_stress);
    ("trace resample", `Quick, trace_resample);
    ("trace resample edge cases", `Quick, trace_resample_edges);
    ("stats rejects NaN", `Quick, stats_nan_raises);
    ("stats numeric sort order", `Quick, stats_sorts_with_float_compare);
    ("log histogram rejects negatives", `Quick, stats_log_histogram_rejects);
    ("percentile edge cases", `Quick, percentile_edge_cases);
    ("prng draws pinned", `Quick, prng_pinned_draws);
  ]
