(* Serving throughput at scale (non-paper): the PR-8 acceptance bench.

   Two questions, answered with wall-clock and GC evidence:

   1. Does one process push over a million requests end to end through
      the streamed, allocation-light serving path, conserving every
      request? The run is timed once and its requests per second of
      host time printed; host cost is perfbench's to gate, not this
      harness's.

   2. Is the streamed path's allocation independent of trace length?
      A 64x longer run may allocate at most 1.5x the words per request
      of the short one (flatness), and under 1000. The top-of-heap
      watermark is checked after the million-request run: under
      32 MB, far below the heap a materialized trace of that length
      needs (near 500 MB), and about 14x the streamed run's own 2.3 MB,
      so a serve-path heap regression of that order fails it. It is
      the process's watermark, so the bench
      runs this experiment first, and a check that the watermark is
      under 8 MB before the run makes sure the figure is the run's own
      and not the experiments' before it. No check compares the
      watermark across trace lengths.

   The scenario is a high-rate MMPP burst mix sized so one run serves
   over a million requests (the committed ">= 1M requests, one
   process, flat memory" acceptance scenario): 32 services at 400/2
   req/s on/off over 340 s across 32 nodes, light uniform per-request
   demand (2e6 instructions, sigma 0) so the servers keep up and the
   bench measures the serving machinery — not queueing collapse, and
   not the lognormal demand sampler. *)

let big_source =
  Sched.Arrival.bursty_source ~rate_high:400.0 ~rate_low:2.0 ~seed:42
    ~services:32 ~duration_s:340.0 ()

let big_cfg =
  {
    (Sched.Service.default ~nodes:32 ~seed:42 ~source:big_source) with
    Sched.Service.policy = Sched.Service.Static_x86;
    demand_instructions = 2e6;
    demand_sigma = 0.0;
  }

(* --- GC-flatness probe ------------------------------------------------- *)

(* [Gc.quick_stat] counts minor words only up to the last minor
   collection, so a run that leaves part of a minor heap unswept would
   read up to a minor heap (256k words) short; the full major after the
   run sweeps it, and the figure is every word the run allocated. *)
let words_per_request cfg limit =
  let cfg = { cfg with Sched.Service.limit = limit } in
  Gc.full_major ();
  let before = Gc.quick_stat () in
  let r = Sched.Service.run ~domains:1 cfg in
  Gc.full_major ();
  let after = Gc.quick_stat () in
  let words =
    after.Gc.minor_words +. after.Gc.major_words -. after.Gc.promoted_words
    -. (before.Gc.minor_words +. before.Gc.major_words
       -. before.Gc.promoted_words)
  in
  (r, words /. float_of_int (max 1 r.Sched.Service.arrived))

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6

let run ppf =
  Shape.section ppf "Serving throughput: the streamed path at scale (non-paper)";
  let before_top_mb = top_heap_mb () in
  Shape.check ppf "heap watermark before the run is under 8 MB (the run's own)"
    (before_top_mb < 8.0);
  (* The streamed acceptance run: >= 1M requests in one process. It
     runs on a single domain, so process CPU time is the honest clock
     (and immune to host scheduling noise). *)
  let t0 = Sys.time () in
  let big = Sched.Service.run ~domains:1 big_cfg in
  let streamed_s = Sys.time () -. t0 in
  let streamed_top_mb = top_heap_mb () in
  Format.fprintf ppf "  streamed    %8d requests, p99 %.2fms@."
    big.Sched.Service.arrived big.Sched.Service.p99_ms;
  Format.fprintf ppf "  (%d requests in %.2fs of host time, %.0f req/s host time)@."
    big.Sched.Service.arrived streamed_s
    (float_of_int big.Sched.Service.arrived /. streamed_s);
  Shape.check ppf "acceptance scenario serves >= 1,000,000 requests"
    (big.Sched.Service.arrived >= 1_000_000);
  Shape.check ppf "acceptance scenario conserves every request"
    (big.Sched.Service.responded + big.Sched.Service.dropped
     + big.Sched.Service.in_flight_at_end
    = big.Sched.Service.arrived);
  Format.fprintf ppf
    "  (top-of-heap %.1f MB after the million-request run, %.1f MB before)@."
    streamed_top_mb before_top_mb;
  Shape.check ppf "million-request run peaks under 32 MB of heap"
    (streamed_top_mb < 32.0);
  (* Allocation flatness: words allocated per request must not grow
     with trace length (64x more requests, at most 1.5x the words per
     request) and must stay small. The heap watermark is checked only
     above, before and after the million-request run. *)
  let short, w_short = words_per_request big_cfg 16_000 in
  let long, w_long = words_per_request big_cfg 1_024_000 in
  Format.fprintf ppf
    "  allocation  %.0f words/request at %d requests, %.0f at %d@." w_short
    short.Sched.Service.arrived w_long long.Sched.Service.arrived;
  Shape.check ppf "per-request allocation flat in trace length (<= 1.5x)"
    (w_long <= 1.5 *. Float.max w_short 1.0);
  Shape.check ppf "per-request allocation is small (< 1000 words)"
    (w_long < 1000.0)
