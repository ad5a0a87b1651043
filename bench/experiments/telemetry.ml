(* Observability telemetry: the canonical traced scenario and its
   reconciliation proofs.

   One degraded sustained run — the fig-12 job mix under a 5% message
   drop/delay plan with the ARM node crashing mid-run — executes with a
   collecting [Obs] sink. Shape checks then pin down the two guarantees
   the observability layer makes:

   - zero cost off: the observed run's scheduler result is *equal* to an
     unobserved run of the same scenario (instrumentation reads state, it
     never changes it);
   - exact reconciliation: folding the durations of the "migrate" and
     "drain" spans reproduces the ensemble's [migration_downtime_s] and
     [drain_time_s] aggregates bit-for-bit — the spans record the very
     floats the aggregates accumulated, in the same order.

   Both exporters are also checked byte-stable across repeat runs; the
   CLI ([hetmig metrics]) reuses [observed_run] so its dump describes
   this exact scenario. *)

let jobs_per_set = 40
let seed = 1000
let crash_time = 20.0
let policy = Sched.Policy.Dynamic_balanced

let plan =
  Faults.Plan.make ~seed:42
    ~messages:
      [ { Faults.Plan.kind = "*"; drop = 0.05; delay = 0.05; delay_s = 200e-6 } ]
    ~crashes:[ { Faults.Plan.at = crash_time; node = 1 } ]
    ~retry_budget:3 ()

let run_with obs =
  Sched.Scheduler.run ~faults:plan ~obs policy
    (Sched.Arrival.sustained ~seed ~jobs:jobs_per_set)

let observed_run () =
  let obs = Obs.create () in
  let r = run_with obs in
  (obs, r)

let sum_durs spans =
  List.fold_left (fun acc (s : Obs.span_view) -> acc +. s.Obs.v_dur) 0.0 spans

let run ppf =
  Shape.section ppf
    "Telemetry: traced degraded run, span/aggregate reconciliation";
  let obs, r = observed_run () in
  let migrate = Obs.spans ~cat:"migration" ~name:"migrate" obs in
  let drains = Obs.spans ~cat:"migration" ~name:"drain" obs in
  Format.fprintf ppf "  %a@." Sched.Scheduler.pp_result r;
  Format.fprintf ppf
    "  events=%d  migrate spans=%d  drain spans=%d  downtime=%.4fs \
     drain=%.4fs@."
    (Obs.event_count obs) (List.length migrate) (List.length drains)
    r.Sched.Scheduler.downtime_s r.Sched.Scheduler.drain_time_s;
  Shape.check ppf "observed run equals the unobserved run (zero-cost off)"
    (r = run_with Obs.noop);
  Shape.check ppf
    "migrate span durations fold to migration_downtime_s exactly"
    (sum_durs migrate = r.Sched.Scheduler.downtime_s);
  Shape.check ppf "drain span durations fold to drain_time_s exactly"
    (sum_durs drains = r.Sched.Scheduler.drain_time_s);
  Shape.check ppf "one migrate span per restarted or aborted migration"
    (List.length migrate
    = r.Sched.Scheduler.migrations + r.Sched.Scheduler.migration_aborts);
  Shape.check ppf "faults visible: the crash retried or failed jobs"
    (r.Sched.Scheduler.retried > 0 || r.Sched.Scheduler.failed > 0);
  let obs2, r2 = observed_run () in
  Shape.check ppf "repeat run: same result, byte-identical exporters"
    (r2 = r
    && Obs.chrome_json obs2 = Obs.chrome_json obs
    && Obs.metrics_json obs2 = Obs.metrics_json obs);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  Shape.check ppf "trace is Chrome trace-event shaped"
    (let j = Obs.chrome_json obs in
     String.length j > 2
     && j.[0] = '{'
     && contains j "\"traceEvents\":["
     && contains j "\"ph\":\"M\""
     && contains j "\"ph\":\"X\""
     && contains j "\"name\":\"process_name\"")
