let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let checks msg = Alcotest.check Alcotest.string msg
let checkf msg = Alcotest.check (Alcotest.float 0.0) msg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* --- events and spans --------------------------------------------------- *)

let span_api () =
  let t = Obs.create () in
  checkb "enabled" true (Obs.enabled t);
  Obs.complete t ~ts:1.0 ~dur:0.5 ~pid:0 ~tid:100 ~cat:"phase" ~name:"compute"
    ();
  Obs.instant t ~ts:1.5 ~pid:0 ~tid:100 ~cat:"job" ~name:"job_start" ();
  let s = Obs.begin_span t ~ts:2.0 ~pid:1 ~tid:101 ~cat:"migration" ~name:"m" () in
  Obs.end_span t s ~ts:2.25 ();
  checki "three events" 3 (Obs.event_count t);
  let all = Obs.spans t in
  checki "two complete spans" 2 (List.length all);
  let m = Obs.spans ~cat:"migration" t in
  checki "filter by cat" 1 (List.length m);
  let v = List.hd m in
  checkf "span duration" 0.25 v.Obs.v_dur;
  checki "span pid" 1 v.Obs.v_pid;
  checks "span name" "m" v.Obs.v_name;
  checki "name filter" 1 (List.length (Obs.spans ~name:"compute" t))

let counter_series_reads_back () =
  let t = Obs.create () in
  let sample ts pid name args = Obs.counter_sample t ~ts ~pid ~name ~args in
  sample 2.0 0 "w" [ ("value", Obs.F 5.5) ];
  sample 1.0 0 "w" [ ("value", Obs.I 3) ];
  sample 1.5 1 "w" [ ("value", Obs.F 9.0) ];
  sample 1.5 0 "load" [ ("value", Obs.F 50.0) ];
  sample 3.0 0 "w" [ ("other", Obs.F 7.0) ];
  sample 4.0 0 "w" [ ("value", Obs.S "x") ];
  sample 5.0 0 "w" [ ("other", Obs.F 1.0); ("value", Obs.F 6.0) ];
  Obs.instant t ~ts:6.0 ~pid:0 ~tid:0 ~cat:"c" ~name:"w"
    ~args:[ ("value", Obs.F 8.0) ] ();
  let series pid name arg = Obs.counter_series t ~pid ~name ~arg in
  let pairs = Alcotest.(list (pair (float 0.0) (float 0.0))) in
  Alcotest.check pairs "recording order, ints as floats, gaps skipped"
    [ (2.0, 5.5); (1.0, 3.0); (5.0, 6.0) ]
    (series 0 "w" "value");
  Alcotest.check pairs "other pid" [ (1.5, 9.0) ] (series 1 "w" "value");
  Alcotest.check pairs "other name" [ (1.5, 50.0) ] (series 0 "load" "value");
  Alcotest.check pairs "other arg" [ (3.0, 7.0); (5.0, 1.0) ]
    (series 0 "w" "other");
  Alcotest.check pairs "unknown track" [] (series 2 "w" "value");
  Obs.counter_sample Obs.noop ~ts:0.0 ~pid:0 ~name:"w"
    ~args:[ ("value", Obs.F 1.0) ];
  Alcotest.check pairs "noop" []
    (Obs.counter_series Obs.noop ~pid:0 ~name:"w" ~arg:"value")

let spans_in_recording_order () =
  let t = Obs.create () in
  List.iter
    (fun (ts, dur) ->
      Obs.complete t ~ts ~dur ~pid:0 ~tid:0 ~cat:"c" ~name:"n" ())
    [ (3.0, 0.1); (1.0, 0.2); (2.0, 0.3) ];
  checkb "recording order, not time order" true
    (List.map (fun v -> v.Obs.v_dur) (Obs.spans t) = [ 0.1; 0.2; 0.3 ])

(* --- metrics ------------------------------------------------------------ *)

let metrics_api () =
  let t = Obs.create () in
  Obs.incr t "jobs";
  Obs.incr ~by:4 t "jobs";
  Obs.gauge t "load" 0.5;
  Obs.gauge t "load" 0.75;
  Obs.observe t "lat_us" 10.0;
  Obs.observe t "lat_us" 1000.0;
  checkb "counter" true (Obs.counter_value t "jobs" = Some 5);
  checkb "gauge holds last" true (Obs.gauge_value t "load" = Some 0.75);
  checkb "histogram samples in order" true
    (Obs.histogram_samples t "lat_us" = Some [ 10.0; 1000.0 ]);
  checkb "missing metric" true (Obs.counter_value t "nope" = None)

let metric_kind_conflict () =
  let t = Obs.create () in
  Obs.incr t "x";
  Alcotest.check_raises "counter as gauge"
    (Invalid_argument "Obs: metric \"x\" is a counter, not a gauge") (fun () ->
      Obs.gauge t "x" 1.0);
  Alcotest.check_raises "counter as histogram"
    (Invalid_argument "Obs: metric \"x\" is a counter, not a histogram")
    (fun () -> Obs.observe t "x" 1.0)

(* --- the no-op sink ----------------------------------------------------- *)

let noop_records_nothing () =
  let t = Obs.noop in
  checkb "disabled" false (Obs.enabled t);
  Obs.complete t ~ts:0.0 ~dur:1.0 ~pid:0 ~tid:0 ~cat:"c" ~name:"n" ();
  Obs.incr t "c";
  Obs.gauge t "g" 1.0;
  Obs.observe t "h" 1.0;
  let s = Obs.begin_span t ~ts:0.0 ~pid:0 ~tid:0 ~cat:"c" ~name:"n" () in
  Obs.end_span t s ~ts:1.0 ();
  checki "no events" 0 (Obs.event_count t);
  checkb "no spans" true (Obs.spans t = []);
  checkb "no metrics" true (Obs.counter_value t "c" = None);
  checks "empty trace" "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
    (Obs.chrome_json t);
  checks "empty metrics"
    "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n" (Obs.metrics_json t);
  checks "empty text" "" (Obs.metrics_text t)

(* --- exporters ---------------------------------------------------------- *)

let fill t =
  Obs.process_name t ~pid:0 "node0";
  Obs.thread_name t ~pid:0 ~tid:100 "is.A/t100";
  Obs.complete t ~ts:1e-3 ~dur:5e-4 ~pid:0 ~tid:100 ~cat:"phase"
    ~name:"compute"
    ~args:[ ("instructions", Obs.F 1e8); ("n", Obs.I 3); ("s", Obs.S "x") ]
    ();
  Obs.instant t ~ts:2e-3 ~pid:1001 ~tid:0 ~cat:"job" ~name:"job_submit"
    ~args:[ ("jid", Obs.I 7) ]
    ();
  Obs.counter_sample t ~ts:3e-3 ~pid:1001 ~name:"node_load"
    ~args:[ ("node0", Obs.I 2); ("node1", Obs.I 1) ];
  Obs.incr t "b.counter";
  Obs.incr t "a.counter";
  Obs.gauge t "z.gauge" 1.5;
  Obs.observe t "m.hist" 123.0

let chrome_export_shape () =
  let t = Obs.create () in
  fill t;
  let j = Obs.chrome_json t in
  List.iter
    (fun needle -> checkb needle true (contains j needle))
    [
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"node0\"}}";
      "{\"ph\":\"M\",\"pid\":0,\"tid\":100,\"name\":\"thread_name\",\"args\":{\"name\":\"is.A/t100\"}}";
      (* ts/dur in microseconds: 1e-3 s -> 1000.000 us *)
      "{\"ph\":\"X\",\"ts\":1000.000,\"dur\":500.000,\"pid\":0,\"tid\":100,\"cat\":\"phase\",\"name\":\"compute\"";
      "\"args\":{\"instructions\":1e+08,\"n\":3,\"s\":\"x\"}";
      "{\"ph\":\"i\",\"ts\":2000.000,\"s\":\"t\",\"pid\":1001,\"tid\":0,\"cat\":\"job\",\"name\":\"job_submit\",\"args\":{\"jid\":7}}";
      "{\"ph\":\"C\",\"ts\":3000.000,\"pid\":1001,\"tid\":0,\"name\":\"node_load\",\"args\":{\"node0\":2,\"node1\":1}}";
    ]

let exporters_byte_stable () =
  let a = Obs.create () and b = Obs.create () in
  fill a;
  fill b;
  checks "chrome_json" (Obs.chrome_json a) (Obs.chrome_json b);
  checks "metrics_json" (Obs.metrics_json a) (Obs.metrics_json b);
  checks "metrics_text" (Obs.metrics_text a) (Obs.metrics_text b);
  (* sorted sections regardless of registration order *)
  let mj = Obs.metrics_json a in
  checkb "counters sorted" true
    (contains mj "\"a.counter\": 1,\n    \"b.counter\": 1");
  checkb "histogram rendered" true
    (contains mj "\"m.hist\": {\"n\": 1, \"base\": 10, \"counts\": ")

(* --- zero-cost off switch over a real run -------------------------------- *)

let plan =
  Faults.Plan.make ~seed:5
    ~messages:
      [ { Faults.Plan.kind = "*"; drop = 0.3; delay = 0.3; delay_s = 200e-6 } ]
    ~retry_budget:2 ()

let run_scenario obs =
  Sched.Scheduler.run ~faults:plan ~obs Sched.Policy.Dynamic_balanced
    (Sched.Arrival.sustained ~seed:11 ~jobs:8)

let observed_equals_unobserved () =
  let obs = Obs.create () in
  let r_obs = run_scenario obs in
  let r_plain = run_scenario Obs.noop in
  checkb "same result record" true (r_obs = r_plain);
  checkb "something was recorded" true (Obs.event_count obs > 0)

(* --- reconciliation: spans replay the aggregates exactly ------------------ *)

let sum_durs spans =
  List.fold_left (fun acc (s : Obs.span_view) -> acc +. s.Obs.v_dur) 0.0 spans

let reconciliation_prop =
  QCheck.Test.make
    ~name:"migration/drain span durations fold to the aggregates exactly"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let policy =
        if seed mod 2 = 0 then Sched.Policy.Dynamic_balanced
        else Sched.Policy.Dynamic_unbalanced
      in
      let rate = [| 0.0; 0.2; 0.6 |].(seed mod 3) in
      let faults =
        if rate = 0.0 then None
        else
          Some
            (Faults.Plan.make ~seed
               ~messages:
                 [ { Faults.Plan.kind = "*"; drop = rate; delay = rate;
                     delay_s = 200e-6 } ]
               ~retry_budget:2 ())
      in
      let obs = Obs.create () in
      let r =
        Sched.Scheduler.run ?faults ~obs policy
          (Sched.Arrival.sustained ~seed ~jobs:6)
      in
      let migrate = Obs.spans ~cat:"migration" ~name:"migrate" obs in
      let drains = Obs.spans ~cat:"migration" ~name:"drain" obs in
      (* exact float equality: the spans record the very additions the
         aggregates accumulated, in the same order *)
      sum_durs migrate = r.Sched.Scheduler.downtime_s
      && sum_durs drains = r.Sched.Scheduler.drain_time_s
      && List.length migrate
         = r.Sched.Scheduler.migrations + r.Sched.Scheduler.migration_aborts)

let suite =
  [
    ("span API", `Quick, span_api);
    ("spans keep recording order", `Quick, spans_in_recording_order);
    ("counter series read back", `Quick, counter_series_reads_back);
    ("metrics API", `Quick, metrics_api);
    ("metric kind conflicts raise", `Quick, metric_kind_conflict);
    ("noop sink records nothing", `Quick, noop_records_nothing);
    ("chrome export shape", `Quick, chrome_export_shape);
    ("exporters byte-stable", `Quick, exporters_byte_stable);
    ("observed run equals unobserved run", `Slow, observed_equals_unobserved);
    QCheck_alcotest.to_alcotest reconciliation_prop;
  ]
