let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let arrival_sustained_shape () =
  let jobs = Sched.Arrival.sustained ~seed:3 ~jobs:40 in
  checki "40 jobs" 40 (List.length jobs);
  List.iter
    (fun (j : Sched.Job.t) ->
      checkb "arrive at t=0" true (j.Sched.Job.arrival = 0.0);
      checkb "1-4 threads" true (j.Sched.Job.threads >= 1 && j.Sched.Job.threads <= 4))
    jobs

let arrival_periodic_shape () =
  let jobs = Sched.Arrival.periodic ~seed:4 ~waves:5 ~max_per_wave:14 in
  checkb "jobs exist" true (List.length jobs > 0);
  checkb "at most 70" true (List.length jobs <= 70);
  let times = List.sort_uniq compare (List.map (fun j -> j.Sched.Job.arrival) jobs) in
  checki "five distinct wave times" 5 (List.length times);
  (* Wave spacing within 60..240 s. *)
  let rec gaps = function
    | a :: (b :: _ as rest) ->
      checkb "spacing in range" true (b -. a >= 60.0 && b -. a <= 240.0);
      gaps rest
    | _ -> ()
  in
  gaps times

let arrival_deterministic () =
  let a = Sched.Arrival.sustained ~seed:5 ~jobs:10 in
  let b = Sched.Arrival.sustained ~seed:5 ~jobs:10 in
  checkb "same sets" true
    (List.for_all2
       (fun (x : Sched.Job.t) (y : Sched.Job.t) ->
         x.Sched.Job.spec.Workload.Spec.name = y.Sched.Job.spec.Workload.Spec.name
         && x.Sched.Job.threads = y.Sched.Job.threads)
       a b)

let policy_machines () =
  List.iter
    (fun p ->
      let ms = Sched.Policy.machines p in
      checki "two machines" 2 (List.length ms))
    Sched.Policy.all;
  let het = Sched.Policy.machines Sched.Policy.Dynamic_balanced in
  checkb "heterogeneous pair" true
    (List.exists (fun m -> m.Machine.Server.arch = Isa.Arch.Arm64) het);
  let pair = Sched.Policy.machines Sched.Policy.Static_x86_pair in
  checkb "homogeneous pair" true
    (List.for_all (fun m -> m.Machine.Server.arch = Isa.Arch.X86_64) pair)

let policy_finfet_projection_applied () =
  let het = Sched.Policy.machines Sched.Policy.Dynamic_balanced in
  let arm = List.find (fun m -> m.Machine.Server.arch = Isa.Arch.Arm64) het in
  checkb "projected power" true
    (arm.Machine.Server.power.Machine.Power.cpu_max_w
    < Machine.Server.xgene1.Machine.Server.power.Machine.Power.cpu_max_w /. 5.0)

let policy_results_are_fresh () =
  (* Regression: [machines] shared one projected-X-Gene record and
     [share] could have aliased one array across calls; a caller mutating
     either must not poison later calls. *)
  let p = Sched.Policy.Dynamic_balanced in
  let a = Sched.Policy.machines p and b = Sched.Policy.machines p in
  checkb "machines equal by value" true
    (List.for_all2
       (fun (x : Machine.Server.t) (y : Machine.Server.t) ->
         x.Machine.Server.name = y.Machine.Server.name
         && x.Machine.Server.arch = y.Machine.Server.arch
         && x.Machine.Server.power = y.Machine.Server.power)
       a b);
  (* The catalog Xeon is an immutable library constant and may be
     shared; the FinFET-projected X-Gene is computed and must be fresh
     (it used to be built once at module init and shared forever). *)
  let arm ms =
    List.find (fun m -> m.Machine.Server.arch = Isa.Arch.Arm64) ms
  in
  checkb "projected record fresh per call" true (arm a != arm b);
  let s = Sched.Policy.share p in
  s.(0) <- 42.0;
  checkb "mutating a returned share does not leak" true
    ((Sched.Policy.share p).(0) <> 42.0)

let validate_messages () =
  let module V = Sched.Validate in
  let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error" in
  Alcotest.check Alcotest.string "at_least names flag and value"
    "--islands must be at least 1 (got 0)"
    (err (V.at_least ~what:"--islands" ~min:1 0));
  Alcotest.check Alcotest.string "positive_float rejects zero"
    "--epoch must be a positive number (got 0)"
    (err (V.positive_float ~what:"--epoch" 0.0));
  Alcotest.check Alcotest.string "positive_float rejects nan"
    "--rate must be a positive number (got nan)"
    (err (V.positive_float ~what:"--rate" Float.nan));
  Alcotest.check Alcotest.string "probability bounds"
    "--fail-rate must be a probability in [0, 1] (got 1.5)"
    (err (V.probability ~what:"--fail-rate" 1.5));
  checkb "islands: None passes" true (V.islands None = Ok None);
  checkb "islands: 1 passes" true (V.islands (Some 1) = Ok (Some 1));
  Alcotest.check Alcotest.string "islands: 0 rejected"
    "--islands must be at least 1 (got 0)"
    (err (V.islands (Some 0)));
  (* serve and schedule flags a run cannot use. *)
  Alcotest.check Alcotest.string "serve --window 0"
    "--window must be a positive number (got 0)"
    (err (V.positive_float ~what:"--window" 0.0));
  Alcotest.check Alcotest.string "serve --demand -1"
    "--demand must be a non-negative number (got -1)"
    (err (V.non_negative_float ~what:"--demand" (-1.0)));
  Alcotest.check Alcotest.string "non_negative_float rejects infinity"
    "--demand must be a non-negative number (got inf)"
    (err (V.non_negative_float ~what:"--demand" Float.infinity));
  checkb "zero demand passes" true
    (V.non_negative_float ~what:"--demand" 0.0 = Ok 0.0);
  Alcotest.check Alcotest.string "serve --limit -1"
    "--limit must be at least 0 (got -1)"
    (err (V.at_least ~what:"--limit" ~min:0 (-1)));
  Alcotest.check Alcotest.string "serve --epoch at the link latency"
    "--epoch must exceed the 10GbE link latency 2e-05s (got 2e-05)"
    (err (V.serve_epoch Sched.Service.epoch_floor_s));
  checkb "the default epoch passes" true (V.serve_epoch 0.05 = Ok 0.05)

let validate_crash_specs () =
  let module V = Sched.Validate in
  let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error" in
  checkb "well-formed spec parses" true
    (V.crash_spec "3@10.5" = Ok { Faults.Plan.node = 3; at = 10.5 });
  Alcotest.check Alcotest.string "names the bad node token"
    "bad crash spec \"twelve@3.0\": \"twelve\" is not a node id"
    (err (V.crash_spec "twelve@3.0"));
  Alcotest.check Alcotest.string "names the bad time token"
    "bad crash spec \"3@soon\": \"soon\" is not a time"
    (err (V.crash_spec "3@soon"));
  Alcotest.check Alcotest.string "negative node"
    "bad crash spec \"-1@2.0\": node -1 is negative"
    (err (V.crash_spec "-1@2.0"));
  Alcotest.check Alcotest.string "malformed shape"
    "bad crash spec \"3\" (want NODE@TIME, e.g. 3@10.5)"
    (err (V.crash_spec "3"));
  Alcotest.check Alcotest.string "out-of-range node at run setup"
    "--crash 99@10: node 99 is out of range (nodes are 0..15)"
    (err (V.crashes_in_range ~nodes:16 [ { Faults.Plan.node = 99; at = 10.0 } ]));
  checkb "in-range crashes pass" true
    (V.crashes_in_range ~nodes:16 [ { Faults.Plan.node = 15; at = 10.0 } ]
    = Ok ())

let validate_topology () =
  let module V = Sched.Validate in
  let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error" in
  Alcotest.check Alcotest.string "divisibility check"
    "--nodes 10 is not divisible by --racks 3"
    (err (V.topology ~nodes:10 ~racks:3 ~mix_name:"alternate"));
  Alcotest.check Alcotest.string "unknown mix"
    "unknown --mix bogus (want alternate, isa-racks, x86-only or arm-only)"
    (err (V.topology ~nodes:8 ~racks:2 ~mix_name:"bogus"));
  Alcotest.check Alcotest.string "more racks than nodes"
    "--racks 9 exceeds --nodes 8"
    (err (V.topology ~nodes:8 ~racks:9 ~mix_name:"alternate"));
  (match V.topology ~nodes:8 ~racks:1 ~mix_name:"alternate" with
  | Ok t ->
    checkb "racks=1 is the flat paper interconnect" true
      (t.Machine.Topology.local.Machine.Topology.latency_s
      = Machine.Interconnect.ethernet_10g.Machine.Interconnect.latency_s)
  | Error e -> Alcotest.fail e);
  match V.topology ~nodes:8 ~racks:2 ~mix_name:"isa-racks" with
  | Ok t -> checki "racked topology built" 2 (Machine.Topology.racks t)
  | Error e -> Alcotest.fail e

(* Four alternating nodes idle at 176W and a 4-thread job adds at least
   15W anywhere, so pack-power-cap can admit it only from 191W up; below
   that the run used to re-arm its epoch tick forever. *)
let validate_power_cap () =
  let module V = Sched.Validate in
  let topology =
    match V.topology ~nodes:4 ~racks:1 ~mix_name:"alternate" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.check Alcotest.string "names the flag, the value and the floor"
    "--power-cap 190 is below the admission floor 191W (the idle cluster \
     plus the cheapest placement of the widest job)"
    (match V.power_cap ~topology 190.0 with
    | Error e -> e
    | Ok _ -> Alcotest.fail "expected Error");
  checkb "191W admits every job" true (V.power_cap ~topology 191.0 = Ok 191.0)

let small_jobs seed n = Sched.Arrival.sustained ~seed ~jobs:n

let scheduler_completes_all_jobs () =
  List.iter
    (fun policy ->
      let r = Sched.Scheduler.run policy (small_jobs 11 8) in
      checki (Sched.Policy.name r.Sched.Scheduler.policy ^ " completes") 8
        r.Sched.Scheduler.completed;
      checki "nothing rejected" 0 r.Sched.Scheduler.rejected;
      checkb "positive makespan" true (r.Sched.Scheduler.makespan > 0.0);
      checkb "positive energy" true (r.Sched.Scheduler.total_energy > 0.0))
    Sched.Policy.all

let infeasible_jobs_counted_as_rejected () =
  (* A job wider than every machine can never be placed; it must be
     rejected at submission and accounted for, never silently dropped. *)
  let feasible = small_jobs 19 6 in
  let wide =
    Sched.Job.make ~jid:999
      ~spec:(Workload.Spec.spec Workload.Spec.EP Workload.Spec.A)
      ~threads:1024 ~arrival:0.0
  in
  let submitted = wide :: feasible in
  let r = Sched.Scheduler.run Sched.Policy.Dynamic_balanced submitted in
  checki "rejected counted" 1 r.Sched.Scheduler.rejected;
  checki "feasible jobs complete" (List.length feasible)
    r.Sched.Scheduler.completed;
  checki "completed + rejected = submitted" (List.length submitted)
    (r.Sched.Scheduler.completed + r.Sched.Scheduler.rejected)

let static_policies_never_migrate () =
  List.iter
    (fun policy ->
      let r = Sched.Scheduler.run policy (small_jobs 12 8) in
      checki "no migrations" 0 r.Sched.Scheduler.migrations)
    [ Sched.Policy.Static_x86_pair; Sched.Policy.Static_het_balanced;
      Sched.Policy.Static_het_unbalanced ]

let dynamic_policies_migrate () =
  (* Whether a particular set triggers a rebalance depends on the draw;
     across a few seeds at least one must migrate. *)
  let total =
    List.fold_left
      (fun acc seed ->
        let r =
          Sched.Scheduler.run Sched.Policy.Dynamic_balanced (small_jobs seed 16)
        in
        acc + r.Sched.Scheduler.migrations)
      0 [ 13; 14; 15 ]
  in
  checkb "some migrations happen" true (total > 0)

let unbalanced_keeps_x86_busier () =
  let r =
    Sched.Scheduler.run Sched.Policy.Static_het_unbalanced (small_jobs 14 16)
  in
  (* The x86 (node 0) must do most of the energy-visible work. *)
  checkb "x86 consumed more" true
    (r.Sched.Scheduler.energy.(0) > r.Sched.Scheduler.energy.(1))

let energy_within_physical_envelope () =
  List.iter
    (fun policy ->
      let r = Sched.Scheduler.run policy (small_jobs 15 8) in
      let machines = Sched.Policy.machines policy in
      let max_w =
        List.fold_left
          (fun acc m ->
            acc +. Machine.Power.system_power m.Machine.Server.power ~utilization:1.0)
          0.0 machines
      in
      checkb "below max power x time" true
        (r.Sched.Scheduler.total_energy <= max_w *. r.Sched.Scheduler.makespan *. 1.001);
      checkb "above zero" true (r.Sched.Scheduler.total_energy > 0.0))
    Sched.Policy.all

let edp_consistent () =
  let r = Sched.Scheduler.run Sched.Policy.Static_x86_pair (small_jobs 16 6) in
  checkb "edp = energy x makespan" true
    (Float.abs
       (r.Sched.Scheduler.edp
       -. (r.Sched.Scheduler.total_energy *. r.Sched.Scheduler.makespan))
    < 1e-6)

let deterministic_runs () =
  let a = Sched.Scheduler.run Sched.Policy.Dynamic_unbalanced (small_jobs 17 10) in
  let b = Sched.Scheduler.run Sched.Policy.Dynamic_unbalanced (small_jobs 17 10) in
  checkb "same makespan" true (a.Sched.Scheduler.makespan = b.Sched.Scheduler.makespan);
  checkb "same energy" true
    (a.Sched.Scheduler.total_energy = b.Sched.Scheduler.total_energy)

let periodic_dynamic_saves_energy () =
  (* The headline claim of Figure 13, on a reduced set for test speed. *)
  let jobs = Sched.Arrival.periodic ~seed:18 ~waves:3 ~max_per_wave:8 in
  let st = Sched.Scheduler.run Sched.Policy.Static_x86_pair jobs in
  let dy = Sched.Scheduler.run Sched.Policy.Dynamic_balanced jobs in
  checki "all complete (static)" (List.length jobs) st.Sched.Scheduler.completed;
  checki "all complete (dynamic)" (List.length jobs) dy.Sched.Scheduler.completed;
  checkb "dynamic uses less energy" true
    (dy.Sched.Scheduler.total_energy < st.Sched.Scheduler.total_energy)

let sjf_admission_reorders () =
  let jobs = Sched.Arrival.sustained ~seed:21 ~jobs:20 in
  let fcfs =
    Sched.Scheduler.run ~admission:Sched.Scheduler.Fcfs
      Sched.Policy.Static_x86_pair jobs
  in
  let sjf =
    Sched.Scheduler.run ~admission:Sched.Scheduler.Sjf
      Sched.Policy.Static_x86_pair jobs
  in
  checki "fcfs completes" 20 fcfs.Sched.Scheduler.completed;
  checki "sjf completes" 20 sjf.Sched.Scheduler.completed;
  checkb "orderings differ observably" true
    (fcfs.Sched.Scheduler.makespan <> sjf.Sched.Scheduler.makespan
    || fcfs.Sched.Scheduler.total_energy <> sjf.Sched.Scheduler.total_energy)

(* Properties over random workloads: conservation + physical bounds. *)
let scheduler_random_props =
  QCheck.Test.make ~name:"scheduler invariants over random workloads" ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      let jobs = Sched.Arrival.sustained ~seed ~jobs:6 in
      List.for_all
        (fun policy ->
          let r = Sched.Scheduler.run policy jobs in
          let machines = Sched.Policy.machines policy in
          let max_w =
            List.fold_left
              (fun acc m ->
                acc
                +. Machine.Power.system_power m.Machine.Server.power
                     ~utilization:1.0)
              0.0 machines
          in
          (* every job completes exactly once; nothing vanishes *)
          r.Sched.Scheduler.completed = List.length jobs
          && r.Sched.Scheduler.completed + r.Sched.Scheduler.rejected
             = List.length jobs
          (* energy within the physical envelope *)
          && r.Sched.Scheduler.total_energy > 0.0
          && r.Sched.Scheduler.total_energy
             <= (max_w *. r.Sched.Scheduler.makespan *. 1.001)
          (* EDP consistency *)
          && Float.abs
               (r.Sched.Scheduler.edp
               -. (r.Sched.Scheduler.total_energy *. r.Sched.Scheduler.makespan))
             < 1.0
          (* static policies never migrate *)
          && (Sched.Policy.is_dynamic policy || r.Sched.Scheduler.migrations = 0))
        Sched.Policy.all)

let suite =
  [
    ("sustained arrivals shape", `Quick, arrival_sustained_shape);
    ("periodic arrivals shape", `Quick, arrival_periodic_shape);
    ("arrivals deterministic", `Quick, arrival_deterministic);
    ("policy machine pairs", `Quick, policy_machines);
    ("policy applies FinFET projection", `Quick, policy_finfet_projection_applied);
    ("policy results are fresh per call", `Quick, policy_results_are_fresh);
    ("validate: flag messages", `Quick, validate_messages);
    ("validate: crash specs name the token", `Quick, validate_crash_specs);
    ("validate: topology knobs", `Quick, validate_topology);
    ("validate: power cap below the admission floor", `Quick,
     validate_power_cap);
    ("scheduler completes all jobs", `Slow, scheduler_completes_all_jobs);
    ("infeasible jobs counted as rejected", `Slow,
     infeasible_jobs_counted_as_rejected);
    ("static policies never migrate", `Slow, static_policies_never_migrate);
    ("dynamic policies migrate", `Slow, dynamic_policies_migrate);
    ("unbalanced keeps x86 busier", `Slow, unbalanced_keeps_x86_busier);
    ("energy within physical envelope", `Slow, energy_within_physical_envelope);
    ("EDP consistent", `Quick, edp_consistent);
    ("scheduler deterministic", `Slow, deterministic_runs);
    ("periodic: dynamic saves energy", `Slow, periodic_dynamic_saves_energy);
    ("SJF admission reorders the queue", `Slow, sjf_admission_reorders);
    QCheck_alcotest.to_alcotest scheduler_random_props;
  ]
