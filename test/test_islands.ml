(* The parallel event core: keyed calendars, the time-island runtime,
   and the cluster core built on it. The load-bearing property
   throughout is determinism — the (time, seq, src) total order makes a
   run a pure function of its configuration, never of the domain
   count. *)

let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

(* --- Calendar ---------------------------------------------------------- *)

let calendar_pop_order () =
  let keys =
    [ (2.0, 1, 0); (1.0, 0, 0); (1.0, 0, 1); (1.0, 1, 0); (3.0, 0, 2);
      (2.0, 0, 1) ]
  in
  let drain order =
    let cal = Sim.Calendar.create ~dummy:(-1) () in
    List.iteri
      (fun i (time, seq, src) -> Sim.Calendar.push cal ~time ~src ~seq i)
      order;
    List.init (List.length order) (fun _ ->
        let v = Sim.Calendar.pop cal in
        (Sim.Calendar.last_time cal, Sim.Calendar.last_seq cal,
         Sim.Calendar.last_src cal, v))
  in
  let popped = drain keys in
  let popped_keys = List.map (fun (t, q, s, _) -> (t, q, s)) popped in
  check
    (Alcotest.list (Alcotest.triple (Alcotest.float 0.0) Alcotest.int Alcotest.int))
    "(time, seq, src) total order"
    [ (1.0, 0, 0); (1.0, 0, 1); (1.0, 1, 0); (2.0, 0, 1); (2.0, 1, 0);
      (3.0, 0, 2) ]
    popped_keys;
  (* Push order is irrelevant: reversed input, same pop keys. *)
  let rev = List.map (fun (t, q, s, _) -> (t, q, s)) (drain (List.rev keys)) in
  checkb "push-order invariant" true (popped_keys = rev)

let calendar_empty () =
  let cal = Sim.Calendar.create ~dummy:0 () in
  checkb "empty" true (Sim.Calendar.is_empty cal);
  checkb "min_time infinity" true (Sim.Calendar.min_time cal = Float.infinity);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Calendar.pop: empty") (fun () ->
      ignore (Sim.Calendar.pop cal))

let calendar_clear_shrinks () =
  let cal = Sim.Calendar.create ~dummy:0 () in
  for i = 0 to 9_999 do
    Sim.Calendar.push cal ~time:(float_of_int i) ~src:0 ~seq:i i
  done;
  let peak = Sim.Calendar.capacity cal in
  checkb "heap grew" true (peak >= 10_000);
  Sim.Calendar.clear cal;
  checkb "capacity shrunk" true (Sim.Calendar.capacity cal < peak);
  checki "emptied" 0 (Sim.Calendar.size cal);
  Sim.Calendar.push cal ~time:1.0 ~src:0 ~seq:0 7;
  checki "still usable" 7 (Sim.Calendar.pop cal)

(* --- Engine.clear ------------------------------------------------------ *)

let engine_clear_shrinks () =
  let e = Sim.Engine.create () in
  for i = 0 to 9_999 do
    Sim.Engine.schedule e ~at:(float_of_int i) ignore
  done;
  let peak = Sim.Engine.capacity e in
  checkb "heap grew" true (peak >= 10_000);
  Sim.Engine.clear e;
  checki "back to the initial 64 slots" 64 (Sim.Engine.capacity e);
  checki "no pending events" 0 (Sim.Engine.pending e);
  checkb "clock reset" true (Sim.Engine.now e = 0.0);
  let ran = ref false in
  Sim.Engine.schedule e ~at:2.0 (fun () -> ran := true);
  Sim.Engine.run e;
  checkb "still usable" true !ran

(* --- Islands: windows and the lookahead contract ----------------------- *)

let islands_validation () =
  Alcotest.check_raises "lookahead must be positive"
    (Invalid_argument "Islands.create: lookahead must be finite and positive")
    (fun () ->
      ignore (Sim.Islands.create ~islands:2 ~lookahead:0.0 ~seed:1 ()));
  let rt = Sim.Islands.create ~islands:2 ~lookahead:1.0 ~seed:1 () in
  let isl = Sim.Islands.island rt 0 in
  checkb "post below lookahead rejected" true
    (try
       Sim.Islands.post isl ~dst:1 ~after:0.5 ignore;
       false
     with Invalid_argument _ -> true);
  checkb "post to unknown island rejected" true
    (try
       Sim.Islands.post isl ~dst:7 ~after:1.0 ignore;
       false
     with Invalid_argument _ -> true);
  checkb "schedule in the past rejected" true
    (try
       Sim.Islands.schedule isl ~at:(-1.0) ignore;
       false
     with Invalid_argument _ -> true)

(* The audit capture of a run; every test below reads or compares it. *)
let capture_of rt = Option.get (Sim.Islands.capture rt)

(* A post with delay exactly the lookahead lands exactly on the window
   boundary (window_end = next + lookahead) and must execute in a LATER
   window — the strict [time < window_end] rule. With a local event
   already scheduled at the same instant, the (time, seq, src) order
   decides: equal time, then the smaller seq, then the smaller source
   island id goes first. *)
let islands_window_boundary () =
  let rt = Sim.Islands.create ~capture:true ~islands:2 ~lookahead:1.0 ~seed:3 () in
  let i0 = Sim.Islands.island rt 0 and i1 = Sim.Islands.island rt 1 in
  let order = ref [] in
  (* Island 1's local event at t=1.0: src=1, seq=0. *)
  Sim.Islands.schedule i1 ~at:1.0 (fun _ -> order := "local" :: !order);
  (* Island 0 at t=0 posts to island 1 with after = lookahead, arriving
     at exactly t=1.0 = the first window's end: src=0, seq=1. *)
  Sim.Islands.schedule i0 ~at:0.0 (fun isl ->
      Sim.Islands.post isl ~dst:1 ~after:1.0 (fun _ ->
          order := "posted" :: !order));
  Sim.Islands.run rt;
  check (Alcotest.list Alcotest.string) "both executed, seq order at the tie"
    [ "posted"; "local" ] !order;
  (* The capture pins the boundary down: window 0 is [0, 1) and holds
     island 0's event and post; island 1 runs (1.0, 0, 1) local, then
     (1.0, 1, 0) posted, both in window 1. *)
  let cap = capture_of rt in
  let execs isl =
    List.map
      (fun (x : Sim.Islands.exec_rec) -> (x.x_window, x.x_time, x.x_seq, x.x_src))
      cap.Sim.Islands.c_execs.(isl)
  in
  checkb "window bounds" true
    (List.map
       (fun (b : Sim.Islands.barrier_rec) -> (b.b_from, b.b_until))
       cap.Sim.Islands.c_barriers
    = [ (0.0, 1.0); (1.0, 2.0) ]);
  checkb "island 0 posted in window 0" true
    (execs 0 = [ (0, 0.0, 0, 0) ]
    && List.map (fun (p : Sim.Islands.post_rec) -> p.p_window)
         cap.Sim.Islands.c_posts
       = [ 0 ]);
  checkb "island 1 ran both in window 1, in key order" true
    (execs 1 = [ (1, 1.0, 0, 1); (1, 1.0, 1, 0) ])

let islands_seq_equals_parallel_simple () =
  (* A deterministic ping-pong across three islands, run at 1 and 3
     domains: identical captures, so identical events and windows. *)
  let build () =
    let rt = Sim.Islands.create ~capture:true ~islands:3 ~lookahead:0.5 ~seed:9 () in
    let rec ping hops isl =
      if hops > 0 then begin
        let dst = (Sim.Islands.id isl + 1) mod 3 in
        let jitter = Sim.Prng.float (Sim.Islands.prng isl) 0.25 in
        Sim.Islands.post isl ~dst ~after:(0.5 +. jitter) (ping (hops - 1));
        Sim.Islands.schedule_in isl ~after:0.1 (fun _ -> ())
      end
    in
    for i = 0 to 2 do
      Sim.Islands.schedule (Sim.Islands.island rt i)
        ~at:(0.05 *. float_of_int i)
        (ping 20)
    done;
    rt
  in
  let a = build () and b = build () in
  Sim.Islands.run ~domains:1 a;
  Sim.Islands.run ~domains:3 b;
  checkb "captures identical" true (capture_of a = capture_of b)

(* QCheck: random little simulations — random fan-out and delays —
   always produce domain-count-independent captures. *)
let qcheck_islands_deterministic =
  QCheck.Test.make ~name:"island log independent of domain count" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let build () =
        let rt =
          Sim.Islands.create ~capture:true ~islands:4 ~lookahead:1.0 ~seed ()
        in
        let rec act depth isl =
          let rng = Sim.Islands.prng isl in
          if depth > 0 then begin
            let fanout = 1 + Sim.Prng.int rng 2 in
            for _ = 1 to fanout do
              let dst = Sim.Prng.int rng 4 in
              let after = 1.0 +. Sim.Prng.float rng 2.0 in
              Sim.Islands.post isl ~dst ~after (act (depth - 1))
            done;
            if Sim.Prng.float rng 1.0 < 0.5 then
              Sim.Islands.schedule_in isl ~after:(Sim.Prng.float rng 0.9)
                (fun _ -> ())
          end
        in
        for i = 0 to 3 do
          Sim.Islands.schedule (Sim.Islands.island rt i)
            ~at:(0.1 *. float_of_int i) (act 4)
        done;
        rt
      in
      let a = build () and b = build () in
      Sim.Islands.run ~domains:1 a;
      Sim.Islands.run ~domains:4 b;
      capture_of a = capture_of b)

(* --- Per-edge lookahead: topology-aware windows ------------------------- *)

let islands_edge_lookahead_contract () =
  (* A per-edge matrix tightens the post floor edge by edge while the
     window still advances by the matrix minimum (= the scalar floor). *)
  let edge =
    [| [| 0.0; 1.5; 2.0 |]; [| 1.0; 0.0; 3.0 |]; [| 2.5; 1.25; 0.0 |] |]
  in
  let rt =
    Sim.Islands.create ~edge_lookahead:edge ~islands:3 ~lookahead:1.0 ~seed:2 ()
  in
  let i0 = Sim.Islands.island rt 0 and i1 = Sim.Islands.island rt 1 in
  checkb "post at the edge floor accepted" true
    (Sim.Islands.post i1 ~dst:0 ~after:1.0 ignore;
     true);
  checkb "post below its edge floor rejected" true
    (try
       Sim.Islands.post i0 ~dst:2 ~after:1.5 ignore;
       false
     with Invalid_argument _ -> true);
  checkb "even though the scalar floor would allow it" true
    (Sim.Islands.post i0 ~dst:2 ~after:2.0 ignore;
     true)

let islands_edge_lookahead_validation () =
  checkb "ragged matrix rejected" true
    (try
       ignore
         (Sim.Islands.create ~edge_lookahead:[| [| 0.0; 1.0 |] |] ~islands:2
            ~lookahead:1.0 ~seed:2 ());
       false
     with Invalid_argument _ -> true);
  checkb "edge below the scalar lookahead rejected" true
    (try
       ignore
         (Sim.Islands.create
            ~edge_lookahead:[| [| 0.0; 0.5 |]; [| 1.0; 0.0 |] |]
            ~islands:2 ~lookahead:1.0 ~seed:2 ());
       false
     with Invalid_argument _ -> true)

let islands_edge_seq_equals_parallel () =
  (* Heterogeneous edge floors (a fast pair and a slow pair) must keep
     the run a pure function of the configuration. *)
  let edge =
    [| [| 0.0; 0.5; 2.0 |]; [| 0.5; 0.0; 2.0 |]; [| 2.0; 2.0; 0.0 |] |]
  in
  let build () =
    let rt =
      Sim.Islands.create ~capture:true ~edge_lookahead:edge ~islands:3
        ~lookahead:0.5 ~seed:11 ()
    in
    let rec ping hops isl =
      if hops > 0 then begin
        let id = Sim.Islands.id isl in
        let dst = (id + 1) mod 3 in
        let floor = edge.(id).(dst) in
        let jitter = Sim.Prng.float (Sim.Islands.prng isl) 0.25 in
        Sim.Islands.post isl ~dst ~after:(floor +. jitter) (ping (hops - 1))
      end
    in
    for i = 0 to 2 do
      Sim.Islands.schedule (Sim.Islands.island rt i)
        ~at:(0.05 *. float_of_int i)
        (ping 15)
    done;
    rt
  in
  let a = build () and b = build () in
  Sim.Islands.run ~domains:1 a;
  Sim.Islands.run ~domains:3 b;
  checkb "captures identical under per-edge floors" true
    (capture_of a = capture_of b)

(* --- Cluster: the island-scheduler core, end to end --------------------- *)

let fleet_render_stable () =
  let cfg = Sched.Cluster.fleet ~nodes:4 ~jobs:15 ~seed:21 in
  let a = Sched.Cluster.run ~domains:1 cfg in
  let b = Sched.Cluster.run ~domains:3 cfg in
  check Alcotest.string "render byte-identical across domain counts"
    (Sched.Cluster.render cfg a) (Sched.Cluster.render cfg b);
  checki "all jobs accounted" 15
    (a.Sched.Cluster.completed + a.Sched.Cluster.failed);
  checkb "positive makespan" true (a.Sched.Cluster.makespan > 0.0);
  checkb "both ISAs burned energy" true
    (a.Sched.Cluster.energy_x86_j > 0.0 && a.Sched.Cluster.energy_arm_j > 0.0)

(* The fleet preset: its two placements, with and without faults and
   rebalance, print the same fleet report at one and two domains. *)
let qcheck_fleet_deterministic =
  QCheck.Test.make
    ~name:"fleet report independent of domain count (seeds x faults x policy)"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun raw ->
      let seed = raw mod 1000 in
      let fail_rate = if raw mod 2 = 0 then 0.0 else 0.05 in
      let policy =
        if raw mod 4 < 2 then Sched.Cluster.Least_loaded
        else Sched.Cluster.Round_robin
      in
      let migration = raw mod 3 <> 0 in
      let cfg =
        { (Sched.Cluster.fleet ~nodes:3 ~jobs:8 ~seed) with
          Sched.Cluster.fail_rate;
          policy;
          migration;
        }
      in
      let a = Sched.Cluster.run ~domains:1 cfg in
      let b = Sched.Cluster.run ~domains:2 cfg in
      Sched.Cluster.render cfg a = Sched.Cluster.render cfg b)

let qcheck_cluster_deterministic =
  QCheck.Test.make
    ~name:
      "cluster report independent of domain count, every job completes or \
       fails (seeds x policy x fail rate x migration x topology)"
    ~count:16
    QCheck.(int_bound 100_000)
    (fun raw ->
      let pick l k = List.nth l (k mod List.length l) in
      let policy =
        pick
          Sched.Cluster.
            [ Pack_power_cap; Edp_migrate; Work_steal; Least_loaded;
              Round_robin ]
          raw
      in
      let fail_rate = pick [ 0.0; 0.05; 0.3 ] (raw / 5) in
      let migration = raw / 15 mod 2 = 0 in
      let mix =
        pick Machine.Topology.[ Alternate; Isa_racks ] (raw / 30)
      in
      let topology =
        match raw / 60 mod 5 with
        | 0 ->
          Machine.Topology.flat ~nodes:3
            ~interconnect:Machine.Interconnect.ethernet_10g ()
        | shape ->
          let racks, nodes_per_rack =
            pick [ (1, 6); (2, 4); (3, 4); (4, 2) ] shape
          in
          Machine.Topology.make ~mix ~racks ~nodes_per_rack ()
      in
      let cfg =
        { (Sched.Cluster.default ~topology ~jobs:40 ~seed:(raw mod 1000)) with
          Sched.Cluster.policy;
          fail_rate;
          migration;
        }
      in
      let a = Sched.Cluster.run ~domains:1 cfg in
      let b = Sched.Cluster.run ~domains:2 cfg in
      Sched.Cluster.render cfg a = Sched.Cluster.render cfg b
      && a.Sched.Cluster.completed + a.Sched.Cluster.failed = 40)

(* The acceptance scenario: 256 mixed-ISA nodes in 8 racks, run
   sequentially and across 8 domains, byte-identical reports. *)
let cluster_256_nodes_byte_identical () =
  let topo = Machine.Topology.make ~racks:8 ~nodes_per_rack:32 () in
  let cfg = Sched.Cluster.default ~topology:topo ~jobs:2000 ~seed:42 in
  let a = Sched.Cluster.run ~domains:1 cfg in
  let b = Sched.Cluster.run ~domains:8 cfg in
  check Alcotest.string "256-node render byte-identical seq vs 8 domains"
    (Sched.Cluster.render cfg a) (Sched.Cluster.render cfg b);
  checki "all jobs complete" 2000 a.Sched.Cluster.completed;
  checkb "the EDP policy migrated work across the fabric" true
    (a.Sched.Cluster.migrations > 0);
  checkb "both ISAs burned energy" true
    (a.Sched.Cluster.energy_x86_j > 0.0 && a.Sched.Cluster.energy_arm_j > 0.0)

(* Below the admission floor the widest job never fits, so the run
   would re-arm its epoch tick forever; it must refuse to start. At the
   floor it completes. *)
let cluster_power_cap_floor () =
  let topology = Machine.Topology.make ~racks:1 ~nodes_per_rack:4 () in
  let floor = Sched.Cluster.power_floor topology in
  let cfg w =
    { (Sched.Cluster.default ~topology ~jobs:40 ~seed:42) with
      Sched.Cluster.policy = Sched.Cluster.Pack_power_cap;
      power_cap_w = w;
    }
  in
  Alcotest.check_raises "cap below the floor rejected"
    (Invalid_argument
       (Printf.sprintf
          "Cluster.run: power cap %gW is below the admission floor %gW" 190.0
          floor))
    (fun () -> ignore (Sched.Cluster.run (cfg 190.0)));
  checki "at the floor every job completes" 40
    (Sched.Cluster.run (cfg floor)).Sched.Cluster.completed

(* --- Popcorn-ensemble scheduler: repeat runs ------------------------------ *)

(* A fig12-scale sustained run from cold memos, then again on the warm
   process-wide memos (phase expansion, transform latency) the first
   run filled: a memo that leaks state between runs forks the report. *)
let scheduler_repeat_run_byte_identical () =
  let jobs = Sched.Arrival.sustained ~seed:3 ~jobs:40 in
  let render () =
    Format.asprintf "%a" Sched.Scheduler.pp_result
      (Sched.Scheduler.run Sched.Policy.Dynamic_unbalanced jobs)
  in
  Workload.Spec.phase_memo_clear ();
  Kernel.Popcorn.latency_cache_clear ();
  let first = render () in
  check Alcotest.string "fig12-scale repeat run byte-identical" first
    (render ())

(* --- Workload phase memoization ----------------------------------------- *)

let phase_memo_shares () =
  Workload.Spec.phase_memo_clear ();
  let spec = Workload.Spec.spec Workload.Spec.CG Workload.Spec.A in
  let pages = [ { Memsys.Page.first = 100; count = 64 } ] in
  let a =
    Workload.Spec.phases_for_process spec ~threads:2
      ~quantum_instructions:1e8 ~data_pages:pages
  in
  let b =
    Workload.Spec.phases_for_process spec ~threads:2
      ~quantum_instructions:1e8 ~data_pages:pages
  in
  checkb "second call shares the first expansion" true (a == b);
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "one hit, one miss" (1, 1)
    (Workload.Spec.phase_memo_stats ());
  (* A different key misses and yields a different expansion. *)
  let c =
    Workload.Spec.phases_for_process spec ~threads:4
      ~quantum_instructions:1e8 ~data_pages:pages
  in
  checkb "different thread count is a different entry" true (c != a);
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "two misses now" (1, 2)
    (Workload.Spec.phase_memo_stats ());
  Workload.Spec.phase_memo_clear ();
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "cleared" (0, 0)
    (Workload.Spec.phase_memo_stats ())

let suite =
  [
    Alcotest.test_case "calendar: pop order" `Quick calendar_pop_order;
    Alcotest.test_case "calendar: empty" `Quick calendar_empty;
    Alcotest.test_case "calendar: clear shrinks" `Quick calendar_clear_shrinks;
    Alcotest.test_case "engine: clear shrinks" `Quick engine_clear_shrinks;
    Alcotest.test_case "islands: validation" `Quick islands_validation;
    Alcotest.test_case "islands: window boundary tie-break" `Quick
      islands_window_boundary;
    Alcotest.test_case "islands: seq = parallel (ping-pong)" `Quick
      islands_seq_equals_parallel_simple;
    QCheck_alcotest.to_alcotest qcheck_islands_deterministic;
    Alcotest.test_case "islands: per-edge lookahead contract" `Quick
      islands_edge_lookahead_contract;
    Alcotest.test_case "islands: per-edge matrix validation" `Quick
      islands_edge_lookahead_validation;
    Alcotest.test_case "islands: seq = parallel under edge floors" `Quick
      islands_edge_seq_equals_parallel;
    Alcotest.test_case "fleet: render stable across domains" `Quick
      fleet_render_stable;
    QCheck_alcotest.to_alcotest qcheck_fleet_deterministic;
    Alcotest.test_case "cluster: 256 nodes byte-identical" `Slow
      cluster_256_nodes_byte_identical;
    QCheck_alcotest.to_alcotest qcheck_cluster_deterministic;
    Alcotest.test_case "scheduler: fig12-scale repeat run" `Quick
      scheduler_repeat_run_byte_identical;
    Alcotest.test_case "workload: phase expansion memoized" `Quick
      phase_memo_shares;
    Alcotest.test_case "cluster: power cap below the admission floor" `Quick
      cluster_power_cap_floor;
  ]
