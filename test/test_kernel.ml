let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let machines = [ Machine.Server.xeon_e5_1650_v2; Machine.Server.xgene1 ]

let make_pop () =
  let engine = Sim.Engine.create () in
  (engine, Kernel.Popcorn.create engine ~machines ())

(* A phase touching [pages], carried as their maximal ascending runs. *)
let phase ?(pages = []) ?(writes = false) instructions =
  {
    Kernel.Process.instructions;
    category = Isa.Cost_model.Compute;
    pages = Test_dsm.runs_of pages;
    writes;
  }

(* --- message bus --------------------------------------------------------- *)

let message_delivery_latency () =
  let engine = Sim.Engine.create () in
  let bus = Kernel.Message.create engine Machine.Interconnect.dolphin_pxh810 in
  let delivered = ref (-1.0) in
  Kernel.Message.send bus Kernel.Message.Thread_migration ~bytes:4096
    ~on_delivery:(fun () -> delivered := Sim.Engine.now engine)
    ();
  Sim.Engine.run engine;
  checkb "delivered after latency" true (!delivered > 0.0);
  checkb "fast interconnect" true (!delivered < 1e-4);
  checki "counted" 1 (Kernel.Message.sent bus Kernel.Message.Thread_migration);
  checki "bytes" 4096 (Kernel.Message.total_bytes bus)

let message_kinds_separate () =
  let engine = Sim.Engine.create () in
  let bus = Kernel.Message.create engine Machine.Interconnect.dolphin_pxh810 in
  Kernel.Message.send bus Kernel.Message.Page_request ~bytes:64
    ~on_delivery:(fun () -> ())
    ();
  checki "page_request" 1 (Kernel.Message.sent bus Kernel.Message.Page_request);
  checki "other kind zero" 0 (Kernel.Message.sent bus Kernel.Message.Page_reply)

(* --- continuations -------------------------------------------------------- *)

let continuation_blocks_in_kernel_migration () =
  let c = Kernel.Continuation.create () in
  Kernel.Continuation.enter_kernel c ~node:0 ~arch:Isa.Arch.X86_64;
  checkb "in kernel" true (Kernel.Continuation.in_kernel c ~node:0);
  checkb "cannot migrate mid-service" false (Kernel.Continuation.can_migrate c);
  checkb "migrate refused" true
    (match Kernel.Continuation.migrate c ~to_node:1 ~to_arch:Isa.Arch.Arm64 with
    | Error _ -> true
    | Ok _ -> false);
  Kernel.Continuation.exit_kernel c ~node:0;
  checkb "can migrate after service" true (Kernel.Continuation.can_migrate c);
  checkb "migrate ok" true
    (match Kernel.Continuation.migrate c ~to_node:1 ~to_arch:Isa.Arch.Arm64 with
    | Ok k -> k.Kernel.Continuation.arch = Isa.Arch.Arm64
    | Error _ -> false)

let continuation_nested_services () =
  let c = Kernel.Continuation.create () in
  Kernel.Continuation.enter_kernel c ~node:0 ~arch:Isa.Arch.X86_64;
  Kernel.Continuation.enter_kernel c ~node:0 ~arch:Isa.Arch.X86_64;
  Kernel.Continuation.exit_kernel c ~node:0;
  checkb "still in kernel" true (Kernel.Continuation.in_kernel c ~node:0);
  Kernel.Continuation.exit_kernel c ~node:0;
  checkb "out" false (Kernel.Continuation.in_kernel c ~node:0);
  checkb "unbalanced exit raises" true
    (try
       Kernel.Continuation.exit_kernel c ~node:0;
       false
     with Invalid_argument _ -> true)

(* --- loader ----------------------------------------------------------------- *)

let loader_maps_binary () =
  let engine = Sim.Engine.create () in
  let pop = Kernel.Popcorn.create engine ~machines () in
  ignore engine;
  let tc =
    Compiler.Toolchain.compile
      (Workload.Programs.program Workload.Spec.IS Workload.Spec.A)
  in
  let image =
    Kernel.Loader.load tc ~dsm:pop.Kernel.Popcorn.dsm ~node:0 ~slot:0
      ~heap_bytes:(1 lsl 20)
  in
  checkb "text aliased" true
    (Memsys.Address_space.active_text_image image.Kernel.Loader.aspace
       Isa.Arch.Arm64
    <> Memsys.Address_space.active_text_image image.Kernel.Loader.aspace
         Isa.Arch.X86_64);
  checkb "entry points at main" true
    (image.Kernel.Loader.entry = Compiler.Toolchain.symbol_address tc "main");
  checkb "text pages exist" true (image.Kernel.Loader.text_pages <> []);
  checkb "data pages exist" true (image.Kernel.Loader.data_pages <> []);
  (* Text pages are aliased in the DSM (never transferred). *)
  List.iter
    (fun page ->
      Alcotest.check (Alcotest.float 0.0) "text access free" 0.0
        (Dsm.Hdsm.access pop.Kernel.Popcorn.dsm ~node:1 ~page ~write:false))
    image.Kernel.Loader.text_pages;
  (* Data pages are owned by the spawning node. *)
  List.iter
    (fun page ->
      checki "owned by node 0" 0 (Dsm.Hdsm.owner pop.Kernel.Popcorn.dsm ~page))
    (Memsys.Page.ranges_pages image.Kernel.Loader.data_pages)

let loader_disjoint_processes () =
  let engine = Sim.Engine.create () in
  let pop = Kernel.Popcorn.create engine ~machines () in
  let a =
    Kernel.Loader.load_raw ~dsm:pop.Kernel.Popcorn.dsm ~node:0 ~slot:0 ~name:"a"
      ~footprint_bytes:(1 lsl 16)
  in
  let b =
    Kernel.Loader.load_raw ~dsm:pop.Kernel.Popcorn.dsm ~node:1 ~slot:1 ~name:"b"
      ~footprint_bytes:(1 lsl 16)
  in
  let b_pages = Memsys.Page.ranges_pages b.Kernel.Loader.data_pages in
  let inter =
    List.filter
      (fun p -> List.mem p b_pages)
      (Memsys.Page.ranges_pages a.Kernel.Loader.data_pages)
  in
  checkb "page sets disjoint" true (inter = [])

(* --- process execution -------------------------------------------------------- *)

let run_simple_process () =
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ List.to_seq [ phase 1e9; phase 1e9 ] ]
      ()
  in
  Kernel.Popcorn.start pop proc;
  Sim.Engine.run engine;
  checkb "finished" false (Kernel.Process.alive proc);
  checkb "finish time recorded" true (proc.Kernel.Process.finished_at <> None);
  (* 2e9 compute instructions at 7000 MIPS ~ 0.29 s. *)
  let t = Sim.Engine.now engine in
  checkb "plausible duration" true (t > 0.2 && t < 0.4)

let multithreaded_parallel_speedup () =
  let run threads =
    let engine, pop = make_pop () in
    let c = Kernel.Popcorn.new_container pop ~name:"c" in
    let per_thread = 4e9 /. float_of_int threads in
    let proc =
      Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
        ~footprint_bytes:(1 lsl 16)
        ~thread_phases:
          (List.init threads (fun _ -> Seq.return (phase per_thread)))
        ()
    in
    Kernel.Popcorn.start pop proc;
    Sim.Engine.run engine;
    Sim.Engine.now engine
  in
  let t1 = run 1 and t4 = run 4 in
  checkb "4 threads faster" true (t4 < t1 /. 2.0)

let arm_slower_than_x86 () =
  let run node =
    let engine, pop = make_pop () in
    let c = Kernel.Popcorn.new_container pop ~name:"c" in
    let proc =
      Kernel.Popcorn.spawn pop ~container:c ~node ~name:"job"
        ~footprint_bytes:(1 lsl 16)
        ~thread_phases:[ Seq.return (phase 5e9) ]
        ()
    in
    Kernel.Popcorn.start pop proc;
    Sim.Engine.run engine;
    Sim.Engine.now engine
  in
  checkb "x-gene slower" true (run 1 > 2.0 *. run 0)

let migration_moves_thread_and_pages () =
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16) ~thread_phases:[ Seq.empty ] ()
  in
  (* Phases touching this process's own pages. *)
  let pages = Memsys.Page.ranges_pages proc.Kernel.Process.data_pages in
  let th = List.hd proc.Kernel.Process.threads in
  th.Kernel.Process.remaining <-
    Seq.init 10 (fun _ -> phase ~pages:(List.filteri (fun i _ -> i < 4) pages) 1e9);
  Kernel.Popcorn.start pop proc;
  (* Request migration shortly after start. *)
  Sim.Engine.schedule engine ~at:0.05 (fun () ->
      Kernel.Popcorn.migrate pop proc ~to_node:1);
  Sim.Engine.run engine;
  checkb "done" false (Kernel.Process.alive proc);
  checki "thread migrated once" 1 th.Kernel.Process.migrations;
  checki "thread on node 1" 1 th.Kernel.Process.node;
  (* Residual dependencies drained: home moved to node 1. *)
  checki "home moved" 1 proc.Kernel.Process.home;
  List.iter
    (fun page ->
      checki "page drained" 1 (Dsm.Hdsm.owner pop.Kernel.Popcorn.dsm ~page))
    pages

let migration_honoured_at_phase_boundary () =
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.init 20 (fun _ -> phase 5e8) ]
      ()
  in
  Kernel.Popcorn.start pop proc;
  let th = List.hd proc.Kernel.Process.threads in
  let migrated_at = ref 0.0 in
  Sim.Engine.schedule engine ~at:0.1 (fun () ->
      Kernel.Popcorn.migrate pop proc ~to_node:1;
      (* Poll until the thread lands. *)
      let rec poll () =
        if th.Kernel.Process.node = 1 then migrated_at := Sim.Engine.now engine
        else Sim.Engine.schedule_in engine ~after:0.001 poll
      in
      poll ());
  Sim.Engine.run engine;
  (* One phase is 5e8 instr ~ 71 ms on the Xeon: the migration must land
     within roughly one phase of the request (the migration response
     time), not instantly and not at program end. *)
  checkb "bounded response time" true
    (!migrated_at > 0.1 && !migrated_at < 0.1 +. 0.2)

let energy_accounting_sane () =
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.return (phase 7e9) ]
      ()
  in
  Kernel.Popcorn.start pop proc;
  Sim.Engine.run engine;
  let t = Sim.Engine.now engine in
  let e0 = Kernel.Popcorn.energy pop 0 in
  let idle_floor =
    (Machine.Server.xeon_e5_1650_v2.Machine.Server.power.Machine.Power.cpu_idle_w
    +. Machine.Server.xeon_e5_1650_v2.Machine.Server.power.Machine.Power
       .platform_w)
    *. t
  in
  checkb "energy above idle floor" true (e0 >= idle_floor *. 0.999);
  let max_power =
    Machine.Power.system_power
      Machine.Server.xeon_e5_1650_v2.Machine.Server.power ~utilization:1.0
  in
  checkb "energy below max envelope" true (e0 <= max_power *. t *. 1.001)

let powered_off_burns_sleep_power () =
  let engine, pop = make_pop () in
  Kernel.Popcorn.set_powered pop 1 false;
  Sim.Engine.schedule engine ~at:100.0 (fun () -> ());
  Sim.Engine.run engine;
  let e1 = Kernel.Popcorn.energy pop 1 in
  let sleep = Machine.Server.xgene1.Machine.Server.power.Machine.Power.sleep_w in
  checkb "sleep energy" true (Float.abs (e1 -. (sleep *. 100.0)) < 1.0)

let sensor_samples_at_rate () =
  let engine = Sim.Engine.create () in
  let pop =
    Kernel.Popcorn.create engine ~machines:[ Machine.Server.xeon_e5_1650_v2 ] ()
  in
  let obs = Obs.create () in
  Kernel.Popcorn.attach_sensors pop obs ~hz:100.0 ~until:0.5;
  Sim.Engine.run engine;
  let series name = Obs.counter_series obs ~pid:0 ~name ~arg:"value" in
  let samples = series "cpu_w" in
  checkb "~50 samples at 100 Hz over 0.5 s" true
    (List.length samples >= 50 && List.length samples <= 52);
  checkb "load series too" true (series "load" <> []);
  let machine = pop.Kernel.Popcorn.nodes.(0).Kernel.Popcorn.machine in
  let idle_w = (Machine.Server.load_watts machine).(0) in
  checkb "idle node draws its zero-load watts" true
    (List.for_all (fun (_, w) -> w = idle_w) (series "system_w"))

(* An unpowered node reads what its meter charges: sleep power on the
   system track, nothing on the CPU track. *)
let sensors_read_sleep_draw () =
  let engine = Sim.Engine.create () in
  let machine = Machine.Server.xeon_e5_1650_v2 in
  let pop = Kernel.Popcorn.create engine ~machines:[ machine ] () in
  Kernel.Popcorn.set_powered pop 0 false;
  let obs = Obs.create () in
  Kernel.Popcorn.attach_sensors pop obs ~hz:10.0 ~until:1.0;
  Sim.Engine.run engine;
  let series name = Obs.counter_series obs ~pid:0 ~name ~arg:"value" in
  let sleep_w = machine.Machine.Server.power.Machine.Power.sleep_w in
  checki "11 system_w samples at 10 Hz over 1 s" 11
    (List.length (series "system_w"));
  checkb "system_w reads the sleep draw" true
    (List.for_all (fun (_, w) -> w = sleep_w) (series "system_w"));
  checkb "cpu_w reads 0" true
    (List.for_all (fun (_, w) -> w = 0.0) (series "cpu_w"));
  checkb "energy is the sleep draw over the run" true
    (Kernel.Popcorn.energy pop 0 = sleep_w *. Sim.Engine.now engine)

let container_spans_during_migration () =
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.init 40 (fun _ -> phase 5e8) ]
      ()
  in
  Kernel.Popcorn.start pop proc;
  let residual p =
    Dsm.Hdsm.residual_pages pop.Kernel.Popcorn.dsm ~home:p.Kernel.Process.home
    > 0
  in
  let spanned = ref [] in
  Sim.Engine.schedule engine ~at:0.2 (fun () ->
      Kernel.Popcorn.migrate pop proc ~to_node:1);
  Sim.Engine.schedule engine ~at:0.4 (fun () ->
      spanned := Kernel.Container.span c ~residual);
  Sim.Engine.run engine;
  checkb "container spanned both kernels mid-migration" true
    (List.length !spanned >= 1)

let multiple_containers_isolated () =
  (* Two containers (multi-process): disjoint DSM pages, independent
     namespace views, independent migration. *)
  let engine, pop = make_pop () in
  let c1 = Kernel.Popcorn.new_container pop ~name:"web" in
  let c2 = Kernel.Popcorn.new_container pop ~name:"batch" in
  let p1 =
    Kernel.Popcorn.spawn pop ~container:c1 ~node:0 ~name:"web-1"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.init 10 (fun _ -> phase 5e8) ]
      ()
  in
  let p2 =
    Kernel.Popcorn.spawn pop ~container:c2 ~node:0 ~name:"batch-1"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.init 10 (fun _ -> phase 5e8) ]
      ()
  in
  let p2_pages = Memsys.Page.ranges_pages p2.Kernel.Process.data_pages in
  let inter =
    List.filter
      (fun p -> List.mem p p2_pages)
      (Memsys.Page.ranges_pages p1.Kernel.Process.data_pages)
  in
  checkb "containers' pages disjoint" true (inter = []);
  Kernel.Popcorn.start pop p1;
  Kernel.Popcorn.start pop p2;
  (* Migrate only the batch container. *)
  Sim.Engine.schedule engine ~at:0.1 (fun () ->
      Kernel.Popcorn.migrate pop p2 ~to_node:1);
  Sim.Engine.run engine;
  let th1 = List.hd p1.Kernel.Process.threads in
  let th2 = List.hd p2.Kernel.Process.threads in
  checki "web stayed on x86" 0 th1.Kernel.Process.node;
  checki "batch moved to ARM" 1 th2.Kernel.Process.node;
  checki "web never migrated" 0 th1.Kernel.Process.migrations;
  (* Namespace views of identically-built containers agree; they differ
     from each other only by content, not by kernel. *)
  let ns1 = Kernel.Namespace.create_set ~name:"web" in
  let ns1' = Kernel.Namespace.create_set ~name:"web" in
  checki "same container view on any kernel"
    (Kernel.Namespace.view_fingerprint ns1)
    (Kernel.Namespace.view_fingerprint ns1')

let message_traffic_accounted_during_migration () =
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.init 6 (fun _ -> phase 5e8) ]
      ()
  in
  Kernel.Popcorn.start pop proc;
  Sim.Engine.schedule engine ~at:0.05 (fun () ->
      Kernel.Popcorn.migrate pop proc ~to_node:1);
  Sim.Engine.run engine;
  checki "exactly one thread-migration message" 1
    (Kernel.Message.sent pop.Kernel.Popcorn.bus Kernel.Message.Thread_migration);
  checkb "bytes accounted" true
    (Kernel.Message.total_bytes pop.Kernel.Popcorn.bus >= 4096)

let split_threads_pingpong_dsm () =
  (* Two threads of one process on different kernels writing the same
     pages: the hDSM write-invalidate protocol must ping-pong ownership
     (no stop-the-world, but real coherence traffic). *)
  let engine, pop = make_pop () in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 16)
      ~thread_phases:[ Seq.empty; Seq.empty ] ()
  in
  let shared =
    List.filteri (fun i _ -> i < 2)
      (Memsys.Page.ranges_pages proc.Kernel.Process.data_pages)
  in
  List.iter
    (fun (th : Kernel.Process.thread) ->
      th.Kernel.Process.remaining <-
        Seq.init 20 (fun _ -> phase ~pages:shared ~writes:true 2e8))
    proc.Kernel.Process.threads;
  Kernel.Popcorn.start pop proc;
  (* Migrate only the second thread by raising its flag directly. *)
  let th2 = List.nth proc.Kernel.Process.threads 1 in
  Sim.Engine.schedule engine ~at:0.05 (fun () ->
      Kernel.Vdso.request pop.Kernel.Popcorn.vdso ~tid:th2.Kernel.Process.tid
        ~dest:1);
  Sim.Engine.run engine;
  checki "thread 2 migrated" 1 th2.Kernel.Process.node;
  let st = Dsm.Hdsm.stats pop.Kernel.Popcorn.dsm in
  checkb "coherence ping-pong observed" true
    (st.Dsm.Hdsm.invalidations > 5 && st.Dsm.Hdsm.remote_fetches > 5)

let batched_prefetched_migration_equivalent () =
  (* The same migration scenario under --dsm-batch --prefetch: the thread
     still completes all its work on the destination, every page still
     drains, and the simulated drain latency shrinks. *)
  let scenario ~dsm_batch ~prefetch =
    let engine = Sim.Engine.create () in
    let pop = Kernel.Popcorn.create engine ~machines ~dsm_batch ~prefetch () in
    let c = Kernel.Popcorn.new_container pop ~name:"c" in
    let proc =
      Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
        ~footprint_bytes:(1 lsl 20) ~thread_phases:[ Seq.empty ] ()
    in
    let pages = Memsys.Page.ranges_pages proc.Kernel.Process.data_pages in
    let th = List.hd proc.Kernel.Process.threads in
    th.Kernel.Process.remaining <-
      Seq.init 10 (fun i ->
          phase ~pages:(List.filteri (fun j _ -> j mod 10 = i) pages)
            ~writes:true 1e9);
    Kernel.Popcorn.start pop proc;
    Sim.Engine.schedule engine ~at:0.05 (fun () ->
        Kernel.Popcorn.migrate pop proc ~to_node:1);
    Sim.Engine.run engine;
    checkb "done" false (Kernel.Process.alive proc);
    checki "thread on node 1" 1 th.Kernel.Process.node;
    checki "all pages drained" 0
      (Dsm.Hdsm.residual_pages pop.Kernel.Popcorn.dsm ~home:0);
    (pop.Kernel.Popcorn.drain_time_s,
     (Dsm.Hdsm.stats pop.Kernel.Popcorn.dsm).Dsm.Hdsm.prefetched_pages)
  in
  let drain_off, pref_off = scenario ~dsm_batch:false ~prefetch:false in
  let drain_on, pref_on = scenario ~dsm_batch:true ~prefetch:true in
  checki "no prefetch without the flag" 0 pref_off;
  checkb "prefetch pushed pages" true (pref_on > 0);
  checkb "batched drain at least 2x faster" true
    (drain_off > 2.0 *. drain_on && drain_on > 0.0)

(* The migration prefetch pushes the runs of the thread's next four
   phases merged into sorted, disjoint, maximal runs: out of order,
   contained and touching runs fold into one coalesced transfer each. *)
let prefetch_merges_next_phase_runs () =
  let engine = Sim.Engine.create () in
  let obs = Obs.create () in
  let pop =
    Kernel.Popcorn.create engine ~machines ~dsm_batch:true ~prefetch:true ~obs
      ()
  in
  let c = Kernel.Popcorn.new_container pop ~name:"c" in
  let proc =
    Kernel.Popcorn.spawn pop ~container:c ~node:0 ~name:"job"
      ~footprint_bytes:(1 lsl 20) ~thread_phases:[ Seq.empty ] ()
  in
  let x = (List.hd proc.Kernel.Process.data_pages).Memsys.Page.first in
  let run first count = List.init count (fun i -> x + first + i) in
  let th = List.hd proc.Kernel.Process.threads in
  th.Kernel.Process.remaining <-
    List.to_seq
      [ phase 1e9; phase ~pages:(run 16 16) 1e8; phase ~pages:(run 0 16) 1e8;
        phase ~pages:(run 40 8) 1e8; phase ~pages:(run 8 4) 1e8;
        phase ~pages:(run 100 8) 1e8 ];
  Kernel.Popcorn.start pop proc;
  Sim.Engine.schedule engine ~at:0.05 (fun () ->
      Kernel.Popcorn.migrate pop proc ~to_node:1);
  Sim.Engine.run engine;
  let fresh =
    Dsm.Hdsm.create ~batch:true ~nodes:2
      ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
  in
  Dsm.Hdsm.register_range fresh ~range:{ Memsys.Page.first = x; count = 48 }
    ~owner:0;
  let want =
    Dsm.Hdsm.prefetch fresh
      ~pages:
        [ { Memsys.Page.first = x; count = 32 };
          { Memsys.Page.first = x + 40; count = 8 } ]
      ~to_:1
  in
  match Obs.spans ~cat:"dsm" ~name:"prefetch" obs with
  | [ v ] ->
    checkb "two coalesced runs, 40 pages" true
      (Int64.equal
         (Int64.bits_of_float v.Obs.v_dur)
         (Int64.bits_of_float want));
    checki "40 pages pushed" 40
      (Dsm.Hdsm.stats pop.Kernel.Popcorn.dsm).Dsm.Hdsm.prefetched_pages
  | spans -> Alcotest.failf "%d prefetch spans" (List.length spans)

(* --- stack-transformation latency cache ---------------------------------- *)

let spawn_with_binary ?obs tc =
  let engine = Sim.Engine.create () in
  let pop = Kernel.Popcorn.create engine ?obs ~machines () in
  let container = Kernel.Popcorn.new_container pop ~name:"t" in
  ignore
    (Kernel.Popcorn.spawn pop ~container ~node:0 ~name:"bin" ~binary:tc
       ~footprint_bytes:(1 lsl 20) ~thread_phases:[ Seq.empty ] ())

let latency_cache_structural_hits () =
  Kernel.Popcorn.latency_cache_clear ();
  let prog = Workload.Programs.program Workload.Spec.IS Workload.Spec.A in
  (* two compilations of the same program: physically distinct, equal IR *)
  let tc1 = Compiler.Toolchain.compile prog in
  let tc2 = Compiler.Toolchain.compile prog in
  checkb "distinct toolchain values" true (tc1 != tc2);
  spawn_with_binary tc1;
  checkb "first spawn misses" true
    (Kernel.Popcorn.latency_cache_stats () = (0, 1));
  let obs = Obs.create () in
  spawn_with_binary ~obs tc2;
  checkb "recompiled binary hits" true
    (Kernel.Popcorn.latency_cache_stats () = (1, 1));
  checki "one entry" 1 (Kernel.Popcorn.latency_cache_size ());
  checkb "hit surfaced as an obs metric" true
    (Obs.counter_value obs "popcorn.latency_cache.hits" = Some 1);
  Kernel.Popcorn.latency_cache_clear ();
  checkb "clear resets" true
    (Kernel.Popcorn.latency_cache_stats () = (0, 0)
    && Kernel.Popcorn.latency_cache_size () = 0)

let latency_cache_bounded () =
  Kernel.Popcorn.latency_cache_clear ();
  Kernel.Popcorn.set_latency_cache_capacity 1;
  let tc_of b =
    Compiler.Toolchain.compile (Workload.Programs.program b Workload.Spec.A)
  in
  spawn_with_binary (tc_of Workload.Spec.IS);
  spawn_with_binary (tc_of Workload.Spec.CG);
  checki "FIFO-bounded at capacity" 1 (Kernel.Popcorn.latency_cache_size ());
  (* IS was evicted to make room for CG, so it misses again *)
  spawn_with_binary (tc_of Workload.Spec.IS);
  checkb "evicted entry re-measures" true
    (Kernel.Popcorn.latency_cache_stats () = (0, 3));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument
       "Popcorn.set_latency_cache_capacity: capacity must be >= 1") (fun () ->
      Kernel.Popcorn.set_latency_cache_capacity 0);
  Kernel.Popcorn.set_latency_cache_capacity 64;
  Kernel.Popcorn.latency_cache_clear ()

let suite =
  [
    ("message delivery and accounting", `Quick, message_delivery_latency);
    ("message kinds counted separately", `Quick, message_kinds_separate);
    ("continuation blocks in-kernel migration", `Quick,
     continuation_blocks_in_kernel_migration);
    ("continuation nested services", `Quick, continuation_nested_services);
    ("loader maps multi-ISA binary", `Quick, loader_maps_binary);
    ("loader keeps processes disjoint", `Quick, loader_disjoint_processes);
    ("process runs to completion", `Quick, run_simple_process);
    ("multithreading speeds up", `Quick, multithreaded_parallel_speedup);
    ("x-gene slower than xeon", `Quick, arm_slower_than_x86);
    ("migration moves thread, pages, home", `Quick,
     migration_moves_thread_and_pages);
    ("migration response time bounded", `Quick,
     migration_honoured_at_phase_boundary);
    ("energy accounting within envelope", `Quick, energy_accounting_sane);
    ("sleep power accounting", `Quick, powered_off_burns_sleep_power);
    ("container spans kernels", `Quick, container_spans_during_migration);
    ("multiple containers isolated", `Quick, multiple_containers_isolated);
    ("migration message traffic accounted", `Quick,
     message_traffic_accounted_during_migration);
    ("split threads ping-pong the DSM", `Quick, split_threads_pingpong_dsm);
    ("batched+prefetched migration equivalent", `Quick,
     batched_prefetched_migration_equivalent);
    ("prefetch merges the next phases' runs", `Quick,
     prefetch_merges_next_phase_runs);
    ("latency cache keyed structurally", `Quick, latency_cache_structural_hits);
    ("latency cache bounded with FIFO eviction", `Quick, latency_cache_bounded);
    ("sensor samples at 100 Hz", `Quick, sensor_samples_at_rate);
    ("sensors read an unpowered node's sleep draw", `Quick,
     sensors_read_sleep_draw);
  ]
