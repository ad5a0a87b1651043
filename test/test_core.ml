(* Integration tests through the public facade (Het). *)

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let binary = Hetmig.Het.compile_benchmark Workload.Spec.CG Workload.Spec.A

let compile_and_inspect () =
  checkb "migration points" true (Hetmig.Het.migration_points binary <> []);
  checkb "text bytes positive" true
    (Hetmig.Het.code_size binary Isa.Arch.Arm64 > 0);
  checkb "symbol addresses unified" true
    (Hetmig.Het.symbol_address binary "main" >= Binary.Layout.text_base);
  checkb "padding accounted" true
    (Hetmig.Het.alignment_padding binary Isa.Arch.Arm64 >= 0
    || Hetmig.Het.alignment_padding binary Isa.Arch.X86_64 >= 0)

let migrate_at_every_site () =
  List.iter
    (fun site ->
      List.iter
        (fun from_ ->
          match Hetmig.Het.migrate_at binary ~from_ ~site with
          | Error e -> Alcotest.fail e
          | Ok r ->
            checkb "verified" true r.Hetmig.Het.verified;
            checkb "latency sane" true
              (r.Hetmig.Het.latency_us > 10.0 && r.Hetmig.Het.latency_us < 5000.0);
            checkb "arch flip" true
              (r.Hetmig.Het.to_arch = Isa.Arch.other r.Hetmig.Het.from_arch))
        Isa.Arch.all)
    (Hetmig.Het.migration_points binary)

let migrate_unknown_site_errors () =
  checkb "error result" true
    (match
       Hetmig.Het.migrate_at binary ~from_:Isa.Arch.X86_64 ~site:("nope", 0)
     with
    | Error _ -> true
    | Ok _ -> false)

let latencies_paper_shape () =
  (* Figure 10's shape: x86 mostly under 400 us; ARM roughly 2x. *)
  let x = Hetmig.Het.migration_latencies_us binary Isa.Arch.X86_64 in
  let a = Hetmig.Het.migration_latencies_us binary Isa.Arch.Arm64 in
  let bx = Sim.Stats.boxplot x and ba = Sim.Stats.boxplot a in
  checkb "x86 median < 400us" true (bx.Sim.Stats.bmedian < 400.0);
  checkb "ARM median < 1000us" true (ba.Sim.Stats.bmedian < 1000.0);
  checkb "ARM ~2x" true
    (ba.Sim.Stats.bmedian > 1.5 *. bx.Sim.Stats.bmedian)

let cluster_run_and_migrate () =
  let cluster = Hetmig.Het.make_cluster () in
  let spec = Workload.Spec.spec Workload.Spec.IS Workload.Spec.A in
  let is_binary = Hetmig.Het.compile_benchmark Workload.Spec.IS Workload.Spec.A in
  let proc = Hetmig.Het.deploy cluster is_binary ~spec ~threads:2 ~node:0 () in
  Hetmig.Het.start cluster proc;
  Hetmig.Het.run_until cluster 0.01;
  checkb "x86 busy early" true (Hetmig.Het.utilization cluster 0 > 0.0);
  Hetmig.Het.migrate cluster proc ~to_node:1;
  Hetmig.Het.run cluster;
  checkb "finished" false (Kernel.Process.alive proc);
  List.iter
    (fun (th : Kernel.Process.thread) ->
      checki "landed on ARM" 1 th.Kernel.Process.node;
      checkb "migrated" true (th.Kernel.Process.migrations >= 1))
    proc.Kernel.Process.threads;
  checkb "energy accrued on both" true
    (Hetmig.Het.energy cluster 0 > 0.0 && Hetmig.Het.energy cluster 1 > 0.0)

let cluster_migration_slower_but_completes () =
  (* Migrating mid-run to the slower ARM must still complete, later than
     an x86-only run. *)
  let time_with ~migrate =
    let cluster = Hetmig.Het.make_cluster () in
    let spec = Workload.Spec.spec Workload.Spec.EP Workload.Spec.A in
    let b = Hetmig.Het.compile_benchmark Workload.Spec.EP Workload.Spec.A in
    let proc = Hetmig.Het.deploy cluster b ~spec ~threads:1 ~node:0 () in
    Hetmig.Het.start cluster proc;
    if migrate then begin
      Hetmig.Het.run_until cluster 0.02;
      Hetmig.Het.migrate cluster proc ~to_node:1
    end;
    Hetmig.Het.run cluster;
    match proc.Kernel.Process.finished_at with
    | Some t -> t
    | None -> Alcotest.fail "did not finish"
  in
  let stay = time_with ~migrate:false in
  let move = time_with ~migrate:true in
  checkb "migrated run slower (ARM tail)" true (move > stay)

let multi_isa_binary_round_trip_through_os () =
  (* Full-system integration: compile, deploy on ARM, migrate to x86,
     migrate back, finish. *)
  let cluster = Hetmig.Het.make_cluster () in
  let spec = Workload.Spec.spec Workload.Spec.Verus Workload.Spec.B in
  let b = Hetmig.Het.compile_benchmark Workload.Spec.Verus Workload.Spec.B in
  let proc = Hetmig.Het.deploy cluster b ~spec ~threads:1 ~node:1 () in
  Hetmig.Het.start cluster proc;
  Hetmig.Het.run_until cluster 0.05;
  Hetmig.Het.migrate cluster proc ~to_node:0;
  Hetmig.Het.run_until cluster 0.2;
  Hetmig.Het.migrate cluster proc ~to_node:1;
  Hetmig.Het.run cluster;
  checkb "finished" false (Kernel.Process.alive proc);
  let th = List.hd proc.Kernel.Process.threads in
  checkb "migrated at least twice" true (th.Kernel.Process.migrations >= 2)

let state_mapping_matches_section3 () =
  let m = Hetmig.Het.state_mapping_report binary in
  checkb "P identity (globals)" true m.Hetmig.Het.globals_identity;
  checkb "code aliased" true m.Hetmig.Het.code_aliased;
  checkb "L identity (TLS)" true m.Hetmig.Het.tls_identity;
  checkb "S divergent (needs f_AB)" true m.Hetmig.Het.stacks_divergent;
  checkb "some frames differ in size" true
    (List.length m.Hetmig.Het.divergent_frames > 0)

let vdso_drives_migration () =
  (* The end-to-end mechanism: Popcorn.migrate raises the thread's vDSO
     flag word, [migrate_to]; the next phase boundary honours it and
     clears it. *)
  let cluster = Hetmig.Het.make_cluster () in
  let spec = Workload.Spec.spec Workload.Spec.EP Workload.Spec.A in
  let b = Hetmig.Het.compile_benchmark Workload.Spec.EP Workload.Spec.A in
  let proc = Hetmig.Het.deploy cluster b ~spec ~threads:1 ~node:0 () in
  Hetmig.Het.start cluster proc;
  Hetmig.Het.run_until cluster 0.01;
  Hetmig.Het.migrate cluster proc ~to_node:1;
  let th = List.hd proc.Kernel.Process.threads in
  checkb "flag raised" true (th.Kernel.Process.migrate_to = Some 1);
  Hetmig.Het.run cluster;
  checkb "flag cleared after migration" true
    (th.Kernel.Process.migrate_to = None);
  checki "thread migrated" 1 th.Kernel.Process.migrations

let container_migration_moves_everything () =
  let cluster = Hetmig.Het.make_cluster () in
  let spec = Workload.Spec.spec Workload.Spec.Verus Workload.Spec.B in
  let b = Hetmig.Het.compile_benchmark Workload.Spec.Verus Workload.Spec.B in
  let p1 = Hetmig.Het.deploy cluster b ~spec ~threads:1 ~node:0 () in
  let p2 = Hetmig.Het.deploy cluster b ~spec ~threads:2 ~node:0 () in
  Hetmig.Het.start cluster p1;
  Hetmig.Het.start cluster p2;
  Hetmig.Het.run_until cluster 0.05;
  Hetmig.Het.migrate_container cluster cluster.Hetmig.Het.container ~to_node:1;
  Hetmig.Het.run cluster;
  List.iter
    (fun proc ->
      List.iter
        (fun (th : Kernel.Process.thread) ->
          checki "every thread landed on ARM" 1 th.Kernel.Process.node)
        proc.Kernel.Process.threads;
      checki "residuals drained" 1 proc.Kernel.Process.home)
    [ p1; p2 ]

let suite =
  [
    ("compile and inspect", `Quick, compile_and_inspect);
    ("migrate at every site via facade", `Quick, migrate_at_every_site);
    ("unknown site errors", `Quick, migrate_unknown_site_errors);
    ("latency distribution matches Fig 10 shape", `Quick, latencies_paper_shape);
    ("cluster run and migrate", `Quick, cluster_run_and_migrate);
    ("migration to ARM slower but completes", `Quick,
     cluster_migration_slower_but_completes);
    ("A->B->A through the OS", `Quick, multi_isa_binary_round_trip_through_os);
    ("Section-3 state mapping verified", `Quick, state_mapping_matches_section3);
    ("vDSO drives migration end-to-end", `Quick, vdso_drives_migration);
    ("container migration moves everything", `Quick,
     container_migration_moves_everything);
  ]
