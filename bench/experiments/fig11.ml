(* Figure 11: PadMig (Java serialization) versus multi-ISA binary
   migration. NPB IS class B, serial; the full_verify() function is
   offloaded from the x86 to the ARM server mid-run.

   The native side runs end-to-end through the system: the IS binary is
   compiled by the toolchain, loaded into a heterogeneous container,
   executed on the x86 kernel, migrated (stack transformation + thread-
   migration message) when ~86% of the work is done — i.e. at
   full_verify() — and finished on the ARM while the hDSM drains the
   working set (the 2-second page-transfer spike of the paper's graph).

   The PadMig side is the serialization model: the object graph is
   reflected, serialized on the source, shipped, and rebuilt on the
   destination, with the whole program paying the Java execution
   penalty. *)

type trace_row = {
  time : float;
  arm_w : float;
  arm_load : float;
  x86_w : float;
  x86_load : float;
}

type outcome = {
  rows : trace_row list;
  total_s : float;
  migration_downtime_s : float;  (** time the thread is not executing *)
}

let spec = Workload.Spec.spec Workload.Spec.IS Workload.Spec.B
let verify_fraction = 0.14

(* --- native: actually run it ------------------------------------------- *)

let native () =
  let cluster = Hetmig.Het.make_cluster () in
  let binary = Hetmig.Het.compile_benchmark Workload.Spec.IS Workload.Spec.B in
  let proc = Hetmig.Het.deploy cluster binary ~spec ~threads:1 ~node:0 () in
  let x86 = Machine.Server.xeon_e5_1650_v2 in
  let main_work = spec.Workload.Spec.total_instructions *. (1.0 -. verify_fraction) in
  let migrate_at =
    Isa.Cost_model.seconds_for x86.Machine.Server.cost
      spec.Workload.Spec.category ~instructions:main_work
  in
  let sensors = Obs.create () in
  Kernel.Popcorn.attach_sensors cluster.Hetmig.Het.pop sensors ~hz:100.0
    ~until:20.0;
  Hetmig.Het.start cluster proc;
  Sim.Engine.schedule cluster.Hetmig.Het.engine ~at:migrate_at (fun () ->
      Hetmig.Het.migrate cluster proc ~to_node:1);
  Hetmig.Het.run cluster;
  let total_s =
    match proc.Kernel.Process.finished_at with Some t -> t | None -> nan
  in
  let dt = 1.0 in
  let sample pid name =
    Sim.Stats.resample
      (Obs.counter_series sensors ~pid ~name ~arg:"value")
      ~dt ~t_end:(total_s +. 1.0)
  in
  let arm_w = sample 1 "system_w" and arm_l = sample 1 "load" in
  let x86_w = sample 0 "system_w" and x86_l = sample 0 "load" in
  let rows =
    List.init (Array.length arm_w) (fun i ->
        { time = float_of_int i *. dt; arm_w = arm_w.(i); arm_load = arm_l.(i);
          x86_w = x86_w.(i); x86_load = x86_l.(i) })
  in
  let th = List.hd proc.Kernel.Process.threads in
  let downtime =
    proc.Kernel.Process.transform_latency Isa.Arch.X86_64
    +. Machine.Interconnect.transfer_time Machine.Interconnect.dolphin_pxh810
         ~bytes:4096
  in
  ignore th;
  { rows; total_s; migration_downtime_s = downtime }

(* --- PadMig: the serialization model ------------------------------------- *)

let padmig () =
  let x86 = Machine.Server.xeon_e5_1650_v2 in
  let arm = Machine.Server.xgene1 in
  let java = Baseline.Padmig.java_slowdown in
  let x86_main =
    java
    *. Isa.Cost_model.seconds_for x86.Machine.Server.cost
         spec.Workload.Spec.category
         ~instructions:(spec.Workload.Spec.total_instructions *. (1.0 -. verify_fraction))
  in
  let arm_verify =
    java
    *. Isa.Cost_model.seconds_for arm.Machine.Server.cost
         spec.Workload.Spec.category
         ~instructions:(spec.Workload.Spec.total_instructions *. verify_fraction)
  in
  let p =
    Baseline.Padmig.migration_profile spec ~from_:Isa.Arch.X86_64
      ~to_:Isa.Arch.Arm64
  in
  let t_ser = x86_main in
  let t_xfer = t_ser +. p.Baseline.Padmig.serialize_s in
  let t_deser = t_xfer +. p.Baseline.Padmig.transfer_s in
  let t_arm = t_deser +. p.Baseline.Padmig.deserialize_s in
  let total = t_arm +. arm_verify in
  (* Piecewise utilization: one busy thread out of the machine's cores. *)
  let x86_util t =
    if t < t_ser then 1.0 /. float_of_int x86.Machine.Server.cores
    else if t < t_xfer then 1.0 /. float_of_int x86.Machine.Server.cores
    else 0.0
  in
  let arm_util t =
    if t < t_deser then 0.0
    else 1.0 /. float_of_int arm.Machine.Server.cores
  in
  let dt = 1.0 in
  let n = int_of_float (Float.ceil (total /. dt)) + 1 in
  let rows =
    List.init n (fun i ->
        let t = float_of_int i *. dt in
        {
          time = t;
          arm_w = Machine.Power.system_power arm.Machine.Server.power
              ~utilization:(arm_util t);
          arm_load = arm_util t *. 100.0;
          x86_w = Machine.Power.system_power x86.Machine.Server.power
              ~utilization:(x86_util t);
          x86_load = x86_util t *. 100.0;
        })
  in
  ( { rows; total_s = total;
      migration_downtime_s = Baseline.Padmig.total_migration_s p },
    p )

let print_rows ppf rows =
  Format.fprintf ppf "  %6s %9s %9s %9s %9s@." "t(s)" "ARM(W)" "ARM(%)"
    "x86(W)" "x86(%)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %6.1f %9.1f %9.1f %9.1f %9.1f@." r.time r.arm_w
        r.arm_load r.x86_w r.x86_load)
    rows

let run ppf =
  Shape.section ppf
    "Figure 11: PadMig (Java) vs multi-ISA binary migration, NPB IS B serial";
  let pm, profile = padmig () in
  let nv = native () in
  Format.fprintf ppf
    "@.PadMig: serialize %.1fs + transfer %.3fs + deserialize %.1fs (object graph %.0f MB)@."
    profile.Baseline.Padmig.serialize_s profile.Baseline.Padmig.transfer_s
    profile.Baseline.Padmig.deserialize_s
    (float_of_int profile.Baseline.Padmig.bytes /. 1048576.0);
  Format.fprintf ppf "PadMig total execution: %.1f s@." pm.total_s;
  print_rows ppf pm.rows;
  Format.fprintf ppf
    "@.Multi-ISA binary: stack transformation + message downtime %.0f us@."
    (nv.migration_downtime_s *. 1e6);
  Format.fprintf ppf "Native total execution: %.1f s@." nv.total_s;
  print_rows ppf nv.rows;
  Format.fprintf ppf "@.";
  Shape.check ppf "native end-to-end roughly 2x faster (paper: 11s vs 23s)"
    (pm.total_s > 1.7 *. nv.total_s && pm.total_s < 3.5 *. nv.total_s);
  Shape.check ppf "native total in the 8-16s band (paper: 11s)"
    (nv.total_s > 8.0 && nv.total_s < 16.0);
  Shape.check ppf "PadMig spends seconds serializing/deserializing (paper: ~8s)"
    (pm.migration_downtime_s > 5.0);
  Shape.check ppf "native migration downtime under 1 ms"
    (nv.migration_downtime_s < 1e-3);
  (* The hDSM page-drain spike: both machines show load while the working
     set moves right after migration (paper: ~2s, 'because the hDSM
     service is multithreaded'). *)
  let spike =
    List.filter (fun r -> r.arm_load > 12.6 || (r.arm_load > 0.0 && r.x86_load > 16.9))
      nv.rows
  in
  Shape.check ppf "page-drain activity spike visible after migration (1-4s)"
    (List.length spike >= 1 && List.length spike <= 4);
  Shape.check ppf "ARM takes over after migration in the native run"
    (match List.rev nv.rows with
    | last :: _ -> last.time > 0.0
    | [] -> false)
