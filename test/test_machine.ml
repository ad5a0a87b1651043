let checkb msg = Alcotest.check Alcotest.bool msg
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let power_affine () =
  let m = Machine.Server.xeon_e5_1650_v2.Machine.Server.power in
  checkf "idle at 0" m.Machine.Power.cpu_idle_w
    (Machine.Power.cpu_power m ~utilization:0.0);
  checkf "max at 1" m.Machine.Power.cpu_max_w
    (Machine.Power.cpu_power m ~utilization:1.0);
  let mid = Machine.Power.cpu_power m ~utilization:0.5 in
  checkf "midpoint" ((m.Machine.Power.cpu_idle_w +. m.Machine.Power.cpu_max_w) /. 2.0) mid

let power_clamped () =
  let m = Machine.Server.xgene1.Machine.Server.power in
  checkf "clamp low" (Machine.Power.cpu_power m ~utilization:0.0)
    (Machine.Power.cpu_power m ~utilization:(-1.0));
  checkf "clamp high" (Machine.Power.cpu_power m ~utilization:1.0)
    (Machine.Power.cpu_power m ~utilization:2.0)

let power_system_includes_platform () =
  let m = Machine.Server.xeon_e5_1650_v2.Machine.Server.power in
  checkf "platform adder" m.Machine.Power.platform_w
    (Machine.Power.system_power m ~utilization:0.3
    -. Machine.Power.cpu_power m ~utilization:0.3)

let power_figure11_envelope () =
  (* Figure 11's axes: x86 system power peaks above 100 W, ARM near 80 W. *)
  let x = Machine.Server.xeon_e5_1650_v2.Machine.Server.power in
  let a = Machine.Server.xgene1.Machine.Server.power in
  checkb "x86 peak 100-130 W" true
    (let p = Machine.Power.system_power x ~utilization:1.0 in
     p > 100.0 && p < 130.0);
  checkb "arm peak 60-90 W" true
    (let p = Machine.Power.system_power a ~utilization:1.0 in
     p > 60.0 && p < 90.0)

let mcpat_projection () =
  let m = Machine.Server.xgene1.Machine.Server.power in
  let p = Machine.Mcpat.project_finfet m in
  checkf "cpu scaled by 1/10" (m.Machine.Power.cpu_max_w /. 10.0)
    p.Machine.Power.cpu_max_w;
  (* McPAT models the processor: board power is untouched. *)
  checkf "platform unchanged" m.Machine.Power.platform_w
    p.Machine.Power.platform_w

let interconnect_transfer_times () =
  let d = Machine.Interconnect.dolphin_pxh810 in
  let small = Machine.Interconnect.transfer_time d ~bytes:64 in
  let page = Machine.Interconnect.transfer_time d ~bytes:4096 in
  checkb "latency floor" true (small >= d.Machine.Interconnect.latency_s);
  checkb "bigger takes longer" true (page > small);
  (* 64 Gb/s: a 4 KiB page's serialization is ~0.5 us. *)
  checkb "page under 3us" true (page < 3e-6)

let interconnect_ethernet_slower () =
  let d = Machine.Interconnect.dolphin_pxh810 in
  let e = Machine.Interconnect.ethernet_10g in
  checkb "pcie faster" true
    (Machine.Interconnect.transfer_time d ~bytes:4096
    < Machine.Interconnect.transfer_time e ~bytes:4096)

let machine_specs_match_paper () =
  let x = Machine.Server.xeon_e5_1650_v2 in
  let a = Machine.Server.xgene1 in
  Alcotest.check Alcotest.int "xeon 6 cores" 6 x.Machine.Server.cores;
  Alcotest.check Alcotest.int "x-gene 8 cores" 8 a.Machine.Server.cores;
  checkf "xeon 3.5 GHz" 3.5e9 x.Machine.Server.cost.Isa.Cost_model.frequency_hz;
  checkf "x-gene 2.4 GHz" 2.4e9 a.Machine.Server.cost.Isa.Cost_model.frequency_hz;
  checkb "xeon more peak mips" true
    (Machine.Server.peak_mips x Isa.Cost_model.Compute
    > Machine.Server.peak_mips a Isa.Cost_model.Compute)

(* --- cluster topology ----------------------------------------------------- *)

module T = Machine.Topology

let topology_flat_matches_interconnect () =
  (* A one-rack topology is the pre-cluster model: every distinct pair
     sees exactly the 10GbE link's point-to-point numbers. *)
  let ic = Machine.Interconnect.ethernet_10g in
  let topo = T.make ~racks:1 ~nodes_per_rack:4 () in
  let p = T.path topo ~src:0 ~dst:3 in
  checkf "pair latency is the interconnect's" ic.Machine.Interconnect.latency_s
    p.T.latency_s;
  checkf "pair bandwidth too" ic.Machine.Interconnect.bandwidth_bps
    p.T.bandwidth_bps;
  checkb "described as flat" true
    (String.starts_with ~prefix:"flat: 4 node(s) in 1 rack(s)" (T.describe topo));
  checkf "page transfer time matches the two-node model"
    (Machine.Interconnect.page_transfer_time ic ~page_bytes:4096)
    (T.page_transfer_time topo ~src:1 ~dst:2 ~page_bytes:4096);
  checkf "batch transfer time too"
    (Machine.Interconnect.batch_transfer_time ic ~pages:16 ~page_bytes:4096)
    (T.batch_transfer_time topo ~src:1 ~dst:2 ~pages:16 ~page_bytes:4096)

let topology_paths_and_hops () =
  let topo = T.make ~racks:2 ~nodes_per_rack:4 () in
  Alcotest.check Alcotest.int "8 nodes" 8 (T.nodes topo);
  Alcotest.check Alcotest.int "2 racks" 2 (T.racks topo);
  let local = T.local and agg = T.aggregation in
  checkf "same-rack latency is one local hop" local.T.latency_s
    (T.path topo ~src:0 ~dst:3).T.latency_s;
  checkf "cross-rack latency sums the hops"
    ((2.0 *. local.T.latency_s) +. agg.T.latency_s)
    (T.path topo ~src:0 ~dst:4).T.latency_s;
  checkf "bandwidth is the bottleneck hop"
    (Float.min local.T.bandwidth_bps agg.T.bandwidth_bps)
    (T.path topo ~src:0 ~dst:4).T.bandwidth_bps;
  checkf "self path is free" 0.0 (T.path topo ~src:5 ~dst:5).T.latency_s;
  (* The head sits beside rack 0's ToR: local hop to rack 0, the full
     fabric to anyone else. *)
  checkf "head to rack 0 is local" local.T.latency_s
    (T.head_path topo ~dst:1).T.latency_s;
  checkb "head to rack 1 crosses the aggregation" true
    ((T.head_path topo ~dst:4).T.latency_s > local.T.latency_s)

let topology_mixes () =
  let alt = T.make ~mix:T.Alternate ~racks:2 ~nodes_per_rack:4 () in
  Alcotest.check Alcotest.int "alternate: half x86" 4
    (T.isa_count alt Isa.Arch.X86_64);
  Alcotest.check Alcotest.int "alternate: half arm" 4
    (T.isa_count alt Isa.Arch.Arm64);
  let ir = T.make ~mix:T.Isa_racks ~racks:2 ~nodes_per_rack:4 () in
  checkb "isa-racks: rack 0 is homogeneous" true
    (let a = (T.server ir 0).Machine.Server.arch in
     List.for_all (fun i -> (T.server ir i).Machine.Server.arch = a) [ 1; 2; 3 ]);
  checkb "isa-racks: rack 1 is the other ISA" true
    ((T.server ir 0).Machine.Server.arch <> (T.server ir 4).Machine.Server.arch);
  let x86 = T.make ~mix:T.X86_only ~racks:1 ~nodes_per_rack:4 () in
  Alcotest.check Alcotest.int "x86-only has no arm" 0
    (T.isa_count x86 Isa.Arch.Arm64);
  checkb "mix names round-trip" true
    (List.for_all
       (fun m -> T.mix_of_name (T.mix_name m) = Some m)
       T.mixes)

let topology_validation_raises () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "zero racks rejected" true
    (raises (fun () -> T.make ~racks:0 ~nodes_per_rack:4 ()));
  checkb "zero nodes per rack rejected" true
    (raises (fun () -> T.make ~racks:2 ~nodes_per_rack:0 ()));
  checkb "out-of-range node rejected" true
    (raises (fun () -> ignore (T.server (T.make ~racks:1 ~nodes_per_rack:2 ()) 5)))

let suite =
  [
    ("power affine in utilization", `Quick, power_affine);
    ("power clamps utilization", `Quick, power_clamped);
    ("system power includes platform", `Quick, power_system_includes_platform);
    ("power envelopes match Figure 11", `Quick, power_figure11_envelope);
    ("mcpat finfet projection", `Quick, mcpat_projection);
    ("interconnect transfer times", `Quick, interconnect_transfer_times);
    ("pcie beats ethernet", `Quick, interconnect_ethernet_slower);
    ("machine specs match the paper", `Quick, machine_specs_match_paper);
    ("topology: flat matches the interconnect", `Quick,
     topology_flat_matches_interconnect);
    ("topology: paths, hops and the head", `Quick, topology_paths_and_hops);
    ("topology: ISA mixes", `Quick, topology_mixes);
    ("topology: validation raises", `Quick, topology_validation_raises);
  ]
