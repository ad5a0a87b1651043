(* Warehouse-scale cluster experiment (non-paper): the rack topology
   and the global placement policies on the island runtime.

   Part 1 checks the topology cost model: a flat single-rack cluster
   reproduces the 10GbE link's point-to-point numbers exactly, in a
   racked cluster a cross-rack transfer pays strictly more than a
   same-rack one (two local hops plus the aggregation layer), and the
   runtime's window lookahead is the epoch plus the same-rack latency.

   Part 2 runs a 64-node/4-rack mixed-ISA scenario under each global
   policy — power-capped bin packing, EDP-aware dynamic migration and
   work stealing — sequentially and on two domains, and byte-compares
   the rendered reports: the determinism guarantee holds with a full
   per-edge (topology-aware) lookahead matrix in play. *)

let part1 ppf =
  let flat = Machine.Topology.make ~racks:1 ~nodes_per_rack:8 () in
  Shape.check ppf "flat topology reproduces the point-to-point model"
    (Machine.Topology.page_transfer_time flat ~src:0 ~dst:5 ~page_bytes:4096
    = Machine.Interconnect.page_transfer_time Machine.Interconnect.ethernet_10g
        ~page_bytes:4096);
  let topo = Machine.Topology.make ~racks:4 ~nodes_per_rack:4 () in
  let same = (Machine.Topology.path topo ~src:0 ~dst:1).Machine.Topology.latency_s in
  let cross = (Machine.Topology.path topo ~src:0 ~dst:15).Machine.Topology.latency_s in
  Shape.check ppf "cross-rack path costs more than same-rack"
    (cross > same && same > 0.0);
  let cfg = Sched.Cluster.default ~topology:topo ~jobs:20 ~seed:17 in
  let _, cap = Sched.Cluster.run_audited cfg in
  Shape.check ppf "runtime lookahead is the epoch plus the same-rack latency"
    (cap.Sim.Islands.c_lookahead = cfg.Sched.Cluster.epoch_s +. same)

let part2 ppf =
  let topo = Machine.Topology.make ~racks:4 ~nodes_per_rack:16 () in
  let t0 = Sys.time () in
  let all_identical = ref true in
  let all_complete = ref true in
  List.iter
    (fun policy ->
      let cfg =
        { (Sched.Cluster.default ~topology:topo ~jobs:300 ~seed:17) with
          Sched.Cluster.policy }
      in
      let seq = Sched.Cluster.run ~domains:1 cfg in
      let par = Sched.Cluster.run ~domains:2 cfg in
      if Sched.Cluster.render cfg seq <> Sched.Cluster.render cfg par then
        all_identical := false;
      if seq.Sched.Cluster.completed <> 300 then all_complete := false)
    [ Sched.Cluster.Pack_power_cap; Sched.Cluster.Edp_migrate;
      Sched.Cluster.Work_steal ];
  let dt = Sys.time () -. t0 in
  Shape.check ppf
    "64-node cluster byte-identical seq vs 2 domains under every policy"
    !all_identical;
  Shape.check ppf "every policy completes the full job set" !all_complete;
  (* Work stealing actually moves work across the fabric. *)
  let cfg =
    { (Sched.Cluster.default ~topology:topo ~jobs:300 ~seed:17) with
      Sched.Cluster.policy = Sched.Cluster.Work_steal }
  in
  let r = Sched.Cluster.run ~domains:1 cfg in
  Shape.check ppf "work stealing lands stolen jobs"
    (r.Sched.Cluster.steals > 0 && r.Sched.Cluster.migrations > 0);
  Format.fprintf ppf "  (3 policies x 2 runs in %.2fs of host time)@." dt

let run ppf =
  Shape.section ppf
    "Cluster: rack topology costs and global policies on the islands";
  part1 ppf;
  part2 ppf
