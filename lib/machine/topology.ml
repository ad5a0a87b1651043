(* Cluster topology: racks of heterogeneous servers joined by a two-level
   interconnect, generalising the paper's single point-to-point
   {!Interconnect} between one Xeon and one X-Gene.

   The model is the standard warehouse fat-tree cut down to what the
   migration and hDSM cost model needs: every node hangs off its rack's
   top-of-rack switch over a [local] link, and ToR switches talk to each
   other through an [aggregation] hop. A transfer's latency is the sum
   of the hops it crosses and its bandwidth is the bottleneck hop, so
   migration and page-fault costs become path-dependent: moving a
   working set across racks is strictly more expensive than within one.

   Every topology uses the same two {!Interconnect} links. A one-rack
   ("flat") topology never crosses the aggregation layer, so every
   distinct pair sees the 10GbE link's point-to-point numbers: the
   original two-node cost model. *)

type link = Interconnect.t = { latency_s : float; bandwidth_bps : float }

type mix =
  | Alternate  (** node i is x86 when even, arm64 when odd *)
  | Isa_racks  (** whole racks of one ISA, alternating by rack *)
  | X86_only
  | Arm_only

let mixes = [ Alternate; Isa_racks; X86_only; Arm_only ]

let mix_name = function
  | Alternate -> "alternate"
  | Isa_racks -> "isa-racks"
  | X86_only -> "x86-only"
  | Arm_only -> "arm-only"

let mix_of_name = function
  | "alternate" | "alt" -> Some Alternate
  | "isa-racks" | "racks" -> Some Isa_racks
  | "x86-only" | "x86" -> Some X86_only
  | "arm-only" | "arm" -> Some Arm_only
  | _ -> None

type t = {
  machines : Server.t array;  (* node id -> server *)
  rack_of : int array;  (* node id -> rack id *)
  racks : int;
}

(* 10GbE to the ToR; a 40GbE aggregation fabric whose extra switch
   hops cost latency even though it is faster. *)
let local = Interconnect.ethernet_10g
let aggregation = { latency_s = 30e-6; bandwidth_bps = 40e9 }

let machine_for mix ~node ~rack =
  match mix with
  | Alternate ->
    if node mod 2 = 0 then Server.xeon_e5_1650_v2 else Server.xgene1
  | Isa_racks -> if rack mod 2 = 0 then Server.xeon_e5_1650_v2 else Server.xgene1
  | X86_only -> Server.xeon_e5_1650_v2
  | Arm_only -> Server.xgene1

let make ?(mix = Alternate) ~racks ~nodes_per_rack () =
  if racks < 1 then invalid_arg "Topology.make: need at least one rack";
  if nodes_per_rack < 1 then
    invalid_arg "Topology.make: need at least one node per rack";
  let n = racks * nodes_per_rack in
  let rack_of = Array.init n (fun i -> i / nodes_per_rack) in
  let machines =
    Array.init n (fun i -> machine_for mix ~node:i ~rack:rack_of.(i))
  in
  { machines; rack_of; racks }

let nodes t = Array.length t.machines
let server t i = t.machines.(i)
let rack t i = t.rack_of.(i)
let racks t = t.racks

let isa_count t arch =
  Array.fold_left
    (fun acc (m : Server.t) -> if m.Server.arch = arch then acc + 1 else acc)
    0 t.machines

(* Every path is one of three constants: free within a node, the ToR
   within a rack, ToR -> aggregation -> ToR across racks, with latency
   summed per hop and the bottleneck hop's bandwidth. *)
let self_path = { latency_s = 0.0; bandwidth_bps = Float.infinity }

let cross_rack =
  {
    latency_s = (2.0 *. local.latency_s) +. aggregation.latency_s;
    bandwidth_bps = Float.min local.bandwidth_bps aggregation.bandwidth_bps;
  }

let path t ~src ~dst =
  if src = dst then self_path
  else if t.rack_of.(src) = t.rack_of.(dst) then local
  else cross_rack

(* The cluster head (scheduler, job store) sits beside rack 0's ToR:
   reaching a rack-0 node is one local hop, anything else crosses the
   aggregation layer. Cold working sets stream from here. *)
let head_path t ~dst = if t.rack_of.(dst) = 0 then local else cross_rack

let page_transfer_time t ~src ~dst ~page_bytes =
  Interconnect.page_transfer_time (path t ~src ~dst) ~page_bytes

let batch_transfer_time t ~src ~dst ~pages ~page_bytes =
  Interconnect.batch_transfer_time (path t ~src ~dst) ~pages ~page_bytes

let describe t =
  let show l =
    Printf.sprintf "%.1fus/%.0fGb" (l.latency_s *. 1e6) (l.bandwidth_bps /. 1e9)
  in
  Printf.sprintf "%s: %d node(s) in %d rack(s) (x86=%d arm64=%d), local %s%s"
    (if t.racks = 1 then "flat" else "cluster")
    (nodes t) t.racks
    (isa_count t Isa.Arch.X86_64)
    (isa_count t Isa.Arch.Arm64)
    (show local)
    (if t.racks = 1 then "" else " agg " ^ show aggregation)
