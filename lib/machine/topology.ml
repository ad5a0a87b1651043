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

   A [flat] topology — one rack whose local link is the paper's
   point-to-point interconnect — reproduces the original two-node cost
   model exactly, which keeps every pre-cluster scenario meaningful. *)

type link = { latency_s : float; bandwidth_bps : float }

type mix =
  | Alternate  (** node i is x86 when even, arm64 when odd *)
  | Isa_racks  (** whole racks of one ISA, alternating by rack *)
  | X86_only
  | Arm_only

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
  name : string;
  machines : Server.t array;  (* node id -> server *)
  rack_of : int array;  (* node id -> rack id *)
  racks : int;
  local : link;  (* node <-> its top-of-rack switch *)
  aggregation : link;  (* ToR <-> ToR, via the aggregation layer *)
}

(* Datacenter-grade defaults: 10GbE to the ToR, a 40GbE aggregation
   fabric whose extra switch hops cost latency even though it is
   faster. *)
let tor_10g = { latency_s = 20e-6; bandwidth_bps = 10e9 }
let agg_40g = { latency_s = 30e-6; bandwidth_bps = 40e9 }

let link_of_interconnect (ic : Interconnect.t) =
  { latency_s = ic.Interconnect.latency_s;
    bandwidth_bps = ic.Interconnect.bandwidth_bps }

let machine_for mix ~node ~rack =
  match mix with
  | Alternate ->
    if node mod 2 = 0 then Server.xeon_e5_1650_v2 else Server.xgene1
  | Isa_racks -> if rack mod 2 = 0 then Server.xeon_e5_1650_v2 else Server.xgene1
  | X86_only -> Server.xeon_e5_1650_v2
  | Arm_only -> Server.xgene1

let validate_link what l =
  if not (Float.is_finite l.latency_s) || l.latency_s <= 0.0 then
    invalid_arg (Printf.sprintf "Topology: %s latency must be positive" what);
  if not (Float.is_finite l.bandwidth_bps) || l.bandwidth_bps <= 0.0 then
    invalid_arg (Printf.sprintf "Topology: %s bandwidth must be positive" what)

let make ?(name = "cluster") ?(mix = Alternate) ?(local = tor_10g)
    ?(aggregation = agg_40g) ~racks ~nodes_per_rack () =
  if racks < 1 then invalid_arg "Topology.make: need at least one rack";
  if nodes_per_rack < 1 then
    invalid_arg "Topology.make: need at least one node per rack";
  validate_link "local" local;
  validate_link "aggregation" aggregation;
  let n = racks * nodes_per_rack in
  let rack_of = Array.init n (fun i -> i / nodes_per_rack) in
  let machines =
    Array.init n (fun i -> machine_for mix ~node:i ~rack:rack_of.(i))
  in
  { name; machines; rack_of; racks; local; aggregation }

(* One rack whose single ToR hop is exactly [interconnect]: every
   distinct pair sees the paper's point-to-point numbers. *)
let flat ?(mix = Alternate) ~nodes ~interconnect () =
  if nodes < 1 then invalid_arg "Topology.flat: need at least one node";
  make ~name:"flat" ~mix ~local:(link_of_interconnect interconnect)
    ~aggregation:(link_of_interconnect interconnect) ~racks:1
    ~nodes_per_rack:nodes ()

let nodes t = Array.length t.machines
let server t i = t.machines.(i)
let rack t i = t.rack_of.(i)
let racks t = t.racks
let same_rack t i j = t.rack_of.(i) = t.rack_of.(j)

let isa_count t arch =
  Array.fold_left
    (fun acc (m : Server.t) -> if m.Server.arch = arch then acc + 1 else acc)
    0 t.machines

(* Switch hops a (src, dst) transfer crosses: 0 within a node, the ToR
   within a rack, ToR -> aggregation -> ToR across racks. *)
let hops t ~src ~dst =
  if src = dst then 0 else if same_rack t src dst then 1 else 3

(* Effective path: latency adds per hop, bandwidth is the bottleneck. *)
let path t ~src ~dst =
  if src = dst then { latency_s = 0.0; bandwidth_bps = Float.infinity }
  else if same_rack t src dst then t.local
  else
    {
      latency_s = (2.0 *. t.local.latency_s) +. t.aggregation.latency_s;
      bandwidth_bps = Float.min t.local.bandwidth_bps t.aggregation.bandwidth_bps;
    }

(* The cluster head (scheduler, job store) sits beside rack 0's ToR:
   reaching a rack-0 node is one local hop, anything else crosses the
   aggregation layer. Cold working sets stream from here. *)
let head_path t ~dst =
  if t.rack_of.(dst) = 0 then t.local
  else
    {
      latency_s = t.local.latency_s +. t.aggregation.latency_s
                  +. t.local.latency_s;
      bandwidth_bps = Float.min t.local.bandwidth_bps t.aggregation.bandwidth_bps;
    }

let link_transfer_time l ~bytes =
  l.latency_s +. (float_of_int (bytes * 8) /. l.bandwidth_bps)

(* Request message (small) + response carrying the page, as in
   {!Interconnect.page_transfer_time}. *)
let page_transfer_time_link l ~page_bytes =
  l.latency_s +. link_transfer_time l ~bytes:page_bytes

let page_transfer_time t ~src ~dst ~page_bytes =
  page_transfer_time_link (path t ~src ~dst) ~page_bytes

(* One request + one response carrying the whole coalesced run. *)
let batch_transfer_time_link l ~pages ~page_bytes =
  l.latency_s +. link_transfer_time l ~bytes:(pages * page_bytes)

let batch_transfer_time t ~src ~dst ~pages ~page_bytes =
  batch_transfer_time_link (path t ~src ~dst) ~pages ~page_bytes

(* Smallest distinct-pair path latency: the floor under every
   cross-island message delay, i.e. what topology-aware conservative
   lookahead adds on top of the control epoch. *)
let min_path_latency t =
  let some_rack_has_pair =
    let counts = Array.make t.racks 0 in
    Array.iter (fun r -> counts.(r) <- counts.(r) + 1) t.rack_of;
    Array.exists (fun c -> c >= 2) counts
  in
  if some_rack_has_pair || t.racks < 2 then t.local.latency_s
  else (2.0 *. t.local.latency_s) +. t.aggregation.latency_s

let describe t =
  Printf.sprintf "%s: %d node(s) in %d rack(s) (x86=%d arm64=%d), %s" t.name
    (nodes t) t.racks
    (isa_count t Isa.Arch.X86_64)
    (isa_count t Isa.Arch.Arm64)
    (if t.racks = 1 then
       Printf.sprintf "local %.1fus/%.0fGb" (t.local.latency_s *. 1e6)
         (t.local.bandwidth_bps /. 1e9)
     else
       Printf.sprintf "local %.1fus/%.0fGb agg %.1fus/%.0fGb"
         (t.local.latency_s *. 1e6)
         (t.local.bandwidth_bps /. 1e9)
         (t.aggregation.latency_s *. 1e6)
         (t.aggregation.bandwidth_bps /. 1e9))
