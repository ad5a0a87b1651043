(** Cluster topology: racks of heterogeneous servers joined by a
    two-level interconnect, generalising the paper's single
    point-to-point {!Interconnect} between one Xeon and one X-Gene.

    Every node hangs off its rack's top-of-rack switch over the
    {!local} link; ToR switches talk through an {!aggregation} hop. A
    transfer's latency is the sum of the hops it crosses and its
    bandwidth the bottleneck hop, so migration and hDSM costs are
    path-dependent. A one-rack topology never crosses the aggregation
    layer: every distinct pair sees the local link, the original
    two-node cost model. *)

type link = Interconnect.t = { latency_s : float; bandwidth_bps : float }

type mix =
  | Alternate  (** node i is x86 when even, arm64 when odd *)
  | Isa_racks  (** whole racks of one ISA, alternating by rack *)
  | X86_only
  | Arm_only

val mixes : mix list
(** Every mix, in declaration order. *)

val mix_name : mix -> string
val mix_of_name : string -> mix option

type t = private {
  machines : Server.t array;  (** node id -> server *)
  rack_of : int array;  (** node id -> rack id *)
  racks : int;
}

val local : link
(** Node <-> its top-of-rack switch: {!Interconnect.ethernet_10g}. *)

val aggregation : link
(** ToR <-> ToR, a 40GbE fabric: faster, but its switch hops cost
    latency. *)

val make : ?mix:mix -> racks:int -> nodes_per_rack:int -> unit -> t
(** [racks] racks of [nodes_per_rack] nodes, ISAs by [mix] (default
    {!Alternate}). Raises [Invalid_argument] on non-positive rack/node
    counts. *)

val nodes : t -> int
val server : t -> int -> Server.t
val rack : t -> int -> int
val racks : t -> int
val isa_count : t -> Isa.Arch.t -> int

val path : t -> src:int -> dst:int -> link
(** Effective (src, dst) path: per-hop latencies summed, bottleneck
    bandwidth. [src = dst] is a free path (zero latency, infinite
    bandwidth). *)

val head_path : t -> dst:int -> link
(** Path from the cluster head (scheduler, job store — beside rack 0's
    ToR) to a node. Cold working sets stream over this. *)

val page_transfer_time : t -> src:int -> dst:int -> page_bytes:int -> float
(** {!Interconnect.page_transfer_time} over {!path}. *)

val batch_transfer_time :
  t -> src:int -> dst:int -> pages:int -> page_bytes:int -> float
(** {!Interconnect.batch_transfer_time} over {!path}. *)

val describe : t -> string
(** One line: ["flat"] for one rack, else ["cluster"]; node, rack and
    ISA counts; the links a transfer can cross. *)
