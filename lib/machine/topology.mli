(** Cluster topology: racks of heterogeneous servers joined by a
    two-level interconnect, generalising the paper's single
    point-to-point {!Interconnect} between one Xeon and one X-Gene.

    Every node hangs off its rack's top-of-rack switch over a [local]
    link; ToR switches talk through an [aggregation] hop. A transfer's
    latency is the sum of the hops it crosses and its bandwidth the
    bottleneck hop, so migration and hDSM costs are path-dependent. A
    {!flat} topology (one rack whose local link is the paper's
    interconnect) reproduces the original two-node cost model. *)

type link = { latency_s : float; bandwidth_bps : float }

type mix =
  | Alternate  (** node i is x86 when even, arm64 when odd *)
  | Isa_racks  (** whole racks of one ISA, alternating by rack *)
  | X86_only
  | Arm_only

val mix_name : mix -> string
val mix_of_name : string -> mix option

type t = private {
  name : string;
  machines : Server.t array;  (** node id -> server *)
  rack_of : int array;  (** node id -> rack id *)
  racks : int;
  local : link;  (** node <-> its top-of-rack switch *)
  aggregation : link;  (** ToR <-> ToR, via the aggregation layer *)
}

val tor_10g : link
(** 10GbE edge link to the rack switch. *)

val agg_40g : link
(** 40GbE aggregation fabric: faster, but its switch hops cost latency. *)

val link_of_interconnect : Interconnect.t -> link

val make :
  ?name:string ->
  ?mix:mix ->
  ?local:link ->
  ?aggregation:link ->
  racks:int ->
  nodes_per_rack:int ->
  unit ->
  t
(** Raises [Invalid_argument] on non-positive rack/node counts or
    non-positive/non-finite link parameters. *)

val flat : ?mix:mix -> nodes:int -> interconnect:Interconnect.t -> unit -> t
(** One rack whose single ToR hop is exactly [interconnect]: every
    distinct pair sees the paper's point-to-point numbers. *)

val nodes : t -> int
val server : t -> int -> Server.t
val rack : t -> int -> int
val racks : t -> int
val same_rack : t -> int -> int -> bool
val isa_count : t -> Isa.Arch.t -> int

val hops : t -> src:int -> dst:int -> int
(** Switch hops a (src, dst) transfer crosses: 0 within a node, 1
    within a rack, 3 across racks. *)

val path : t -> src:int -> dst:int -> link
(** Effective (src, dst) path: per-hop latencies summed, bottleneck
    bandwidth. [src = dst] is a free path (zero latency, infinite
    bandwidth). *)

val head_path : t -> dst:int -> link
(** Path from the cluster head (scheduler, job store — beside rack 0's
    ToR) to a node. Cold working sets stream over this. *)

val link_transfer_time : link -> bytes:int -> float

val page_transfer_time_link : link -> page_bytes:int -> float
(** Request + response carrying one page, as in
    {!Interconnect.page_transfer_time}. *)

val page_transfer_time : t -> src:int -> dst:int -> page_bytes:int -> float

val batch_transfer_time_link : link -> pages:int -> page_bytes:int -> float
(** One request + one response carrying the whole coalesced run. *)

val batch_transfer_time :
  t -> src:int -> dst:int -> pages:int -> page_bytes:int -> float

val min_path_latency : t -> float
(** Smallest distinct-pair path latency: the floor under every
    cross-island message delay, i.e. what topology-aware conservative
    lookahead adds on top of the control epoch. *)

val describe : t -> string
