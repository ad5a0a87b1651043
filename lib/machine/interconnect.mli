(** Inter-server interconnect model.

    The prototype's two motherboards are connected by a Dolphin ICS PXH810
    PCIe non-transparent bridge (up to 64 Gb/s), the fastest interconnect
    available when the paper's experiment was designed. *)

type t = {
  latency_s : float;  (** one-way message latency for a small message *)
  bandwidth_bps : float;  (** payload bandwidth, bits per second *)
}
(** All floats, so OCaml stores a link's two fields unboxed. *)

val dolphin_pxh810 : t
(** The paper's PCIe bridge: 1.5 us, 64 Gb/s. *)

val ethernet_10g : t
(** 10GbE, 20 us, 10 Gb/s: the ablation benches' slower alternative and
    every node's link to its rack switch in {!Topology}. *)

val transfer_time : t -> bytes:int -> float
(** One-way time to move [bytes]: latency + serialization. *)

val page_transfer_time : t -> page_bytes:int -> float
(** Time for one DSM page move including the request/response round trip. *)

val batch_transfer_time : t -> pages:int -> page_bytes:int -> float
(** Time to move [pages] contiguous pages as one request/response pair:
    a single round-trip latency amortized over the run, plus the
    unchanged serialization time of the full payload. Equal to
    {!page_transfer_time} when [pages = 1]. *)
