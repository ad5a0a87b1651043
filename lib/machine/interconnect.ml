type t = { latency_s : float; bandwidth_bps : float }

let dolphin_pxh810 = { latency_s = 1.5e-6; bandwidth_bps = 64e9 }
let ethernet_10g = { latency_s = 20e-6; bandwidth_bps = 10e9 }

let transfer_time t ~bytes =
  t.latency_s +. (float_of_int (bytes * 8) /. t.bandwidth_bps)

let page_transfer_time t ~page_bytes =
  (* Request message (small) + response carrying the page. *)
  t.latency_s +. transfer_time t ~bytes:page_bytes

let batch_transfer_time t ~pages ~page_bytes =
  (* One request + one response carrying the whole coalesced run: the
     per-page round-trip latency is amortized, the bandwidth term is not. *)
  t.latency_s +. transfer_time t ~bytes:(pages * page_bytes)
