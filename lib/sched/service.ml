(* Open-loop request serving with latency SLOs on the time-island
   runtime.

   Topology mirrors `Cluster`'s: island 0 is the router/controller, islands
   1..N are nodes alternating x86 (Xeon) and arm64 (X-Gene) servers.
   Long-lived service instances are pinned to nodes; requests arrive
   open-loop from a streaming `Arrival.source` (they keep coming whether
   or not earlier ones finished — that is what produces real queueing
   tails), flow router -> node -> worker -> response, and every
   cross-island hop is epoch-batched, so the epoch is the runtime's
   conservative lookahead and a run is bit-identical whatever the
   domain count.

   The request hot path is allocation-light by construction, which is
   what lets one run push millions of requests with memory independent
   of trace length:

     - arrivals are pulled one at a time from an `Arrival.stream`
       (constant-memory generators / chunked file replay) and scheduled
       lazily — the calendar holds one pending arrival, not the trace;
     - per-instance queues are `Sim.Ring` scalar rings (arrival time +
       rid lanes), so queuing a request moves two scalars;
     - latencies accumulate directly into per-node log-histogram count
       arrays (plus an exact sum for the mean) — no `latencies_ms`
       lists, no end-of-run sort;
     - each service's sliding p99 window is a `Sim.Window_hist` with
       one entry per (epoch, latency bucket) and a count: adding a
       response's sample or pruning it is O(1) amortized, and the
       window holds O(buckets x window_s / epoch_s) entries whatever
       the request rate.

   Services are replica groups: each service may run instances on
   several nodes at once, and the router picks among live replicas with
   deterministic power-of-two-choices (two island-0 PRNG draws against
   an outstanding-requests estimate) or least-loaded selection. With a
   single replica no draw happens and routing degenerates to the
   classic home-node path. Escalation under the SLO-aware policy adds
   x86 replicas (scale-out) while headroom remains and retires them
   back onto the ARM anchors (scale-in) when the window goes quiet;
   with max_replicas = 1 it reduces to PR-7 stop-and-copy moves.

   Migration machinery is unchanged underneath: drain-based
   stop-and-copy with per-service generation counters guarding stale
   drain/land/ack messages. A scale-out is a landing with an empty
   carried queue; a scale-in drains the victim and lands its backlog
   onto a surviving replica (merging queues); the drained backlog is
   detached in O(1) (`Ring.detach`) instead of being copied into a
   list per migration. *)

type policy = Slo_aware | Static_x86 | Static_arm

let policy_name = function
  | Slo_aware -> "slo-aware"
  | Static_x86 -> "static-x86"
  | Static_arm -> "static-arm"

type routing = P2c | Least_loaded

let routing_name = function P2c -> "p2c" | Least_loaded -> "least-loaded"

type config = {
  nodes : int;
  seed : int;
  epoch_s : float;  (** routing/report batching epoch = lookahead *)
  slo_ms : float;
  policy : policy;
  window_s : float;  (** sliding window for the p99 estimate *)
  demand_instructions : float;  (** mean per-request work *)
  demand_sigma : float;  (** lognormal sigma of per-request work *)
  workers : int;  (** concurrent requests per service instance *)
  zero_downtime : bool;  (** ablation stub: migrations pause nothing *)
  crashes : Faults.Plan.crash list;
  replicas : int;  (** initial replicas per service *)
  max_replicas : int;  (** scale-out ceiling for the SLO policy *)
  routing : routing;
  limit : int;  (** cap on requests pulled from the source; 0 = all *)
  source : Arrival.source;
}

let default ~nodes ~seed ~source =
  {
    nodes;
    seed;
    epoch_s = 0.05;
    slo_ms = 150.0;
    policy = Slo_aware;
    window_s = 5.0;
    demand_instructions = 5e7;
    demand_sigma = 0.5;
    workers = 4;
    zero_downtime = false;
    crashes = [];
    replicas = 1;
    max_replicas = 1;
    routing = P2c;
    limit = 0;
    source;
  }

type result = {
  tname : string;
  services : int;
  arrived : int;
  responded : int;
  dropped : int;
  in_flight_at_end : int;
  forwarded : int;
  migrations : int;
  scale_outs : int;
  downtime_s : float;
  slo_violations : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  makespan : float;
  energy_x86_j : float;
  energy_arm_j : float;
  total_energy_j : float;
  events : int;
  windows : int;
}

(* --- latency histograms ------------------------------------------------ *)

(* Latency histograms, the per-node final ones and each service's p99
   window alike: base 2, 48 buckets — 2^47 ms upper edge, far beyond
   any simulated latency, so clamping never distorts the tail. A
   response is binned once and its bucket feeds both. The bucket
   function must agree bit-for-bit with [Sim.Stats.log_histogram] so
   [Sim.Stats.percentile] reads these count arrays with its own edge
   semantics. *)
let lat_buckets = 48

let bucket_of x =
  if x < 1.0 then 0
  else begin
    (* floor(log2 x) from the IEEE exponent field — exact at bucket
       edges and transcendental-free; mirrors the base-2 fast path in
       [Sim.Stats.log_histogram]. *)
    let b =
      (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52)
      land 0x7FF)
      - 1023
    in
    if b >= lat_buckets then lat_buckets - 1 else b
  end

let grow_int a =
  let b = Array.make (max 8 (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a =
  let b = Array.make (max 8 (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let lat_bucket_lo =
  Array.init lat_buckets (fun i -> 2.0 ** float_of_int i)

(* --- per-island state -------------------------------------------------- *)

(* All-float record: OCaml stores these fields flat, so the hot path's
   per-request accumulator stores (energy, clock, latency sum, pause
   budget) never allocate a float box or hit the GC write barrier. *)
type node_floats = {
  mutable energy_j : float;
  mutable last_update : float;
  mutable lat_sum_ms : float;
  mutable downtime_s : float;
  mutable inv_ips : float;  (* seconds per instruction, memory-bound *)
}

type node_state = {
  node_id : int;
  machine : Machine.Server.t;
  power_tbl : float array;
      (* system power at [min busy cores] in-flight requests; sleep and
         crash are branched separately in [settle]. Precomputed so the
         twice-per-request settle never re-derives the affine model
         through a cross-module float call the compiler cannot unbox. *)
  nf : node_floats;
  mutable crashed : bool;
  mutable busy : int;  (** executing requests, all services *)
  mutable hosted_count : int;
  hosted : bool array;  (* per service *)
  draining : bool array;
  drain_dst : int array;
  drain_gen : int array;
  forward : int array;  (* -1 = none; else re-post arrivals there *)
  queues : Sim.Ring.t array;  (* float = arrival time, int = rid *)
  executing : int array;
  mutable responded : int;
  mutable dropped : int;
  mutable forwarded : int;
  mutable migrations_out : int;
  lat_counts : int array;  (* response latency histogram, ms *)
  mutable lat_n : int;
  (* Per-epoch response digest under accumulation: completions are
     batched node-side and shipped to the controller as one message per
     node per epoch instead of one per response — the router reads
     load/latency at epoch resolution anyway, and this removes a
     cross-island event per request from the hot path. *)
  mutable dg_pending : bool;  (* a flush event is scheduled *)
  mutable dg_resp : int;
  mutable dg_viol : int;
  dg_svc_count : int array;  (* per-service completions this epoch *)
  dg_touched : int array;
  mutable dg_touched_n : int;
  mutable dg_lat : int array;  (* packed svc*64 + latency bucket *)
  mutable dg_lat_n : int;
  mutable dg_ms : float array;  (* raw latencies, observability only *)
  mutable dg_ms_n : int;
}

type ctrl_state = {
  hosting : bool array array;  (* service x node replica map *)
  reps : int array array;  (* hosting node ids, ascending *)
  rep_n : int array;
  outstanding : int array array;
      (* routed-minus-resolved per (service, node): the load estimate
         the router balances on. Deterministic; saturates at 0 (a
         forwarded request resolves on a different node than it was
         billed to, which only happens inside migration transients). *)
  gen : int array;  (* migration generation, stale-message guard *)
  migrating : bool array;
  op_src : int array;  (* -1 = install (no drain leg) *)
  op_scale_out : bool array;
  last_move : float array;
  alive : bool array;  (* controller's view of the nodes *)
  last_arr : float array;
      (* latest routed arrival time ([neg_infinity] before the first):
         arrivals are routed in nondecreasing time, so no arrival lies
         in the window [now - window_s, now] iff this is before it *)
  lat_win : Sim.Window_hist.t array;  (* (resolve time, latency bucket) *)
  spans : Obs.span option array;  (* open migration spans *)
  mutable arrived : int;
  mutable resolved : int;  (* responses + drops accounted *)
  mutable router_dropped : int;
  mutable slo_violations : int;
  mutable scale_outs : int;
  end_time : node_floats;  (* only [last_update] is used: max resolve time *)
  mutable exhausted : bool;  (* the arrival stream ran dry *)
}

let machine_for i =
  if i mod 2 = 0 then Machine.Server.xeon_e5_1650_v2 else Machine.Server.xgene1

let is_x86_node i = i mod 2 = 0

(* A node's power state: off when crashed, the low-power state when it
   hosts nothing (service-free servers sleep — the energy the SLO policy
   harvests by parking idle services on fewer machines), else the affine
   utilization model, read from the node's [Machine.Server.load_watts]
   table indexed by the in-flight count (clamped at the core count,
   where utilization saturates). *)
let settle ns ~now =
  let nf = ns.nf in
  let p =
    if ns.crashed then 0.0
    else if ns.hosted_count = 0 && ns.busy = 0 then
      ns.machine.Machine.Server.power.Machine.Power.sleep_w
    else
      let cores = ns.machine.Machine.Server.cores in
      Array.unsafe_get ns.power_tbl
        (if ns.busy >= cores then cores else ns.busy)
  in
  nf.energy_j <- nf.energy_j +. ((now -. nf.last_update) *. p);
  nf.last_update <- now

(* Per-request demand is a pure function of the request id: no island
   stream is consulted, so routing/migration decisions can reshuffle
   which island executes a request without perturbing any draw order. *)
let demand_for cfg rid =
  let sigma = cfg.demand_sigma in
  if sigma <= 0.0 then cfg.demand_instructions
  else
    cfg.demand_instructions
    *. Sim.Prng.lognormal_of_seed
         (cfg.seed lxor ((rid + 1) * 0x9e3779b1))
         ~mu:(-0.5 *. sigma *. sigma) ~sigma

(* Every node pair talks over the paper's 10GbE link; each instance
   queues at most [queue_cap] requests (overflow drops) and moves a
   64 MiB working set when it migrates. *)
let interconnect = Machine.Interconnect.ethernet_10g
let epoch_floor_s = interconnect.Machine.Interconnect.latency_s
let queue_cap = 512
let footprint_bytes = 64 * 1024 * 1024

(* Stop-and-copy pause charged when a drained instance leaves its node:
   state transformation, the working set as one batched stream, and the
   strong-consistency re-homing of the instance's kernel-service slices
   (PR-3's downtime model extended with `Kernel.Service`). *)
let migration_pause cfg =
  if cfg.zero_downtime then 0.0
  else
    300e-6
    +. Machine.Interconnect.batch_transfer_time interconnect
         ~pages:(Memsys.Page.count ~bytes:footprint_bytes)
         ~page_bytes:Memsys.Page.size
    +. Kernel.Service.replication_cost ~consistency:Kernel.Service.Strong
         ~interconnect ~replicas:cfg.nodes ~entries:4

(* --- the simulation ---------------------------------------------------- *)

let run_impl ?(domains = 1) ?(obs = Obs.noop) ~capture cfg =
  if cfg.nodes < 2 then invalid_arg "Service.run: need at least 2 nodes";
  if cfg.epoch_s <= epoch_floor_s then
    invalid_arg "Service.run: epoch must exceed the interconnect latency";
  if cfg.workers < 1 then invalid_arg "Service.run: need at least one worker";
  (* The SLO tick re-arms every window: a zero window would fire at the
     same instant forever. *)
  if not (Float.is_finite cfg.window_s && cfg.window_s > 0.0) then
    invalid_arg "Service.run: window must be finite and positive";
  if not (Float.is_finite cfg.demand_instructions
          && cfg.demand_instructions >= 0.0)
  then invalid_arg "Service.run: demand must be finite and non-negative";
  if cfg.replicas < 1 then
    invalid_arg "Service.run: need at least one replica";
  if cfg.max_replicas < cfg.replicas then
    invalid_arg "Service.run: max_replicas below replicas";
  if cfg.limit < 0 then invalid_arg "Service.run: negative limit";
  List.iter
    (fun (c : Faults.Plan.crash) ->
      if c.Faults.Plan.node < 0 || c.Faults.Plan.node >= cfg.nodes then
        invalid_arg
          (Printf.sprintf "Service.run: crash at unknown node %d"
             c.Faults.Plan.node);
      if c.Faults.Plan.at < 0.0 then
        invalid_arg "Service.run: crash before t=0")
    cfg.crashes;
  let stream =
    Arrival.open_stream
      ?limit:(if cfg.limit > 0 then Some cfg.limit else None)
      cfg.source
  in
  Fun.protect ~finally:(fun () -> Arrival.close_stream stream) @@ fun () ->
  let services = Arrival.stream_services stream in
  if services < 1 then invalid_arg "Service.run: trace has no services";
  let tname = Arrival.stream_name stream in
  let rt =
    Sim.Islands.create ~capture ~islands:(cfg.nodes + 1) ~lookahead:cfg.epoch_s
      ~seed:cfg.seed ()
  in
  (* Ownership tags for the island race audit. The controller island (0)
     owns the routing/window state (resource 0); node island i+1 owns
     three resources: node i's serving state (busy/hosted/accounting),
     its request queues, and its latency-histogram/digest buffers —
     split so a diagnostic names which structure was touched. Guarded by
     a local immutable bool so plain runs pay one predictable branch. *)
  let audit = capture in
  let touch_ctrl isl =
    if audit then Sim.Islands.touch isl ~owner:0 ~resource:0 ~write:true
  in
  let touch_state isl nid =
    if audit then
      Sim.Islands.touch isl ~owner:(nid + 1) ~resource:(1 + (nid * 3))
        ~write:true
  in
  let touch_queue isl nid =
    if audit then
      Sim.Islands.touch isl ~owner:(nid + 1) ~resource:(2 + (nid * 3))
        ~write:true
  in
  let touch_hist isl nid =
    if audit then
      Sim.Islands.touch isl ~owner:(nid + 1) ~resource:(3 + (nid * 3))
        ~write:true
  in
  let nodes =
    Array.init cfg.nodes (fun i ->
        {
          node_id = i;
          machine = machine_for i;
          power_tbl = Machine.Server.load_watts (machine_for i);
          nf =
            {
              energy_j = 0.0;
              last_update = 0.0;
              lat_sum_ms = 0.0;
              downtime_s = 0.0;
              inv_ips =
                Isa.Cost_model.seconds_for (machine_for i).Machine.Server.cost
                  Isa.Cost_model.Memory ~instructions:1.0;
            };
          crashed = false;
          busy = 0;
          hosted_count = 0;
          hosted = Array.make services false;
          draining = Array.make services false;
          drain_dst = Array.make services (-1);
          drain_gen = Array.make services 0;
          forward = Array.make services (-1);
          queues = Array.init services (fun _ -> Sim.Ring.create ());
          executing = Array.make services 0;
          responded = 0;
          dropped = 0;
          forwarded = 0;
          migrations_out = 0;
          lat_counts = Array.make lat_buckets 0;
          lat_n = 0;
          dg_pending = false;
          dg_resp = 0;
          dg_viol = 0;
          dg_svc_count = Array.make services 0;
          dg_touched = Array.make services 0;
          dg_touched_n = 0;
          dg_lat = [||];
          dg_lat_n = 0;
          dg_ms = [||];
          dg_ms_n = 0;
        })
  in
  (* Static per-service anchors on each side of the ISA boundary: x86
     anchors spread 1:1 over the even nodes (performance placement),
     ARM anchors pack two services per odd node (energy placement —
     parking a pair of idle services on one ARM server lets two x86
     servers sleep, which is where the SLO policy's consolidation win
     comes from). Replica r of a service sits r steps further along its
     side's anchor chain, so placement stays a pure function of the
     service id, the replica index, and the policy history. *)
  let x86_ids =
    Array.of_list (List.filter is_x86_node (List.init cfg.nodes Fun.id))
  in
  let arm_ids =
    Array.of_list
      (List.filter (fun i -> not (is_x86_node i)) (List.init cfg.nodes Fun.id))
  in
  if Array.length x86_ids = 0 || Array.length arm_ids = 0 then
    invalid_arg "Service.run: need nodes on both sides of the ISA boundary";
  let x86_anchor s r = x86_ids.((s + r) mod Array.length x86_ids) in
  let arm_anchor s r = arm_ids.(((s / 2) + r) mod Array.length arm_ids) in
  let ctrl =
    {
      hosting = Array.init services (fun _ -> Array.make cfg.nodes false);
      reps = Array.init services (fun _ -> Array.make cfg.nodes 0);
      rep_n = Array.make services 0;
      outstanding = Array.init services (fun _ -> Array.make cfg.nodes 0);
      gen = Array.make services 0;
      migrating = Array.make services false;
      op_src = Array.make services (-1);
      op_scale_out = Array.make services false;
      last_move = Array.make services 0.0;
      alive = Array.make cfg.nodes true;
      last_arr = Array.make services neg_infinity;
      lat_win =
        Array.init services (fun _ ->
            Sim.Window_hist.create ~bucket_lo:lat_bucket_lo);
      spans = Array.make services None;
      arrived = 0;
      resolved = 0;
      router_dropped = 0;
      slo_violations = 0;
      scale_outs = 0;
      end_time =
        {
          energy_j = 0.0;
          last_update = 0.0;
          lat_sum_ms = 0.0;
          downtime_s = 0.0;
          inv_ips = 0.0;
        };
      exhausted = false;
    }
  in
  (* Replica-set maintenance: [reps] mirrors [hosting] as a sorted node
     list so routing scans live replicas in deterministic ascending
     order. Sets are tiny (<= max_replicas), so insertion shifts are
     cheap and allocation-free. *)
  let rep_add svc node =
    if not ctrl.hosting.(svc).(node) then begin
      ctrl.hosting.(svc).(node) <- true;
      let arr = ctrl.reps.(svc) in
      let n = ctrl.rep_n.(svc) in
      let i = ref n in
      while !i > 0 && arr.(!i - 1) > node do
        arr.(!i) <- arr.(!i - 1);
        decr i
      done;
      arr.(!i) <- node;
      ctrl.rep_n.(svc) <- n + 1
    end
  in
  let rep_remove svc node =
    if ctrl.hosting.(svc).(node) then begin
      ctrl.hosting.(svc).(node) <- false;
      let arr = ctrl.reps.(svc) in
      let n = ctrl.rep_n.(svc) in
      let j = ref 0 in
      while arr.(!j) <> node do
        incr j
      done;
      for k = !j to n - 2 do
        arr.(k) <- arr.(k + 1)
      done;
      ctrl.rep_n.(svc) <- n - 1
    end
  in
  (* Live replicas of [svc], written into [live_scratch] in ascending
     node order; returns the count. Zero-alloc. *)
  let live_scratch = Array.make cfg.nodes 0 in
  let live_reps svc =
    let n = ref 0 in
    for k = 0 to ctrl.rep_n.(svc) - 1 do
      let nd = ctrl.reps.(svc).(k) in
      if ctrl.alive.(nd) then begin
        live_scratch.(!n) <- nd;
        incr n
      end
    done;
    !n
  in
  (* Deterministic replica selection. One live replica: no PRNG draw,
     the classic single-home path. Otherwise power-of-two-choices (two
     island-0 draws, fewer outstanding wins, ties to the lower node id)
     or a full least-loaded scan. *)
  let select_replica svc isl =
    let ln = live_reps svc in
    if ln = 0 then -1
    else if ln = 1 then live_scratch.(0)
    else begin
      match cfg.routing with
      | Least_loaded ->
        let best = ref live_scratch.(0) in
        let best_out = ref ctrl.outstanding.(svc).(!best) in
        for k = 1 to ln - 1 do
          let nd = live_scratch.(k) in
          let o = ctrl.outstanding.(svc).(nd) in
          if o < !best_out then begin
            best := nd;
            best_out := o
          end
        done;
        !best
      | P2c ->
        let rng = Sim.Islands.prng isl in
        let a = live_scratch.(Sim.Prng.int rng ln) in
        let b = live_scratch.(Sim.Prng.int rng ln) in
        let oa = ctrl.outstanding.(svc).(a) in
        let ob = ctrl.outstanding.(svc).(b) in
        if oa < ob then a
        else if ob < oa then b
        else min a b
    end
  in
  (* Install the initial placement at t=0, before any event runs. *)
  for s = 0 to services - 1 do
    for r = 0 to cfg.replicas - 1 do
      let node =
        match cfg.policy with
        | Static_x86 -> x86_anchor s r
        | Static_arm | Slo_aware -> arm_anchor s r
      in
      if not ctrl.hosting.(s).(node) then begin
        rep_add s node;
        let ns = nodes.(node) in
        ns.hosted.(s) <- true;
        ns.hosted_count <- ns.hosted_count + 1
      end
    done
  done;
  let pause = migration_pause cfg in
  let epoch = cfg.epoch_s in
  let slo_aware = cfg.policy = Slo_aware in

  (* --- controller-side resolution (island 0 only) ---------------------- *)
  let note_resolved isl =
    let c = ctrl.end_time in
    let now = Sim.Islands.now isl in
    if now > c.last_update then c.last_update <- now
  in
  let dec_outstanding svc node by =
    if node >= 0 then begin
      let o = ctrl.outstanding.(svc).(node) - by in
      ctrl.outstanding.(svc).(node) <- (if o > 0 then o else 0)
    end
  in
  (* One response digest from a node: an epoch's completions applied in
     a single event. Window-latency samples all carry the digest's
     arrival time, which is the same grid point for every node's digest
     of a given epoch, so each service's window stays time-ordered for
     the O(1) prune and holds one entry per (epoch, bucket). *)
  (* [packed] holds [pairs] (svc, count) pairs, then the packed window
     samples (see [finish_request]). *)
  let apply_digest node resp viol pairs packed ms isl =
    touch_ctrl isl;
    ctrl.resolved <- ctrl.resolved + resp;
    ctrl.slo_violations <- ctrl.slo_violations + viol;
    for k = 0 to pairs - 1 do
      dec_outstanding packed.(2 * k) node packed.((2 * k) + 1)
    done;
    if slo_aware then begin
      let nowt = Sim.Islands.now isl in
      for k = 2 * pairs to Array.length packed - 1 do
        let p = packed.(k) in
        Sim.Window_hist.add ctrl.lat_win.(p lsr 6) nowt (p land 63)
      done
    end;
    for k = 0 to Array.length ms - 1 do
      Obs.observe obs "serve.latency_ms" ms.(k)
    done;
    Obs.incr ~by:resp obs "serve.responded";
    note_resolved isl
  in
  (* Node-side drops, billed to (svc, node)'s outstanding column. A
     crash wipe passes node -1, which bills nothing: the controller
     zeroes the whole column when it learns of the crash. *)
  let resolve_drops svc node count isl =
    touch_ctrl isl;
    ctrl.resolved <- ctrl.resolved + count;
    dec_outstanding svc node count;
    Obs.incr ~by:count obs "serve.dropped";
    note_resolved isl
  in

  (* --- node islands (island id = node_id + 1) -------------------------- *)
  (* [n] of [svc]'s requests dropped at [ns]: counted on the node and
     resolved at the controller, billed to [ns] unless [bill] is given. *)
  let drop ns ?(bill = ns.node_id) svc n isl =
    if n > 0 then begin
      ns.dropped <- ns.dropped + n;
      Sim.Islands.post isl ~dst:0 ~after:epoch (resolve_drops svc bill n)
    end
  in
  let rec start_request ns svc rid at isl =
    touch_state isl ns.node_id;
    let now = Sim.Islands.now isl in
    settle ns ~now;
    ns.busy <- ns.busy + 1;
    ns.executing.(svc) <- ns.executing.(svc) + 1;
    let m = ns.machine in
    let compute = demand_for cfg rid *. ns.nf.inv_ips in
    let contention =
      Float.max 1.0
        (float_of_int ns.busy /. float_of_int m.Machine.Server.cores)
    in
    Sim.Islands.schedule isl
      ~at:(now +. (compute *. contention))
      (fun isl -> finish_request ns svc at isl)

  and finish_request ns svc at isl =
    (* A crash while this request executed already reported it dropped
       and zeroed the worker accounting; the completion is void. *)
    if not ns.crashed then begin
      touch_state isl ns.node_id;
      touch_hist isl ns.node_id;
      let now = Sim.Islands.now isl in
      settle ns ~now;
      ns.busy <- ns.busy - 1;
      ns.executing.(svc) <- ns.executing.(svc) - 1;
      let lat_ms = (now -. at) *. 1e3 in
      ns.responded <- ns.responded + 1;
      let b = bucket_of lat_ms in
      ns.lat_counts.(b) <- ns.lat_counts.(b) + 1;
      ns.nf.lat_sum_ms <- ns.nf.lat_sum_ms +. lat_ms;
      ns.lat_n <- ns.lat_n + 1;
      (* Accumulate into the epoch digest instead of posting one
         controller event per response. *)
      ns.dg_resp <- ns.dg_resp + 1;
      if lat_ms > cfg.slo_ms then ns.dg_viol <- ns.dg_viol + 1;
      let c = ns.dg_svc_count.(svc) in
      if c = 0 then begin
        ns.dg_touched.(ns.dg_touched_n) <- svc;
        ns.dg_touched_n <- ns.dg_touched_n + 1
      end;
      ns.dg_svc_count.(svc) <- c + 1;
      if slo_aware then begin
        if ns.dg_lat_n = Array.length ns.dg_lat then
          ns.dg_lat <- grow_int ns.dg_lat;
        ns.dg_lat.(ns.dg_lat_n) <- (svc lsl 6) lor b;
        ns.dg_lat_n <- ns.dg_lat_n + 1
      end;
      if Obs.enabled obs then begin
        if ns.dg_ms_n = Array.length ns.dg_ms then
          ns.dg_ms <- grow_float ns.dg_ms;
        ns.dg_ms.(ns.dg_ms_n) <- lat_ms;
        ns.dg_ms_n <- ns.dg_ms_n + 1
      end;
      if not ns.dg_pending then begin
        ns.dg_pending <- true;
        let flush_at = (Float.floor (now /. epoch) +. 1.0) *. epoch in
        Sim.Islands.schedule isl ~at:flush_at (fun isl ->
            flush_digest ns isl)
      end;
      if ns.draining.(svc) && ns.executing.(svc) = 0 then finish_drain ns svc isl
      else start_next ns svc isl
    end

  and flush_digest ns isl =
    touch_hist isl ns.node_id;
    let resp = ns.dg_resp and viol = ns.dg_viol in
    let tn = ns.dg_touched_n in
    let packed = Array.make ((2 * tn) + ns.dg_lat_n) 0 in
    for k = 0 to tn - 1 do
      let svc = ns.dg_touched.(k) in
      packed.(2 * k) <- svc;
      packed.((2 * k) + 1) <- ns.dg_svc_count.(svc);
      ns.dg_svc_count.(svc) <- 0
    done;
    Array.blit ns.dg_lat 0 packed (2 * tn) ns.dg_lat_n;
    ns.dg_touched_n <- 0;
    ns.dg_resp <- 0;
    ns.dg_viol <- 0;
    ns.dg_lat_n <- 0;
    let ms = if ns.dg_ms_n = 0 then [||] else Array.sub ns.dg_ms 0 ns.dg_ms_n in
    ns.dg_ms_n <- 0;
    ns.dg_pending <- false;
    Sim.Islands.post isl ~dst:0 ~after:epoch
      (apply_digest ns.node_id resp viol tn packed ms)

  and start_next ns svc isl =
    touch_queue isl ns.node_id;
    if
      ns.hosted.(svc)
      && (not ns.draining.(svc))
      && ns.executing.(svc) < cfg.workers
      && not (Sim.Ring.is_empty ns.queues.(svc))
    then begin
      let q = ns.queues.(svc) in
      let at = Sim.Ring.peek_f q in
      let rid = Sim.Ring.pop q in
      start_request ns svc rid at isl;
      start_next ns svc isl
    end

  and deliver ns svc rid at isl =
    touch_queue isl ns.node_id;
    if ns.crashed then drop ns svc 1 isl
    else if ns.hosted.(svc) then begin
      if (not ns.draining.(svc)) && ns.executing.(svc) < cfg.workers then
        start_request ns svc rid at isl
      else if Sim.Ring.length ns.queues.(svc) < queue_cap then
        Sim.Ring.push ns.queues.(svc) at rid
      else drop ns svc 1 isl
    end
    else if ns.forward.(svc) >= 0 then begin
      (* The instance left while this request was in flight; chase it.
         Forward pointers always lead to the newer home (the landing
         node clears its own), so the chase terminates. *)
      ns.forwarded <- ns.forwarded + 1;
      let dst = ns.forward.(svc) in
      Sim.Islands.post isl ~dst:(dst + 1) ~after:epoch (fun isl ->
          deliver nodes.(dst) svc rid at isl)
    end
    else begin
      (* Stray: routed here during a crash-recovery transient, before
         the replacement instance landed. Reject rather than buffer —
         the request has nowhere deterministic to wait. *)
      drop ns svc 1 isl
    end

  and drain_cmd svc dst gen isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_state isl ns.node_id;
    if ns.crashed || not ns.hosted.(svc) then
      Sim.Islands.post isl ~dst:0 ~after:epoch (move_failed svc gen)
    else begin
      ns.draining.(svc) <- true;
      ns.drain_dst.(svc) <- dst;
      ns.drain_gen.(svc) <- gen;
      if ns.executing.(svc) = 0 then finish_drain ns svc isl
    end

  and finish_drain ns svc isl =
    touch_state isl ns.node_id;
    touch_queue isl ns.node_id;
    let now = Sim.Islands.now isl in
    let dst = ns.drain_dst.(svc) in
    let gen = ns.drain_gen.(svc) in
    settle ns ~now;
    ns.hosted.(svc) <- false;
    ns.hosted_count <- ns.hosted_count - 1;
    ns.draining.(svc) <- false;
    ns.drain_dst.(svc) <- -1;
    ns.forward.(svc) <- dst;
    ns.migrations_out <- ns.migrations_out + 1;
    ns.nf.downtime_s <- ns.nf.downtime_s +. pause;
    (* The queue travels with the instance and waits out the pause:
       this is the downtime-vs-tail trade — every carried request's
       latency inflates by at least the stop-and-copy time. Detaching
       is an O(1) backing-array swap, so draining a deep backlog costs
       nothing beyond the messages it already owed. *)
    let carried = Sim.Ring.detach ns.queues.(svc) in
    Sim.Islands.post isl ~dst:(dst + 1)
      ~after:(Float.max epoch pause)
      (land_cmd svc gen carried)

  and land_cmd svc gen carried isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_state isl ns.node_id;
    touch_queue isl ns.node_id;
    if ns.crashed then begin
      drop ns svc (Sim.Ring.length carried) isl;
      Sim.Islands.post isl ~dst:0 ~after:epoch (move_failed svc gen)
    end
    else begin
      let now = Sim.Islands.now isl in
      settle ns ~now;
      if not ns.hosted.(svc) then begin
        ns.hosted.(svc) <- true;
        ns.hosted_count <- ns.hosted_count + 1
      end;
      ns.draining.(svc) <- false;
      ns.forward.(svc) <- -1;
      (* Merge the carried backlog behind whatever this instance
         already queued (scale-in lands on a live replica). *)
      let q = ns.queues.(svc) in
      let over = ref 0 in
      Sim.Ring.iter carried (fun at rid ->
          if Sim.Ring.length q < queue_cap then Sim.Ring.push q at rid
          else incr over);
      drop ns svc !over isl;
      start_next ns svc isl;
      Sim.Islands.post isl ~dst:0 ~after:epoch
        (move_done svc gen ns.node_id)
    end

  and uninstall_cmd svc isl =
    (* A stale landing (the controller re-placed the service while this
       copy was in flight) must not leave a zombie instance burning
       hosted power; tear it down, dropping whatever it queued. *)
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_state isl ns.node_id;
    touch_queue isl ns.node_id;
    if (not ns.crashed) && ns.hosted.(svc) then begin
      settle ns ~now:(Sim.Islands.now isl);
      ns.hosted.(svc) <- false;
      ns.hosted_count <- ns.hosted_count - 1;
      ns.draining.(svc) <- false;
      let n = Sim.Ring.length ns.queues.(svc) in
      Sim.Ring.clear ~shrink_to:0 ns.queues.(svc);
      drop ns svc n isl
    end

  and crash_node ns isl =
    touch_state isl ns.node_id;
    touch_queue isl ns.node_id;
    if not ns.crashed then begin
      let now = Sim.Islands.now isl in
      settle ns ~now;
      ns.crashed <- true;
      ns.busy <- 0;
      ns.hosted_count <- 0;
      let lost = ref 0 in
      for s = 0 to services - 1 do
        if ns.hosted.(s) then begin
          lost := !lost + Sim.Ring.length ns.queues.(s) + ns.executing.(s);
          Sim.Ring.clear ~shrink_to:0 ns.queues.(s);
          ns.hosted.(s) <- false;
          ns.draining.(s) <- false;
          ns.executing.(s) <- 0
        end;
        ns.forward.(s) <- -1
      done;
      (* The wipe spans services and bills no column. *)
      drop ns ~bill:(-1) 0 !lost isl;
      Sim.Islands.post isl ~dst:0 ~after:epoch (node_crashed ns.node_id)
    end

  (* --- controller protocol handlers ------------------------------------ *)
  and pick_replacement ~preferred_x86 =
    let scan ids =
      Array.fold_left
        (fun acc i ->
          match acc with
          | Some _ -> acc
          | None -> if ctrl.alive.(i) then Some i else None)
        None ids
    in
    match
      if preferred_x86 then scan x86_ids else scan arm_ids
    with
    | Some n -> Some n
    | None -> if preferred_x86 then scan arm_ids else scan x86_ids

  (* Close [svc]'s open migration span, if any, with one int argument. *)
  and end_span svc ~key ~value isl =
    match ctrl.spans.(svc) with
    | Some span ->
      ctrl.spans.(svc) <- None;
      Obs.end_span obs span ~ts:(Sim.Islands.now isl)
        ~args:[ (key, Obs.I value) ]
        ()
    | None -> ()

  and re_place svc isl =
    ctrl.gen.(svc) <- ctrl.gen.(svc) + 1;
    let preferred_x86 =
      match cfg.policy with
      | Static_arm -> false
      | Static_x86 -> true
      | Slo_aware -> false
    in
    match pick_replacement ~preferred_x86 with
    | Some n ->
      ctrl.migrating.(svc) <- true;
      ctrl.op_src.(svc) <- -1;
      ctrl.op_scale_out.(svc) <- false;
      let gen = ctrl.gen.(svc) in
      Sim.Islands.post isl ~dst:(n + 1) ~after:epoch
        (land_cmd svc gen (Sim.Ring.create ()))
    | None ->
      (* Fleet-wide outage for this service: nothing can host it; the
         router rejects its traffic from here on (no live replicas). *)
      ctrl.migrating.(svc) <- false

  and move_done svc gen node isl =
    touch_ctrl isl;
    if gen = ctrl.gen.(svc) then begin
      ctrl.migrating.(svc) <- false;
      let src = ctrl.op_src.(svc) in
      ctrl.op_src.(svc) <- -1;
      if src >= 0 then rep_remove svc src;
      if ctrl.alive.(node) then rep_add svc node;
      ctrl.last_move.(svc) <- Sim.Islands.now isl;
      end_span svc ~key:"to" ~value:node isl;
      if ctrl.op_scale_out.(svc) then begin
        ctrl.op_scale_out.(svc) <- false;
        ctrl.scale_outs <- ctrl.scale_outs + 1;
        Obs.incr obs "serve.scale_outs"
      end
      else Obs.incr obs "serve.migrations";
      (* The landing node may have crashed while the ack was in
         flight; if that left the service with no live replica, place
         it again. *)
      if live_reps svc = 0 then re_place svc isl
    end
    else if (not ctrl.migrating.(svc)) && not ctrl.hosting.(svc).(node) then
      (* This landing lost a generation race; evict the zombie copy —
         but only when the service is settled elsewhere, so the
         eviction can never race a current landing on the same node. *)
      Sim.Islands.post isl ~dst:(node + 1) ~after:epoch (uninstall_cmd svc)

  (* End [svc]'s running operation as failed. *)
  and fail_op svc isl =
    ctrl.migrating.(svc) <- false;
    ctrl.op_src.(svc) <- -1;
    ctrl.op_scale_out.(svc) <- false;
    end_span svc ~key:"failed" ~value:1 isl

  and move_failed svc gen isl =
    touch_ctrl isl;
    if gen = ctrl.gen.(svc) then begin
      fail_op svc isl;
      if live_reps svc = 0 then re_place svc isl
    end

  and node_crashed node isl =
    touch_ctrl isl;
    if ctrl.alive.(node) then begin
      ctrl.alive.(node) <- false;
      if Obs.enabled obs then
        Obs.instant obs ~ts:(Sim.Islands.now isl) ~pid:Obs.scheduler_pid
          ~tid:0 ~cat:"serve" ~name:"node_crash"
          ~args:[ ("node", Obs.I node) ]
          ();
      for s = 0 to services - 1 do
        ctrl.outstanding.(s).(node) <- 0;
        if ctrl.hosting.(s).(node) then rep_remove s node;
        (* A drain running on the dead node can never complete; fail
           the operation now. Messages the doomed op already sent stay
           harmless: a late [move_failed] finds [migrating] false, and
           a drained backlog that was in flight before the crash still
           lands normally (its [move_done] carries the current gen). *)
        if ctrl.migrating.(s) && ctrl.op_src.(s) = node then fail_op s isl;
        if live_reps s = 0 && not ctrl.migrating.(s) then re_place s isl
      done
    end
  in

  (* --- router + SLO policy (island 0) ---------------------------------- *)
  (* Per-node arrival bursts. [route] stages routed requests here; the
     pump flushes one post per touched node per pump event, so the
     steady-state transport cost is one cross-island message per node
     per epoch instead of one per request. A request is staged as one
     int key, [rid] above the low [svc_bits] bits and [svc] in them,
     plus its arrival time. *)
  let svc_bits =
    let b = ref 0 in
    while 1 lsl !b < services do
      incr b
    done;
    !b
  in
  let svc_mask = (1 lsl svc_bits) - 1 in
  let b_key = Array.make cfg.nodes [||] in
  let b_at = Array.make cfg.nodes [||] in
  let b_n = Array.make cfg.nodes 0 in
  let b_touched = Array.make cfg.nodes 0 in
  let b_touched_n = ref 0 in
  let deliver_burst node keys ats n isl =
    let ns = nodes.(node) in
    for i = 0 to n - 1 do
      let key = keys.(i) in
      deliver ns (key land svc_mask) (key lsr svc_bits) ats.(i) isl
    done
  in
  (* Ship every staged burst: the batch closes at the pump boundary and
     arrives one epoch later, so each request still experiences at least
     one full epoch of transport delay (and at most two). Bursts to the
     same node are at least one epoch apart, so per-node arrival order
     follows trace order. *)
  let flush_bursts isl =
    for k = 0 to !b_touched_n - 1 do
      let node = b_touched.(k) in
      let n = b_n.(node) in
      b_n.(node) <- 0;
      let keys = Array.sub b_key.(node) 0 n in
      let ats = Array.sub b_at.(node) 0 n in
      Sim.Islands.post isl ~dst:(node + 1) ~after:(2.0 *. epoch)
        (deliver_burst node keys ats n)
    done;
    b_touched_n := 0
  in
  let route rid svc at isl =
    touch_ctrl isl;
    ctrl.arrived <- ctrl.arrived + 1;
    if slo_aware then ctrl.last_arr.(svc) <- at;
    Obs.incr obs "serve.arrived";
    let node = select_replica svc isl in
    if node < 0 then begin
      ctrl.router_dropped <- ctrl.router_dropped + 1;
      ctrl.resolved <- ctrl.resolved + 1;
      Obs.incr obs "serve.dropped";
      note_resolved isl
    end
    else begin
      ctrl.outstanding.(svc).(node) <- ctrl.outstanding.(svc).(node) + 1;
      let n = b_n.(node) in
      if n = 0 then begin
        b_touched.(!b_touched_n) <- node;
        incr b_touched_n
      end;
      if n = Array.length b_key.(node) then begin
        b_key.(node) <- grow_int b_key.(node);
        b_at.(node) <- grow_float b_at.(node)
      end;
      b_key.(node).(n) <- (rid lsl svc_bits) lor svc;
      b_at.(node).(n) <- at;
      b_n.(node) <- n + 1
    end
  in
  (* Batched arrival pump: one island-0 event per epoch of traffic. The
     event fires at the cursor's arrival, routes every arrival less than
     one epoch ahead of it into the per-node bursts, ships the bursts,
     then re-arms itself at the next arrival — a recursive knot, so
     pumping allocates nothing per request and the calendar holds one
     pending pump whatever the trace length. Stream order is canonical
     (nondecreasing times), so the pump never schedules into the past;
     routing a burst a fraction of an epoch early only means the router
     balances on estimates at most one epoch stale, which is already the
     resolution the epoch-batched transport gives it. *)
  let rec pump_ev isl =
    touch_ctrl isl;
    let t0 = Arrival.at stream in
    let boundary = t0 +. epoch in
    route (Arrival.rid stream) (Arrival.svc stream) t0 isl;
    let continue = ref true in
    while !continue do
      if Arrival.next stream then begin
        let at = Arrival.at stream in
        if at < boundary then
          route (Arrival.rid stream) (Arrival.svc stream) at isl
        else begin
          Sim.Islands.schedule isl ~at pump_ev;
          continue := false
        end
      end
      else begin
        ctrl.exhausted <- true;
        continue := false
      end
    done;
    flush_bursts isl
  in
  let pump isl =
    if Arrival.next stream then
      Sim.Islands.schedule isl ~at:(Arrival.at stream) pump_ev
    else ctrl.exhausted <- true
  in
  let serving_done () = ctrl.exhausted && ctrl.resolved >= ctrl.arrived in
  let begin_op svc ~src ~scale_out isl =
    ctrl.gen.(svc) <- ctrl.gen.(svc) + 1;
    ctrl.migrating.(svc) <- true;
    ctrl.op_src.(svc) <- src;
    ctrl.op_scale_out.(svc) <- scale_out;
    if Obs.enabled obs then
      ctrl.spans.(svc) <-
        Some
          (Obs.begin_span obs ~ts:(Sim.Islands.now isl) ~pid:Obs.scheduler_pid
             ~tid:0 ~cat:"serve"
             ~name:(if scale_out then "scale_out" else "migrate")
             ~args:[ ("svc", Obs.I svc); ("from", Obs.I src) ]
             ())
  in
  let command_migration svc ~src ~dst isl =
    begin_op svc ~src ~scale_out:false isl;
    (* With other live replicas remaining, take the victim out of the
       routing set immediately (scale-in: new traffic spreads over the
       survivors while the backlog drains). A lone instance keeps
       routing — requests queue behind the drain, the classic
       downtime-vs-tail trade. *)
    if live_reps svc >= 2 then rep_remove svc src;
    Sim.Islands.post isl ~dst:(src + 1) ~after:epoch
      (drain_cmd svc dst ctrl.gen.(svc))
  in
  let command_scale_out svc ~dst isl =
    begin_op svc ~src:(-1) ~scale_out:true isl;
    Sim.Islands.post isl ~dst:(dst + 1) ~after:epoch
      (land_cmd svc ctrl.gen.(svc) (Sim.Ring.create ()))
  in
  (* Sliding-window upkeep: drop the expired (time, bucket) entries
     off each service's window. *)
  let prune_windows now =
    let horizon = now -. cfg.window_s in
    for s = 0 to Array.length ctrl.lat_win - 1 do
      Sim.Window_hist.prune ctrl.lat_win.(s) ~horizon
    done
  in
  let window_p99 s =
    let w = ctrl.lat_win.(s) in
    if Sim.Window_hist.is_empty w then None
    else Some (Sim.Stats.percentile (Sim.Window_hist.histogram w) 0.99)
  in
  (* The first live anchor along [s]'s chain on one side of the ISA
     boundary that does not already host [s], or -1. *)
  let free_anchor ~x86 s =
    let anchor = if x86 then x86_anchor else arm_anchor in
    let n = Array.length (if x86 then x86_ids else arm_ids) in
    let found = ref (-1) in
    let j = ref 0 in
    while !found < 0 && !j < n do
      let cand = anchor s !j in
      if ctrl.alive.(cand) && not ctrl.hosting.(s).(cand) then found := cand;
      incr j
    done;
    !found
  in
  (* The lowest-id ARM node among the [ln] live replicas that
     [live_reps] left in [live_scratch], or -1. *)
  let lowest_live_arm ln =
    let found = ref (-1) in
    for k = ln - 1 downto 0 do
      if not (is_x86_node live_scratch.(k)) then found := live_scratch.(k)
    done;
    !found
  in
  (* One SLO decision per service per tick: scale out onto x86 while
     headroom remains on a p99 breach (falling back to a stop-and-copy
     move when already at max_replicas), scale back in — or move home —
     when the window goes completely quiet. With replicas = max = 1
     this is exactly the classic single-instance escalate/park cycle. *)
  let escalate s isl =
    let ln = live_reps s in
    if ln < cfg.max_replicas then begin
      let dst = free_anchor ~x86:true s in
      if dst >= 0 then command_scale_out s ~dst isl
    end
    else begin
      (* At the replica ceiling: move an ARM replica across the
         boundary instead (the PR-7 escalation when the ceiling is 1). *)
      let victim = lowest_live_arm ln in
      if victim >= 0 then begin
        let dst = free_anchor ~x86:true s in
        if dst >= 0 then command_migration s ~src:victim ~dst isl
      end
    end
  in
  let park s isl =
    let ln = live_reps s in
    (* Retire the highest-id live x86 replica. *)
    let victim = ref (-1) in
    for k = 0 to ln - 1 do
      if is_x86_node live_scratch.(k) then victim := live_scratch.(k)
    done;
    if !victim >= 0 then begin
      if ln > cfg.replicas then begin
        (* Above baseline: fold the victim into a surviving ARM
           replica when one exists, else onto a fresh ARM anchor. *)
        let dst =
          match lowest_live_arm ln with
          | -1 -> free_anchor ~x86:false s
          | d -> d
        in
        if dst >= 0 then command_migration s ~src:!victim ~dst isl
      end
      else begin
        let dst = arm_anchor s 0 in
        if ctrl.alive.(dst) && not ctrl.hosting.(s).(dst) then
          command_migration s ~src:!victim ~dst isl
      end
    end
  in
  let rec tick isl =
    touch_ctrl isl;
    let now = Sim.Islands.now isl in
    prune_windows now;
    for s = 0 to services - 1 do
      if (not ctrl.migrating.(s)) && live_reps s > 0 then begin
        match window_p99 s with
        | Some p99 when p99 > cfg.slo_ms -> escalate s isl
        | _ ->
          if
            ctrl.last_arr.(s) < now -. cfg.window_s
            && Sim.Window_hist.is_empty ctrl.lat_win.(s)
            && now -. ctrl.last_move.(s) >= cfg.window_s
          then park s isl
      end
    done;
    if Obs.enabled obs then
      Obs.counter_sample obs ~ts:now ~pid:Obs.scheduler_pid ~name:"serve.p99_ms"
        ~args:
          (List.init services (fun s ->
               ( Printf.sprintf "svc%d" s,
                 Obs.F (Option.value ~default:0.0 (window_p99 s)) )));
    if not (serving_done ()) then
      Sim.Islands.schedule_in isl ~after:cfg.window_s (fun isl -> tick isl)
  in
  (* Per-epoch heartbeat on the controller island: prunes the sliding
     windows between policy ticks (keeping window memory proportional
     to the window, not the run) and — when observability is on — samples
     the process GC into the metrics registry, which is how the
     allocation-light claim is checked from a `--metrics` dump. The
     event itself runs regardless of [obs], so instrumented and plain
     runs execute identical event schedules and render byte-identical
       reports. GC figures never feed back into the simulation. *)
  let gc_prev_minor = ref 0.0 in
  let rec heartbeat isl =
    touch_ctrl isl;
    if slo_aware then prune_windows (Sim.Islands.now isl);
    if Obs.enabled obs then begin
      (* [Gc.minor_words] counts the words allocated so far; the
         [quick_stat] field only moves when a minor collection ends. *)
      let minor = Gc.minor_words () in
      Obs.observe obs "serve.gc.minor_words_per_epoch"
        (Float.max 0.0 (minor -. !gc_prev_minor));
      gc_prev_minor := minor;
      Obs.gauge obs "serve.gc.minor_words" minor;
      let s = Gc.quick_stat () in
      Obs.gauge obs "serve.gc.major_words" s.Gc.major_words;
      Obs.gauge obs "serve.gc.top_heap_words" (float_of_int s.Gc.top_heap_words)
    end;
    if not (serving_done ()) then
      Sim.Islands.schedule_in isl ~after:epoch (fun isl -> heartbeat isl)
  in

  (* --- seed the calendars ---------------------------------------------- *)
  let ctrl_isl = Sim.Islands.island rt 0 in
  pump ctrl_isl;
  List.iter
    (fun (c : Faults.Plan.crash) ->
      let node = c.Faults.Plan.node in
      Sim.Islands.schedule
        (Sim.Islands.island rt (node + 1))
        ~at:c.Faults.Plan.at
        (fun isl -> crash_node nodes.(node) isl))
    cfg.crashes;
  if not ctrl.exhausted then begin
    Sim.Islands.schedule ctrl_isl ~at:epoch (fun isl -> heartbeat isl);
    if slo_aware then
      Sim.Islands.schedule ctrl_isl ~at:cfg.window_s (fun isl -> tick isl)
  end;
  if Obs.enabled obs then
    Obs.process_name obs ~pid:Obs.scheduler_pid
      (Printf.sprintf "serve router (%s)" (policy_name cfg.policy));

  Sim.Islands.run ~domains rt;

  (* --- results (merged in canonical node order) ------------------------ *)
  let makespan =
    Array.fold_left
      (fun acc ns -> Float.max acc ns.nf.last_update)
      ctrl.end_time.last_update nodes
  in
  Array.iter
    (fun ns -> if ns.nf.last_update < makespan then settle ns ~now:makespan)
    nodes;
  let energy_of arch =
    Array.fold_left
      (fun acc ns ->
        if ns.machine.Machine.Server.arch = arch then acc +. ns.nf.energy_j
        else acc)
      0.0 nodes
  in
  let energy_x86 = energy_of Isa.Arch.X86_64 in
  let energy_arm = energy_of Isa.Arch.Arm64 in
  let merged_counts = Array.make lat_buckets 0 in
  let lat_n = ref 0 in
  let lat_sum = ref 0.0 in
  Array.iter
    (fun ns ->
      for b = 0 to lat_buckets - 1 do
        merged_counts.(b) <- merged_counts.(b) + ns.lat_counts.(b)
      done;
      lat_n := !lat_n + ns.lat_n;
      lat_sum := !lat_sum +. ns.nf.lat_sum_ms)
    nodes;
  let quant q =
    if !lat_n = 0 then 0.0
    else
      Sim.Stats.percentile
        { Sim.Stats.bucket_lo = lat_bucket_lo; counts = merged_counts }
        q
  in
  let responded = Array.fold_left (fun acc ns -> acc + ns.responded) 0 nodes in
  let dropped =
    ctrl.router_dropped
    + Array.fold_left (fun acc ns -> acc + ns.dropped) 0 nodes
  in
  let in_flight =
    Array.fold_left
      (fun acc ns ->
        acc
        + Array.fold_left (fun a q -> a + Sim.Ring.length q) 0 ns.queues
        + Array.fold_left ( + ) 0 ns.executing)
      0 nodes
  in
  let result =
    {
      tname;
      services;
      arrived = ctrl.arrived;
      responded;
      dropped;
      in_flight_at_end = in_flight;
      forwarded = Array.fold_left (fun acc ns -> acc + ns.forwarded) 0 nodes;
      migrations =
        Array.fold_left (fun acc ns -> acc + ns.migrations_out) 0 nodes;
      scale_outs = ctrl.scale_outs;
      downtime_s =
        Array.fold_left (fun acc ns -> acc +. ns.nf.downtime_s) 0.0 nodes;
      slo_violations = ctrl.slo_violations;
      p50_ms = quant 0.5;
      p99_ms = quant 0.99;
      p999_ms = quant 0.999;
      mean_ms = (if !lat_n = 0 then 0.0 else !lat_sum /. float_of_int !lat_n);
      makespan;
      energy_x86_j = energy_x86;
      energy_arm_j = energy_arm;
      total_energy_j = energy_x86 +. energy_arm;
      events = Sim.Islands.events_executed rt;
      windows = Sim.Islands.windows rt;
    }
  in
  if Obs.enabled obs then begin
    let g = Obs.gauge obs in
    let gi name v = Obs.gauge obs name (float_of_int v) in
    gi "serve.in_flight_at_end" result.in_flight_at_end;
    gi "serve.forwarded" result.forwarded;
    gi "serve.slo_violations" result.slo_violations;
    g "serve.p50_ms" result.p50_ms;
    g "serve.p99_ms" result.p99_ms;
    g "serve.p999_ms" result.p999_ms;
    g "serve.downtime_s" result.downtime_s;
    g "serve.makespan_s" result.makespan;
    g "serve.total_energy_j" result.total_energy_j;
    g "serve.energy_x86_j" result.energy_x86_j;
    g "serve.energy_arm_j" result.energy_arm_j
  end;
  (result, rt)

let run ?domains ?obs cfg = fst (run_impl ?domains ?obs ~capture:false cfg)

let run_audited ?domains ?obs cfg =
  let r, rt = run_impl ?domains ?obs ~capture:true cfg in
  match Sim.Islands.capture rt with
  | Some cap -> (r, cap)
  | None -> assert false

(* Byte-stable rendering: a pure function of the deterministic
   simulation, so `--seq` and `--islands N` outputs diff clean. *)
let render cfg (r : result) =
  let b = Buffer.create 512 in
  let x86 = (cfg.nodes + 1) / 2 in
  Printf.bprintf b
    "serve: trace=%s services=%d nodes=%d (x86=%d arm64=%d) seed=%d \
     epoch=%.3fs slo=%.1fms policy=%s window=%.1fs workers=%d queue-cap=%d \
     replicas=%d max-replicas=%d routing=%s zero-downtime=%s crashes=%d\n"
    r.tname r.services cfg.nodes x86 (cfg.nodes - x86) cfg.seed cfg.epoch_s
    cfg.slo_ms (policy_name cfg.policy) cfg.window_s cfg.workers queue_cap
    cfg.replicas cfg.max_replicas (routing_name cfg.routing)
    (if cfg.zero_downtime then "on" else "off")
    (List.length cfg.crashes);
  Printf.bprintf b
    "arrived=%d responded=%d dropped=%d in-flight=%d forwarded=%d\n" r.arrived
    r.responded r.dropped r.in_flight_at_end r.forwarded;
  Printf.bprintf b
    "latency p50=%.3fms p99=%.3fms p999=%.3fms mean=%.3fms slo-violations=%d\n"
    r.p50_ms r.p99_ms r.p999_ms r.mean_ms r.slo_violations;
  Printf.bprintf b "migrations=%d scale-outs=%d downtime=%.6fs\n" r.migrations
    r.scale_outs r.downtime_s;
  Printf.bprintf b
    "makespan=%.6fs energy=%.3fkJ (x86 %.3fkJ arm64 %.3fkJ)\n" r.makespan
    (r.total_energy_j /. 1e3)
    (r.energy_x86_j /. 1e3)
    (r.energy_arm_j /. 1e3);
  Printf.bprintf b "events=%d windows=%d\n" r.events r.windows;
  Buffer.contents b
