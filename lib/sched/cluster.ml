(* The island-scheduler core: jobs placed over a `Machine.Topology` by
   policies that choose *which node* as well as *which ISA*, at
   warehouse scale — the "Instruction Set Migration at Warehouse Scale"
   scenario the paper's two-node evaluation cannot express.

   The paper's scheduling study (Section 6) and `Sched.Scheduler` pick
   between exactly two machines. This core runs a fleet of racks under
   five placement policies:

     - [Least_loaded] / [Round_robin]: the fleet placements — the node
       with the lowest per-core load after placement, or the next node
       in turn — each followed every epoch by a hi->lo rebalance: the
       most-loaded node sends one job to the least-loaded one.
     - [Pack_power_cap]: power-capped bin packing. Jobs are packed onto
       the fewest, fullest nodes whose projected cluster power stays
       under a global cap — admission blocks rather than busting the
       budget, the datacenter-operator view of the paper's energy story.
     - [Edp_migrate]: energy/EDP-aware global dynamic migration. Jobs
       are placed on the node whose ISA executes their category most
       efficiently (throughput per watt), and every epoch the scheduler
       hunts for the worst-placed running job and migrates it to the
       best node with room — cross-ISA and cross-rack when worthwhile,
       the warehouse generalisation of the paper's dynamic policies.
     - [Work_steal]: cheap local placement (round robin) plus idle
       nodes stealing queued work from the most-loaded victim, nearest
       rack first — migration cost makes in-rack theft strictly better.

   Runtime: island 0 is the scheduler at the cluster head (beside rack
   0's ToR); islands 1..N are the topology's nodes. All control traffic
   is batched on epoch boundaries — the scheduler dispatches, nodes
   report completions, and migration commands travel, once per
   [epoch_s] — and every message additionally crosses its path through
   the rack fabric, so the minimum delay on edge (s, d) is the epoch
   plus that path's latency. That per-edge floor is handed to the
   runtime as a topology-aware lookahead matrix: posts are checked
   against their own edge, and the synchronization window advances by
   the matrix minimum (>= the epoch), keeping the conservative argument
   intact while cross-rack edges admit wider windows.

   Every node island owns its state outright: running set, busy-core
   count, energy integral, and the PRNG stream for phase-locality
   sampling and failure draws. The scheduler island owns the queue and
   per-node load *estimates*, updated only by messages. Nothing is
   shared, which is exactly the contract that lets one run span domains
   while staying bit-identical to the sequential schedule. *)

type policy =
  | Pack_power_cap
  | Edp_migrate
  | Work_steal
  | Least_loaded
  | Round_robin

let policy_name = function
  | Pack_power_cap -> "pack-power-cap"
  | Edp_migrate -> "edp-migrate"
  | Work_steal -> "work-steal"
  | Least_loaded -> "least-loaded"
  | Round_robin -> "round-robin"

let policy_of_name = function
  | "pack-power-cap" | "pack" -> Some Pack_power_cap
  | "edp-migrate" | "edp" -> Some Edp_migrate
  | "work-steal" | "steal" -> Some Work_steal
  | "least-loaded" | "ll" -> Some Least_loaded
  | "round-robin" | "rr" -> Some Round_robin
  | _ -> None

let all_policies = [ Pack_power_cap; Edp_migrate; Work_steal ]

type config = {
  topology : Machine.Topology.t;
  jobs : int;
  seed : int;
  mean_interarrival_s : float;
  epoch_s : float;  (** control-traffic batching epoch *)
  policy : policy;
  power_cap_w : float;
      (** [Pack_power_cap]: projected cluster power admission budget *)
  migration : bool;  (** per-epoch rebalance, whatever the policy *)
  fail_rate : float;  (** per-phase failure probability; failed phases retry *)
}

let default ~topology ~jobs ~seed =
  {
    topology;
    jobs;
    seed;
    (* Brisk enough at warehouse scale (256+ nodes) that load skews and
       the dynamic policies actually migrate/steal. *)
    mean_interarrival_s = 0.02;
    epoch_s = 0.25;
    policy = Edp_migrate;
    (* Roomy enough that packing shapes placement without starving
       admission: about half the fleet busy. *)
    power_cap_w =
      0.75 *. 110.0 *. float_of_int (Machine.Topology.nodes topology);
    migration = true;
    fail_rate = 0.0;
  }

(* One rack whose local link is the paper's 10GbE interconnect: every
   distinct pair sees the original point-to-point cost model. *)
let fleet ~nodes ~jobs ~seed =
  {
    (default
       ~topology:
         (Machine.Topology.flat ~nodes
            ~interconnect:Machine.Interconnect.ethernet_10g ())
       ~jobs ~seed)
    with
    mean_interarrival_s = 0.5;
    policy = Least_loaded;
  }

type result = {
  completed : int;
  failed : int;
  retried_phases : int;
  migrations : int;
  steals : int;
  deferred : int;  (** admissions blocked at least once by the power cap *)
  makespan : float;
  total_energy_j : float;
  energy_x86_j : float;
  energy_arm_j : float;
  edp : float;
  peak_power_w : float;  (** max projected cluster power at placement *)
  p50_latency_s : float;
  p99_latency_s : float;
  events : int;
  windows : int;
}

(* --- job mix ------------------------------------------------------------- *)

let job_pool =
  let open Workload.Spec in
  [|
    (CG, A); (CG, B); (IS, A); (IS, B); (FT, A); (EP, A); (EP, B); (MG, A);
    (MG, B); (BT, A); (SP, A); (LU, A); (Bzip2smp, A); (Bzip2smp, B);
    (Verus, A); (Verus, B); (Verus, C); (Redis, A); (Redis, B);
  |]

let thread_counts = [| 1; 2; 4 |]

type job = {
  jid : int;
  arrival : float;
  threads : int;
  spec : Workload.Spec.t;
  n_phases : int;
  phase_instr : float;
}

(* Instructions per job phase, as in the Popcorn-ensemble scheduler. *)
let quantum_instructions = 1e8

let make_job rng jid arrival =
  let bench, cls = Sim.Prng.choice rng job_pool in
  let spec = Workload.Spec.spec bench cls in
  let threads = Sim.Prng.choice rng thread_counts in
  let per_thread =
    spec.Workload.Spec.total_instructions /. float_of_int threads
  in
  let n_phases =
    max 1 (int_of_float (Float.ceil (per_thread /. quantum_instructions)))
  in
  { jid; arrival; threads; spec; n_phases;
    phase_instr = per_thread /. float_of_int n_phases }

(* --- per-island state -------------------------------------------------- *)

type running = {
  job : job;
  mutable remaining : int;
  mutable cold : bool;  (** working set not yet resident: next phase faults *)
  mutable src_node : int;
      (** where a cold set streams from: -1 = the head's job store,
          else the node the job migrated away from *)
  mutable phase_retries : int;
  mutable pending_dst : int;  (** -1 = none; else move there at boundary *)
  mutable pending_steal : bool;  (** the pending move is a theft *)
}

type node_state = {
  node_id : int;
  machine : Machine.Server.t;
  mutable busy : int;
  mutable energy_j : float;
  mutable last_update : float;
  mutable running : running list;
  mutable migrations_out : int;
  mutable steals_in : int;
  mutable retried : int;
}

type sched_state = {
  queue : job Queue.t;
  est_load : int array;
  cores : int array;
  mutable outstanding : int;
  mutable rr : int;
  mutable completions : (int * float) list;  (** (jid, latency), report order *)
  mutable failed : int;
  mutable deferred : int;
  mutable peak_power_w : float;
}

let utilization ns =
  Float.min 1.0
    (float_of_int ns.busy /. float_of_int ns.machine.Machine.Server.cores)

let settle ns ~now =
  let power =
    Machine.Power.system_power ns.machine.Machine.Server.power
      ~utilization:(utilization ns)
  in
  ns.energy_j <- ns.energy_j +. ((now -. ns.last_update) *. power);
  ns.last_update <- now

let adjust_busy ns ~now delta =
  settle ns ~now;
  ns.busy <- ns.busy + delta

(* Remote page fault served by the hDSM protocol: handler software on
   top of a round trip over the given path, as in `Dsm.Hdsm`. Warm
   misses hit the nearest replica (one local hop); cold working sets
   stream from wherever the job last lived — the head's job store on
   first placement, the previous host after a migration — so fault cost
   is path-dependent. *)
let fault_handler_s = 50e-6

let fault_cost_over link =
  fault_handler_s
  +. Machine.Topology.page_transfer_time_link link ~page_bytes:Memsys.Page.size

(* Pages a phase touches; kept small — locality within a quantum — but
   a cold (just-placed or just-migrated) working set faults on all of
   them. *)
let phase_pages = 16

let max_phase_retries = 3

(* Throughput-per-watt of a machine for a workload category at full
   tilt: the ISA-affinity score both energy-aware policies rank by. *)
let efficiency (m : Machine.Server.t) cat =
  Machine.Server.peak_mips m cat
  /. Machine.Power.system_power m.Machine.Server.power ~utilization:1.0

(* Projected cluster power from per-node thread loads, with [extra]
   threads placed on node [on]: the bin-packing budget. *)
let projected_power (servers : Machine.Server.t array) load ~on ~extra =
  let total = ref 0.0 in
  for n = 0 to Array.length servers - 1 do
    let m = servers.(n) in
    let load = load.(n) + if n = on then extra else 0 in
    let u =
      Float.min 1.0 (float_of_int load /. float_of_int m.Machine.Server.cores)
    in
    total :=
      !total +. Machine.Power.system_power m.Machine.Server.power ~utilization:u
  done;
  !total

(* The lowest cap under which every job is eventually admitted: the
   idle cluster plus the cheapest placement of the widest job. Below it
   a wide job at the head of the queue blocks admission forever. *)
let power_floor topology =
  let servers =
    Array.init (Machine.Topology.nodes topology)
      (Machine.Topology.server topology)
  in
  let idle = Array.make (Array.length servers) 0 in
  let widest = Array.fold_left max 0 thread_counts in
  let floor = ref Float.infinity in
  Array.iteri
    (fun on (m : Machine.Server.t) ->
      if widest <= 2 * m.Machine.Server.cores then
        floor :=
          Float.min !floor (projected_power servers idle ~on ~extra:widest))
    servers;
  !floor

(* --- the simulation ---------------------------------------------------- *)

let run_impl ?(domains = 1) ~capture cfg =
  let n_nodes = Machine.Topology.nodes cfg.topology in
  if n_nodes < 2 then invalid_arg "Cluster.run: need at least 2 nodes";
  if cfg.jobs < 1 then invalid_arg "Cluster.run: need at least 1 job";
  if not (Float.is_finite cfg.epoch_s) || cfg.epoch_s <= 0.0 then
    invalid_arg "Cluster.run: epoch must be positive";
  if not (Float.is_finite cfg.power_cap_w) || cfg.power_cap_w <= 0.0 then
    invalid_arg "Cluster.run: power cap must be positive";
  (if cfg.policy = Pack_power_cap then
     let floor = power_floor cfg.topology in
     if cfg.power_cap_w < floor then
       invalid_arg
         (Printf.sprintf
            "Cluster.run: power cap %gW is below the admission floor %gW"
            cfg.power_cap_w floor));
  let topo = cfg.topology in
  (* Per-edge control delays: a message from/to the scheduler (island 0)
     crosses the head path to its node; node-to-node traffic crosses the
     rack fabric. Each is the batching epoch plus the path latency, and
     the same values form the runtime's topology-aware lookahead
     matrix — posts below their edge's floor are runtime errors. *)
  let ctrl_delay =
    Array.init n_nodes (fun i ->
        cfg.epoch_s
        +. (Machine.Topology.head_path topo ~dst:i).Machine.Topology.latency_s)
  in
  let node_delay i j =
    cfg.epoch_s
    +. (Machine.Topology.path topo ~src:i ~dst:j).Machine.Topology.latency_s
  in
  let edge_lookahead =
    Array.init (n_nodes + 1) (fun s ->
        Array.init (n_nodes + 1) (fun d ->
            if s = d then 0.0
            else if s = 0 then ctrl_delay.(d - 1)
            else if d = 0 then ctrl_delay.(s - 1)
            else node_delay (s - 1) (d - 1)))
  in
  let rt =
    Sim.Islands.create ~capture ~edge_lookahead ~islands:(n_nodes + 1)
      ~lookahead:cfg.epoch_s ~seed:cfg.seed ()
  in
  (* Ownership tags for the island race audit: the scheduler island (0)
     owns the queue and load estimates (resource 0); node island i+1
     owns node i's mutable state (resource i+1). Guarded by a local
     immutable bool so plain runs pay nothing. *)
  let audit = capture in
  let touch_sched isl =
    if audit then Sim.Islands.touch isl ~owner:0 ~resource:0 ~write:true
  in
  let touch_node isl ns =
    if audit then
      Sim.Islands.touch isl ~owner:(ns.node_id + 1) ~resource:(ns.node_id + 1)
        ~write:true
  in
  let nodes =
    Array.init n_nodes (fun i ->
        {
          node_id = i;
          machine = Machine.Topology.server topo i;
          busy = 0;
          energy_j = 0.0;
          last_update = 0.0;
          running = [];
          migrations_out = 0;
          steals_in = 0;
          retried = 0;
        })
  in
  let servers = Array.map (fun ns -> ns.machine) nodes in
  let sched =
    {
      queue = Queue.create ();
      est_load = Array.make n_nodes 0;
      cores = Array.map (fun ns -> ns.machine.Machine.Server.cores) nodes;
      outstanding = cfg.jobs;
      rr = 0;
      completions = [];
      failed = 0;
      deferred = 0;
      peak_power_w = 0.0;
    }
  in
  let warm_fault_cost = fault_cost_over topo.Machine.Topology.local in
  let cold_fault_cost (r : running) ns =
    if r.src_node < 0 then
      fault_cost_over (Machine.Topology.head_path topo ~dst:ns.node_id)
    else
      fault_cost_over
        (Machine.Topology.path topo ~src:r.src_node ~dst:ns.node_id)
  in
  (* Job arrivals: drawn up-front from the run seed (independent of any
     island stream), Poisson-spaced. *)
  let arrivals =
    let rng = Sim.Prng.create cfg.seed in
    let t = ref 0.0 in
    List.init cfg.jobs (fun jid ->
        let job = make_job rng jid !t in
        t := !t +. Sim.Prng.exponential rng ~mean:cfg.mean_interarrival_s;
        job)
  in

  (* --- node islands (island id = node_id + 1) -------------------------- *)
  let detach ns (r : running) ~now =
    adjust_busy ns ~now (-r.job.threads);
    ns.running <- List.filter (fun x -> x != r) ns.running
  in
  (* The job leaves the cluster, completed or failed; the scheduler
     hears at the next epoch. *)
  let finish ns (r : running) isl ~now ~completed =
    detach ns r ~now;
    let latency = now -. r.job.arrival in
    Sim.Islands.post isl ~dst:0 ~after:ctrl_delay.(ns.node_id) (fun isl ->
        touch_sched isl;
        sched.outstanding <- sched.outstanding - 1;
        sched.est_load.(ns.node_id) <-
          sched.est_load.(ns.node_id) - r.job.threads;
        if completed then
          sched.completions <- (r.job.jid, latency) :: sched.completions
        else sched.failed <- sched.failed + 1)
  in
  let rec run_phase (r : running) ns isl =
    touch_node isl ns;
    let now = Sim.Islands.now isl in
    let m = ns.machine in
    let compute =
      Isa.Cost_model.seconds_for m.Machine.Server.cost
        r.job.spec.Workload.Spec.category ~instructions:r.job.phase_instr
    in
    let contention =
      Float.max 1.0
        (float_of_int ns.busy /. float_of_int m.Machine.Server.cores)
    in
    (* Phase-locality sampling from the island's private stream: a cold
       working set faults on every page of the phase window; a warm one
       occasionally takes a small burst of misses (cross-job
       interference, page stealing). *)
    let misses, miss_cost =
      if r.cold then (phase_pages, cold_fault_cost r ns)
      else begin
        let u = Sim.Prng.float (Sim.Islands.prng isl) 1.0 in
        ( (if u < 0.05 then 1 + Sim.Prng.int (Sim.Islands.prng isl) 4 else 0),
          warm_fault_cost )
      end
    in
    r.cold <- false;
    let duration =
      (compute *. contention) +. (float_of_int misses *. miss_cost)
    in
    Sim.Islands.schedule isl ~at:(now +. duration) (fun isl ->
        phase_done r ns isl)

  and phase_done (r : running) ns isl =
    touch_node isl ns;
    let now = Sim.Islands.now isl in
    (* Failure draw only when the config can fail: a zero fail rate
       draws nothing, so it is byte-identical to a core without failure
       machinery. *)
    if
      cfg.fail_rate > 0.0
      && Sim.Prng.float (Sim.Islands.prng isl) 1.0 < cfg.fail_rate
    then begin
      if r.phase_retries >= max_phase_retries then
        finish ns r isl ~now ~completed:false
      else begin
        r.phase_retries <- r.phase_retries + 1;
        ns.retried <- ns.retried + 1;
        run_phase r ns isl
      end
    end
    else begin
      r.phase_retries <- 0;
      r.remaining <- r.remaining - 1;
      if r.remaining = 0 then finish ns r isl ~now ~completed:true
      else if r.pending_dst >= 0 then begin
        (* Migration point: stop-and-copy to the commanded node. The
           thread state transforms, then the working set crosses its
           path through the rack fabric as one batched stream — a
           cross-rack move pays the aggregation hop. *)
        let dst = r.pending_dst in
        let steal = r.pending_steal in
        r.pending_dst <- -1;
        r.pending_steal <- false;
        detach ns r ~now;
        ns.migrations_out <- ns.migrations_out + 1;
        let transform = 300e-6 *. float_of_int r.job.threads in
        let pages =
          Memsys.Page.count ~bytes:r.job.spec.Workload.Spec.footprint_bytes
        in
        let xfer =
          Machine.Topology.batch_transfer_time topo ~src:ns.node_id ~dst
            ~pages ~page_bytes:Memsys.Page.size
        in
        let pause = transform +. xfer in
        r.cold <- true;
        r.src_node <- ns.node_id;
        Sim.Islands.post isl ~dst:(dst + 1)
          ~after:(Float.max (node_delay ns.node_id dst) pause)
          (fun isl -> job_land ~steal r isl);
        (* Keep the scheduler's placement estimates truthful. *)
        Sim.Islands.post isl ~dst:0 ~after:ctrl_delay.(ns.node_id)
          (fun isl ->
            touch_sched isl;
            sched.est_load.(ns.node_id) <-
              sched.est_load.(ns.node_id) - r.job.threads;
            sched.est_load.(dst) <- sched.est_load.(dst) + r.job.threads)
      end
      else run_phase r ns isl
    end

  and job_land ~steal (r : running) isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_node isl ns;
    if steal then ns.steals_in <- ns.steals_in + 1;
    adjust_busy ns ~now:(Sim.Islands.now isl) r.job.threads;
    ns.running <- r :: ns.running;
    run_phase r ns isl

  and job_start (job : job) isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_node isl ns;
    let r =
      { job; remaining = job.n_phases; cold = true; src_node = -1;
        phase_retries = 0; pending_dst = -1; pending_steal = false }
    in
    adjust_busy ns ~now:(Sim.Islands.now isl) job.threads;
    ns.running <- r :: ns.running;
    run_phase r ns isl

  and migrate_cmd ?(steal = false) ~dst isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_node isl ns;
    (* Smallest eligible job moves (cheapest working set); lowest jid
       breaks ties deterministically. *)
    let eligible =
      List.filter (fun r -> r.pending_dst < 0 && r.remaining > 1) ns.running
    in
    let best =
      List.fold_left
        (fun acc r ->
          match acc with
          | None -> Some r
          | Some b ->
            if
              r.job.threads < b.job.threads
              || (r.job.threads = b.job.threads && r.job.jid < b.job.jid)
            then Some r
            else acc)
        None eligible
    in
    match best with
    | Some r ->
      r.pending_dst <- dst;
      r.pending_steal <- steal
    | None -> ()
  in

  (* --- scheduler island (island 0) ------------------------------------- *)
  let fits n (job : job) =
    sched.est_load.(n) + job.threads <= 2 * sched.cores.(n)
  in
  let load_after n (job : job) =
    float_of_int (sched.est_load.(n) + job.threads)
    /. float_of_int sched.cores.(n)
  in
  (* The fitting node with the highest [score], lowest index on ties. *)
  let best_fit (job : job) score =
    let best = ref (-1) in
    let best_s = ref Float.neg_infinity in
    for n = 0 to n_nodes - 1 do
      if fits n job then begin
        let s = score n in
        if s > !best_s then begin
          best := n;
          best_s := s
        end
      end
    done;
    if !best >= 0 then Some !best else None
  in
  let pick_node (job : job) =
    match cfg.policy with
    | Least_loaded -> best_fit job (fun n -> -.load_after n job)
    | Pack_power_cap ->
      (* Best-fit packing: the fullest node (highest utilization after
         placement) that still fits and keeps the cluster under the
         power budget. Consolidation lets the rest of the fleet idle. *)
      let blocked = ref false in
      let best =
        best_fit job (fun n ->
            if
              projected_power servers sched.est_load ~on:n ~extra:job.threads
              <= cfg.power_cap_w
            then load_after n job
            else begin
              blocked := true;
              Float.neg_infinity
            end)
      in
      (match best with
      | Some n ->
        sched.peak_power_w <-
          Float.max sched.peak_power_w
            (projected_power servers sched.est_load ~on:n ~extra:job.threads)
      | None -> if !blocked then sched.deferred <- sched.deferred + 1);
      best
    | Edp_migrate ->
      (* ISA-affinity placement: throughput per watt for the job's
         category, discounted by load — so a busy efficient node loses
         to an idle slightly-less-efficient one. *)
      best_fit job (fun n ->
          efficiency nodes.(n).machine job.spec.Workload.Spec.category
          *. (1.0
             -. (float_of_int sched.est_load.(n)
                /. float_of_int (2 * sched.cores.(n)))))
    | Round_robin | Work_steal ->
      let found = ref None in
      let tries = ref 0 in
      while !found = None && !tries < n_nodes do
        let n = sched.rr mod n_nodes in
        sched.rr <- sched.rr + 1;
        if fits n job then found := Some n;
        incr tries
      done;
      !found
  in
  let norm n =
    float_of_int sched.est_load.(n) /. float_of_int sched.cores.(n)
  in
  let hottest () =
    let hi = ref 0 in
    for n = 1 to n_nodes - 1 do
      if norm n > norm !hi then hi := n
    done;
    !hi
  in
  (* Command one migration per epoch, so the system settles between
     moves. *)
  let shed isl ~hi ~dst =
    if dst >= 0 && norm hi -. norm dst >= 0.75 && sched.est_load.(hi) >= 2
    then
      Sim.Islands.post isl ~dst:(hi + 1) ~after:ctrl_delay.(hi)
        (migrate_cmd ~dst)
  in
  let rebalance isl =
    match cfg.policy with
    | _ when not cfg.migration -> ()
    | Pack_power_cap -> ()  (* the cap is enforced at admission *)
    | Least_loaded | Round_robin ->
      let lo = ref 0 in
      for n = 1 to n_nodes - 1 do
        if norm n < norm !lo then lo := n
      done;
      shed isl ~hi:(hottest ()) ~dst:!lo
    | Edp_migrate ->
      (* Worst-placed load moves to the best node with room, ranked by
         per-core efficiency-weighted pressure. *)
      let hi = hottest () in
      let best = ref (-1) in
      let best_s = ref Float.neg_infinity in
      for n = 0 to n_nodes - 1 do
        if n <> hi && sched.est_load.(n) + 1 <= 2 * sched.cores.(n) then begin
          let s =
            efficiency nodes.(n).machine Isa.Cost_model.Mixed
            *. (1.0 -. (norm n /. 2.0))
          in
          if s > !best_s then begin
            best := n;
            best_s := s
          end
        end
      done;
      shed isl ~hi ~dst:!best
    | Work_steal ->
      (* Every idle node steals from the most-loaded victim, in-rack
         victims first: the aggregation hop makes remote theft dearer
         than local. One theft per thief per epoch. *)
      for thief = 0 to n_nodes - 1 do
        if sched.est_load.(thief) = 0 then begin
          let victim = ref (-1) in
          let victim_load = ref 1 (* steal only from load >= 2 *) in
          let better n =
            sched.est_load.(n) > !victim_load
            || sched.est_load.(n) = !victim_load
               && !victim >= 0
               && Machine.Topology.same_rack topo n thief
               && not (Machine.Topology.same_rack topo !victim thief)
          in
          for n = 0 to n_nodes - 1 do
            if n <> thief && sched.est_load.(n) >= 2 && better n then begin
              victim := n;
              victim_load := sched.est_load.(n)
            end
          done;
          if !victim >= 0 then
            Sim.Islands.post isl ~dst:(!victim + 1)
              ~after:ctrl_delay.(!victim)
              (migrate_cmd ~steal:true ~dst:thief)
        end
      done
  in
  let rec tick isl =
    touch_sched isl;
    (* Dispatch the epoch's batch in FIFO order; the head blocks when no
       node has room under the policy's admission rule. *)
    let dispatching = ref true in
    while !dispatching && not (Queue.is_empty sched.queue) do
      let job = Queue.peek sched.queue in
      match pick_node job with
      | None -> dispatching := false
      | Some n ->
        ignore (Queue.pop sched.queue);
        sched.est_load.(n) <- sched.est_load.(n) + job.threads;
        Sim.Islands.post isl ~dst:(n + 1) ~after:ctrl_delay.(n)
          (job_start job)
    done;
    rebalance isl;
    if sched.outstanding > 0 then
      Sim.Islands.schedule_in isl ~after:cfg.epoch_s tick
  in
  let sched_isl = Sim.Islands.island rt 0 in
  List.iter
    (fun (job : job) ->
      Sim.Islands.schedule sched_isl ~at:job.arrival (fun isl ->
          touch_sched isl;
          Queue.push job sched.queue))
    arrivals;
  Sim.Islands.schedule sched_isl ~at:cfg.epoch_s tick;

  Sim.Islands.run ~domains rt;

  (* --- results (merged in canonical order) ----------------------------- *)
  let completions = List.rev sched.completions in
  let arrival_of = Array.make cfg.jobs 0.0 in
  List.iter (fun (j : job) -> arrival_of.(j.jid) <- j.arrival) arrivals;
  let makespan =
    List.fold_left
      (fun acc (jid, lat) -> Float.max acc (arrival_of.(jid) +. lat))
      0.0 completions
  in
  (* Idle-settle every node out to the makespan so energy covers the same
     interval on every node, in node order. *)
  Array.iter
    (fun ns -> if ns.last_update < makespan then settle ns ~now:makespan)
    nodes;
  let energy_of arch =
    Array.fold_left
      (fun acc ns ->
        if ns.machine.Machine.Server.arch = arch then acc +. ns.energy_j
        else acc)
      0.0 nodes
  in
  let energy_x86 = energy_of Isa.Arch.X86_64 in
  let energy_arm = energy_of Isa.Arch.Arm64 in
  let total_energy = energy_x86 +. energy_arm in
  let latencies =
    let arr = Array.of_list (List.map snd completions) in
    Array.sort Float.compare arr;
    arr
  in
  let quant q =
    if Array.length latencies = 0 then 0.0 else Sim.Stats.quantile latencies q
  in
  let sum f = Array.fold_left (fun acc ns -> acc + f ns) 0 nodes in
  {
    completed = List.length completions;
    failed = sched.failed;
    retried_phases = sum (fun ns -> ns.retried);
    migrations = sum (fun ns -> ns.migrations_out);
    steals = sum (fun ns -> ns.steals_in);
    deferred = sched.deferred;
    makespan;
    total_energy_j = total_energy;
    energy_x86_j = energy_x86;
    energy_arm_j = energy_arm;
    edp = total_energy *. makespan;
    peak_power_w = sched.peak_power_w;
    p50_latency_s = quant 0.5;
    p99_latency_s = quant 0.99;
    events = Sim.Islands.events_executed rt;
    windows = Sim.Islands.windows rt;
  },
  rt

let run ?domains cfg = fst (run_impl ?domains ~capture:false cfg)

let run_audited ?domains cfg =
  let r, rt = run_impl ?domains ~capture:true cfg in
  match Sim.Islands.capture rt with
  | Some cap -> (r, cap)
  | None -> assert false

(* Byte-stable rendering: pure function of the deterministic simulation
   — no wall-clock, no domain count — so `--seq` and `--islands N`
   outputs diff clean. The fleet placements keep the fleet report. *)
let render cfg r =
  let b = Buffer.create 512 in
  let fleet =
    match cfg.policy with
    | Least_loaded | Round_robin -> true
    | Pack_power_cap | Edp_migrate | Work_steal -> false
  in
  if fleet then
    Printf.bprintf b
      "fleet: nodes=%d (x86=%d arm64=%d) jobs=%d seed=%d epoch=%.3fs \
       placement=%s migration=%s fail-rate=%.3f\n"
      (Machine.Topology.nodes cfg.topology)
      (Machine.Topology.isa_count cfg.topology Isa.Arch.X86_64)
      (Machine.Topology.isa_count cfg.topology Isa.Arch.Arm64)
      cfg.jobs cfg.seed cfg.epoch_s (policy_name cfg.policy)
      (if cfg.migration then "on" else "off")
      cfg.fail_rate
  else
    Printf.bprintf b
      "cluster: policy=%s jobs=%d seed=%d epoch=%.3fs power-cap=%.0fW\n"
      (policy_name cfg.policy) cfg.jobs cfg.seed cfg.epoch_s cfg.power_cap_w;
  Printf.bprintf b "topology: %s\n" (Machine.Topology.describe cfg.topology);
  if fleet then
    Printf.bprintf b "completed=%d failed=%d retried-phases=%d migrations=%d\n"
      r.completed r.failed r.retried_phases r.migrations
  else
    Printf.bprintf b "completed=%d migrations=%d steals=%d deferred=%d\n"
      r.completed r.migrations r.steals r.deferred;
  Printf.bprintf b
    "makespan=%.6fs energy=%.3fkJ (x86 %.3fkJ arm64 %.3fkJ) edp=%.6ekJs\n"
    r.makespan
    (r.total_energy_j /. 1e3)
    (r.energy_x86_j /. 1e3)
    (r.energy_arm_j /. 1e3)
    (r.edp /. 1e3);
  if cfg.policy = Pack_power_cap then
    Printf.bprintf b "peak-power=%.1fW cap=%.0fW\n" r.peak_power_w
      cfg.power_cap_w;
  Printf.bprintf b "latency p50=%.6fs p99=%.6fs\n" r.p50_latency_s
    r.p99_latency_s;
  Printf.bprintf b "events=%d windows=%d\n" r.events r.windows;
  Buffer.contents b
