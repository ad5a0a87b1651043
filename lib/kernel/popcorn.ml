type node = {
  id : int;
  machine : Machine.Server.t;
  meter : Machine.Server.meter;
  mutable busy : int;
  mutable powered : bool;
  mutable crashed : bool;
}

type t = {
  engine : Sim.Engine.t;
  bus : Message.t;
  dsm : Dsm.Hdsm.t;
  faults : Faults.Injector.t;
  obs : Obs.t;
  prefetch : bool;  (** push the migrating thread's working set ahead *)
  nodes : node array;
  mutable containers : Container.t list;
  mutable next_pid : int;
  mutable next_slot : int;  (** loader slot allocator, per ensemble *)
  mutable migration_downtime_s : float;
  mutable drain_time_s : float;
  mutable exit_hooks : (Process.t -> unit) list;
  mutable thread_hooks : (Process.t -> Process.thread -> unit) list;
  mutable abort_hooks : (Process.t -> Process.thread -> dest:int -> unit) list;
  mutable crash_hooks : (int -> Process.t list -> unit) list;
  mutable migrated_hooks :
    (Process.t -> Process.thread -> from_:int -> to_:int -> unit) list;
}

let node_of_arch t arch =
  match
    Array.to_list t.nodes
    |> List.find_opt (fun n -> n.machine.Machine.Server.arch = arch)
  with
  | Some n -> n
  | None -> raise Not_found

let utilization t id =
  let n = t.nodes.(id) in
  if not n.powered then 0.0
  else
    Float.min 1.0
      (float_of_int n.busy /. float_of_int n.machine.Machine.Server.cores)

(* An unpowered node, crashed or not, draws sleep power. *)
let mode n = Machine.Server.(if n.powered then On else Asleep)

(* Power only changes when busy/powered changes, so integrating energy at
   those transitions is exact. *)
let settle_energy t id =
  let n = t.nodes.(id) in
  Machine.Server.settle n.meter ~now:(Sim.Engine.now t.engine) (mode n)
    ~load:n.busy

let adjust_busy t id delta =
  settle_energy t id;
  let n = t.nodes.(id) in
  n.busy <- n.busy + delta;
  assert (n.busy >= 0)

let energy t id =
  settle_energy t id;
  Machine.Server.joules t.nodes.(id).meter

(* Kill a process orphaned by a node crash: every live thread is retired
   in place (thread hooks fire so observers drop it from their load
   accounting), its generation is bumped so in-flight engine events for
   it become no-ops, and the process is marked aborted so exit hooks
   never fire — the datacenter scheduler re-admits or fails the job. *)
let abort_process t proc =
  proc.Process.aborted <- true;
  List.iter
    (fun (th : Process.thread) ->
      if th.Process.status <> Process.Done then begin
        th.Process.gen <- th.Process.gen + 1;
        th.Process.status <- Process.Done;
        (* Hooks run while [migrate_to] is still set: observers counted
           an in-flight thread at its destination. *)
        List.iter (fun hook -> hook proc th) t.thread_hooks;
        th.Process.migrate_to <- None
      end)
    proc.Process.threads

(* A process belongs to the crash if any live thread is on the dead node
   or headed there (an in-flight handoff lands in the rubble). *)
let orphaned_by proc ~node =
  List.exists
    (fun (th : Process.thread) ->
      th.Process.status <> Process.Done
      && (th.Process.node = node || th.Process.migrate_to = Some node))
    proc.Process.threads

let crash t ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Popcorn.crash: unknown node %d" node);
  let n = t.nodes.(node) in
  if n.crashed then []
  else begin
    settle_energy t node;
    n.powered <- false;
    n.crashed <- true;
    let orphans =
      List.concat_map
        (fun (c : Container.t) ->
          List.filter
            (fun proc ->
              (not proc.Process.aborted)
              && Process.alive proc && orphaned_by proc ~node)
            c.Container.processes)
        t.containers
    in
    List.iter (abort_process t) orphans;
    orphans
  end

let create engine ?(faults = Faults.Plan.zero) ?(dsm_batch = false)
    ?(prefetch = false) ?(obs = Obs.noop) ~machines () =
  let interconnect = Machine.Interconnect.dolphin_pxh810 in
  let nodes =
    Array.of_list
      (List.mapi
         (fun id machine ->
           { id; machine; meter = Machine.Server.meter machine; busy = 0;
             powered = true; crashed = false })
         machines)
  in
  List.iter
    (fun (c : Faults.Plan.crash) ->
      if c.Faults.Plan.node < 0 || c.Faults.Plan.node >= Array.length nodes
      then
        invalid_arg
          (Printf.sprintf "Popcorn.create: crash targets unknown node %d"
             c.Faults.Plan.node))
    faults.Faults.Plan.crashes;
  let injector =
    Faults.Injector.create faults
      ~kinds:(List.map Message.kind_to_string Message.all_kinds)
  in
  let t =
    {
      engine;
      bus = Message.create ~faults:injector ~obs engine interconnect;
      dsm =
        Dsm.Hdsm.create ~batch:dsm_batch ~nodes:(Array.length nodes)
          ~interconnect ~obs
          ~now:(fun () -> Sim.Engine.now engine)
          ();
      faults = injector;
      obs;
      prefetch;
      nodes;
      containers = [];
      next_pid = 1;
      next_slot = 0;
      migration_downtime_s = 0.0;
      drain_time_s = 0.0;
      exit_hooks = [];
      thread_hooks = [];
      abort_hooks = [];
      crash_hooks = [];
      migrated_hooks = [];
    }
  in
  List.iter
    (fun (c : Faults.Plan.crash) ->
      Sim.Engine.schedule engine ~at:c.Faults.Plan.at (fun () ->
          let orphans = crash t ~node:c.Faults.Plan.node in
          List.iter (fun h -> h c.Faults.Plan.node orphans) t.crash_hooks))
    (Faults.Injector.crashes injector);
  if Obs.enabled obs then
    Array.iter
      (fun n ->
        Obs.process_name obs ~pid:n.id
          (Printf.sprintf "node%d %s (%s)" n.id n.machine.Machine.Server.name
             (Isa.Arch.to_string n.machine.Machine.Server.arch));
        Obs.thread_name obs ~pid:n.id ~tid:Obs.dsm_tid "hDSM")
      nodes;
  t

let new_container t ~name =
  let c = Container.create ~name in
  t.containers <- c :: t.containers;
  c

(* Median stack-transformation latency of a binary, measured through the
   real runtime across every reachable migration point. Memoized per
   *program* (structural equality on the IR): the measurement is a pure
   function of the program — toolchains recompiled from the same source
   measure identically — so keying on the toolchain's physical identity,
   as this cache originally did, re-measured every recompilation and let
   the table grow without bound across a bench grid. The memo is
   module-global (shared by every ensemble in the process) and
   mutex-guarded: scheduler runs execute on multiple domains and may
   spawn from the same binary concurrently. Concurrent misses at worst
   duplicate the measurement (it is deterministic), never corrupt the
   table. Capacity-bounded with FIFO eviction. *)
let latency_cache : (Ir.Prog.t, (Isa.Arch.t * float) list) Hashtbl.t =
  Hashtbl.create 16

let latency_cache_order : Ir.Prog.t Queue.t = Queue.create ()
let latency_cache_capacity = ref 64
let latency_cache_hits = ref 0
let latency_cache_misses = ref 0
let latency_cache_lock = Mutex.create ()

let locked f =
  Mutex.lock latency_cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock latency_cache_lock) f

let latency_cache_clear () =
  locked (fun () ->
      Hashtbl.reset latency_cache;
      Queue.clear latency_cache_order;
      latency_cache_hits := 0;
      latency_cache_misses := 0)

let latency_cache_stats () =
  locked (fun () -> (!latency_cache_hits, !latency_cache_misses))

let latency_cache_size () = locked (fun () -> Hashtbl.length latency_cache)

let latency_cache_evict_locked () =
  while Hashtbl.length latency_cache > !latency_cache_capacity do
    Hashtbl.remove latency_cache (Queue.pop latency_cache_order)
  done

let set_latency_cache_capacity n =
  if n < 1 then
    invalid_arg "Popcorn.set_latency_cache_capacity: capacity must be >= 1";
  locked (fun () ->
      latency_cache_capacity := n;
      latency_cache_evict_locked ())

let latency_cache_find prog =
  locked (fun () ->
      match Hashtbl.find_opt latency_cache prog with
      | Some _ as found ->
        incr latency_cache_hits;
        found
      | None ->
        incr latency_cache_misses;
        None)

let latency_cache_add prog per_arch =
  locked (fun () ->
      if not (Hashtbl.mem latency_cache prog) then begin
        Hashtbl.replace latency_cache prog per_arch;
        Queue.push prog latency_cache_order;
        latency_cache_evict_locked ()
      end)

let measured_transform_latency ?(obs = Obs.noop) tc =
  let prog = tc.Compiler.Toolchain.prog in
  match latency_cache_find prog with
  | Some per_arch ->
    Obs.incr obs "popcorn.latency_cache.hits";
    fun arch -> List.assoc arch per_arch
  | None ->
    Obs.incr obs "popcorn.latency_cache.misses";
    let sites = Runtime.Interp.reachable_mig_sites tc in
    let per_arch =
      List.map
        (fun arch ->
          let costs =
            List.filter_map
              (fun (fname, mig_id) ->
                match Runtime.Interp.state_at tc arch ~fname ~mig_id with
                | None -> None
                | Some st -> begin
                  match Runtime.Transform.transform ~obs tc st with
                  | Ok (_, cost) -> Some cost.Runtime.Transform.latency_s
                  | Error _ -> None
                end)
              sites
          in
          let latency =
            match costs with
            | [] -> 200e-6
            | _ -> (Sim.Stats.summarize costs).Sim.Stats.median
          in
          (arch, latency))
        Isa.Arch.all
    in
    latency_cache_add prog per_arch;
    fun arch -> List.assoc arch per_arch

let spawn t ~container ~node ~name ?binary ~footprint_bytes ~thread_phases
    () =
  let slot = t.next_slot in
  t.next_slot <- t.next_slot + 1;
  let image =
    match binary with
    | Some tc -> Loader.load tc ~dsm:t.dsm ~node ~slot ~heap_bytes:footprint_bytes
    | None -> Loader.load_raw ~dsm:t.dsm ~node ~slot ~name ~footprint_bytes
  in
  let transform_latency =
    match binary with
    | Some tc -> measured_transform_latency ~obs:t.obs tc
    | None -> fun _ -> 250e-6
  in
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let threads =
    List.mapi
      (fun i phases -> Process.make_thread ~tid:(100 * pid + i) ~node ~phases)
      thread_phases
  in
  if Obs.enabled t.obs then
    List.iter
      (fun (th : Process.thread) ->
        Array.iter
          (fun n ->
            Obs.thread_name t.obs ~pid:n.id ~tid:th.Process.tid
              (Printf.sprintf "%s/t%d" name th.Process.tid))
          t.nodes)
      threads;
  let proc =
    Process.make ~pid ~home:node ~data_pages:image.Loader.data_pages ~threads
      ~transform_latency
  in
  Container.add_process container proc;
  proc

let on_process_exit t hook = t.exit_hooks <- hook :: t.exit_hooks
let on_thread_finish t hook = t.thread_hooks <- hook :: t.thread_hooks
let on_migration_abort t hook = t.abort_hooks <- hook :: t.abort_hooks
let on_node_crash t hook = t.crash_hooks <- hook :: t.crash_hooks
let on_thread_migrated t hook = t.migrated_hooks <- hook :: t.migrated_hooks

let arch_of t id = t.nodes.(id).machine.Machine.Server.arch

(* The contiguous runs covering flat indices [i, stop) of the process's
   page ranges, without materializing the page list. *)
let segments_of_ranges ranges ~i ~stop =
  let rec go skipped wanted acc = function
    | [] -> List.rev acc
    | (r : Memsys.Page.range) :: rest ->
      if wanted <= 0 then List.rev acc
      else if skipped + r.Memsys.Page.count <= i then
        go (skipped + r.Memsys.Page.count) wanted acc rest
      else begin
        let offset = max 0 (i - skipped) in
        let take = min wanted (r.Memsys.Page.count - offset) in
        go
          (skipped + r.Memsys.Page.count)
          (wanted - take)
          ({ Memsys.Page.first = r.Memsys.Page.first + offset; count = take }
          :: acc)
          rest
      end
  in
  go 0 (stop - i) [] ranges

(* Drain a process's residual pages to its new home in chunks, keeping one
   DSM worker busy at both ends — the multithreaded hDSM traffic visible
   as the power/load spike of Figure 11. *)
let drain_residual t proc ~to_node =
  let from_node = proc.Process.home in
  if from_node = to_node then ()
  else begin
    proc.Process.home <- to_node;
    let chunk = 256 in
    let total = Memsys.Page.ranges_count proc.Process.data_pages in
    adjust_busy t from_node 1;
    adjust_busy t to_node 1;
    let rec drain_from i =
      if i >= total || proc.Process.aborted then begin
        adjust_busy t from_node (-1);
        adjust_busy t to_node (-1)
      end
      else begin
        let stop = min total (i + chunk) in
        let segments =
          segments_of_ranges proc.Process.data_pages ~i ~stop
        in
        let latency = Dsm.Hdsm.drain_seq t.dsm ~segments ~to_:to_node in
        t.drain_time_s <- t.drain_time_s +. latency;
        if Obs.enabled t.obs then begin
          (* [dur] is the exact float added to [drain_time_s] above, so
             folding the drain spans replays the aggregate bit-for-bit. *)
          Obs.complete t.obs
            ~ts:(Sim.Engine.now t.engine)
            ~dur:latency ~pid:from_node ~tid:Obs.dsm_tid ~cat:"migration"
            ~name:"drain"
            ~args:
              [ ("pid", Obs.I proc.Process.pid); ("to", Obs.I to_node);
                ("pages", Obs.I (stop - i)) ]
            ();
          Obs.observe t.obs "drain.chunk_us" (latency *. 1e6)
        end;
        Sim.Engine.schedule_in t.engine ~after:(Float.max latency 1e-9)
          (fun () -> drain_from stop)
      end
    in
    drain_from 0
  end

(* Each phase boundary is a migration point: the thread reads its vDSO
   flag word, [migrate_to] (the "function call and a memory read" of
   Section 5.2.1), and migrates if the scheduler asked for it. *)
let rec step t proc (th : Process.thread) =
  if th.Process.status = Process.Done || proc.Process.aborted then ()
  else
    match th.Process.migrate_to with
    | Some dest
      when dest <> th.Process.node
           && Continuation.can_migrate th.Process.continuation ->
      begin_migration t proc th dest
    | Some _ | None -> begin
      match th.Process.remaining () with
      | Seq.Nil -> finish_thread t proc th
      | Seq.Cons (phase, rest) -> run_phase t proc th phase rest
    end

and run_phase t proc th phase rest =
  let node_id = th.Process.node in
  let node = t.nodes.(node_id) in
  th.Process.status <- Process.Running;
  adjust_busy t node_id 1;
  let cores = node.machine.Machine.Server.cores in
  let contention =
    Float.max 1.0 (float_of_int node.busy /. float_of_int cores)
  in
  let compute =
    Isa.Cost_model.seconds_for node.machine.Machine.Server.cost
      phase.Process.category ~instructions:phase.Process.instructions
  in
  let dsm_latency =
    Dsm.Hdsm.access_many t.dsm ~node:th.Process.node ~pages:phase.Process.pages
      ~write:phase.Process.writes
  in
  (* A page-request timeout stalls the whole batch once: the requester
     re-sends after the timeout penalty. *)
  let dsm_latency =
    if Faults.Injector.page_timeout t.faults then
      dsm_latency +. Faults.Plan.page_timeout_penalty_s
    else dsm_latency
  in
  let duration = (compute *. contention) +. dsm_latency in
  let gen = th.Process.gen in
  let started = Sim.Engine.now t.engine in
  Sim.Engine.schedule_in t.engine ~after:duration (fun () ->
      adjust_busy t node_id (-1);
      if th.Process.gen = gen then begin
        if Obs.enabled t.obs then
          Obs.complete t.obs ~ts:started ~dur:duration ~pid:node_id
            ~tid:th.Process.tid ~cat:"phase"
            ~name:(Isa.Cost_model.category_to_string phase.Process.category)
            ~args:
              [ ("instructions", Obs.F phase.Process.instructions);
                ("dsm_us", Obs.F (dsm_latency *. 1e6)) ]
            ();
        th.Process.remaining <- rest;
        step t proc th
      end)

(* Pages the thread will touch right after restarting on the destination:
   the page runs of its next few phases, merged into sorted, disjoint,
   maximal runs so contiguous pages coalesce. *)
and prefetch_window (th : Process.thread) =
  let depth = 4 in
  Memsys.Page.(
    let rec merge = function
      | a :: b :: rest when b.first <= a.first + a.count ->
        let count = max a.count (b.first + b.count - a.first) in
        merge ({ a with count } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    Seq.take depth th.Process.remaining
    |> Seq.concat_map (fun (phase : Process.phase) ->
           List.to_seq phase.Process.pages)
    |> List.of_seq
    |> List.sort (fun a b -> compare a.first b.first)
    |> merge)

and begin_migration t proc th dest =
  th.Process.status <- Process.Migrating;
  let t0 = Sim.Engine.now t.engine in
  let src_id = th.Process.node in
  (* The transformation runs on the source CPU. *)
  adjust_busy t src_id 1;
  let latency = proc.Process.transform_latency (arch_of t th.Process.node) in
  (* Working-set prefetch: push the thread's predicted next-phase pages
     to the destination while the stack transformation runs. Only the
     non-overlapped remainder of the transfer stalls the restart; with
     batching the whole window usually hides under the transformation
     latency, turning first-touch misses after restart into local hits.
     If the migration later aborts, the pages were moved early for
     nothing — demand fetches bring them back, coherence is unaffected. *)
  let prefetch_stall =
    if not t.prefetch then 0.0
    else begin
      let p_lat =
        Dsm.Hdsm.prefetch t.dsm ~pages:(prefetch_window th) ~to_:dest
      in
      Float.max 0.0 (p_lat -. latency)
    end
  in
  let gen = th.Process.gen in
  let settle_downtime outcome =
    (* [d] is computed once and used for both the aggregate and the span:
       the "migrate" spans fold back to [migration_downtime_s] exactly. *)
    let d = Sim.Engine.now t.engine -. t0 in
    t.migration_downtime_s <- t.migration_downtime_s +. d;
    if Obs.enabled t.obs then begin
      Obs.complete t.obs ~ts:t0 ~dur:d ~pid:src_id ~tid:th.Process.tid
        ~cat:"migration" ~name:"migrate"
        ~args:[ ("dest", Obs.I dest); ("outcome", Obs.S outcome) ]
        ();
      Obs.observe t.obs "migration.downtime_us" (d *. 1e6)
    end
  in
  if Obs.enabled t.obs then begin
    Obs.complete t.obs ~ts:t0 ~dur:latency ~pid:src_id ~tid:th.Process.tid
      ~cat:"migration" ~name:"stack_transform"
      ~args:[ ("dest", Obs.I dest) ] ();
    Obs.observe t.obs "migration.transform_us" (latency *. 1e6)
  end;
  Sim.Engine.schedule_in t.engine ~after:latency (fun () ->
      adjust_busy t src_id (-1);
      if th.Process.gen = gen then begin
        let snap = Continuation.snapshot th.Process.continuation in
        match
          Continuation.migrate th.Process.continuation ~to_node:dest
            ~to_arch:(arch_of t dest)
        with
        | Error _ ->
          (* In a kernel service after all: retry at the next boundary. *)
          step t proc th
        | Ok _ ->
          (* Register state + pinned pages ride one message. If every
             attempt is lost, the migration aborts: restore the
             pre-transform continuation and leave the thread runnable
             on the source node, exactly as if it had never tried. *)
          let handoff_t0 = Sim.Engine.now t.engine in
          Message.send t.bus Message.Thread_migration ~bytes:4096
            ~on_delivery:(fun () ->
              if th.Process.gen = gen then begin
                if Obs.enabled t.obs then
                  Obs.complete t.obs ~ts:handoff_t0
                    ~dur:(Sim.Engine.now t.engine -. handoff_t0)
                    ~pid:src_id ~tid:th.Process.tid ~cat:"migration"
                    ~name:"handoff"
                    ~args:[ ("dest", Obs.I dest) ]
                    ();
                let restart () =
                  th.Process.node <- dest;
                  th.Process.migrate_to <- None;
                  th.Process.migrations <- th.Process.migrations + 1;
                  th.Process.status <- Process.Ready;
                  Obs.incr t.obs "popcorn.migrations";
                  settle_downtime "restarted";
                  List.iter
                    (fun hook -> hook proc th ~from_:src_id ~to_:dest)
                    t.migrated_hooks;
                  maybe_drain t proc;
                  step t proc th
                in
                if prefetch_stall > 0.0 then begin
                  if Obs.enabled t.obs then
                    Obs.complete t.obs
                      ~ts:(Sim.Engine.now t.engine)
                      ~dur:prefetch_stall ~pid:dest ~tid:th.Process.tid
                      ~cat:"migration" ~name:"prefetch_stall" ();
                  Sim.Engine.schedule_in t.engine ~after:prefetch_stall
                    (fun () -> if th.Process.gen = gen then restart ())
                end
                else restart ()
              end)
            ~on_failure:(fun () ->
              if th.Process.gen = gen then begin
                Continuation.restore th.Process.continuation snap;
                th.Process.aborted_migrations <-
                  th.Process.aborted_migrations + 1;
                th.Process.migrate_to <- None;
                th.Process.status <- Process.Ready;
                Obs.incr t.obs "popcorn.migration_aborts";
                Obs.instant t.obs
                  ~ts:(Sim.Engine.now t.engine)
                  ~pid:src_id ~tid:th.Process.tid ~cat:"migration"
                  ~name:"migration_abort" ();
                settle_downtime "aborted";
                List.iter
                  (fun hook -> hook proc th ~dest)
                  t.abort_hooks;
                step t proc th
              end)
            ()
      end)

and maybe_drain t proc =
  (* Once every live thread has left the home kernel for a single other
     node, move the residual dependencies there. *)
  let live =
    List.filter
      (fun (th : Process.thread) -> th.Process.status <> Process.Done)
      proc.Process.threads
  in
  match live with
  | [] -> ()
  | th :: rest ->
    let node = th.Process.node in
    if
      node <> proc.Process.home
      && List.for_all (fun (x : Process.thread) -> x.Process.node = node) rest
    then drain_residual t proc ~to_node:node

and finish_thread t proc th =
  th.Process.status <- Process.Done;
  List.iter (fun hook -> hook proc th) t.thread_hooks;
  if not (Process.alive proc) then begin
    proc.Process.finished_at <- Some (Sim.Engine.now t.engine);
    List.iter (fun hook -> hook proc) t.exit_hooks
  end

let start t proc =
  List.iter
    (fun (th : Process.thread) ->
      let gen = th.Process.gen in
      Sim.Engine.schedule_in t.engine ~after:0.0 (fun () ->
          if th.Process.gen = gen then step t proc th))
    proc.Process.threads

let migrate t proc ~to_node =
  if to_node < 0 || to_node >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Popcorn.migrate: unknown node %d" to_node);
  Process.request_migration proc ~to_node

(* One counter track per quantity, so a trace viewer never stacks watts
   on percent. *)
let attach_sensors t obs ~hz ~until =
  let period = 1.0 /. hz in
  Array.iter
    (fun n ->
      let power = n.machine.Machine.Server.power in
      let rec sample () =
        let now = Sim.Engine.now t.engine in
        if now <= until then begin
          let u = utilization t n.id in
          let record name v =
            Obs.counter_sample obs ~ts:now ~pid:n.id ~name
              ~args:[ ("value", Obs.F v) ]
          in
          record "cpu_w"
            (if n.powered then Machine.Power.cpu_power power ~utilization:u
             else 0.0);
          record "system_w" (Machine.Server.draw n.meter (mode n) ~load:n.busy);
          record "load" (u *. 100.0);
          Sim.Engine.schedule_in t.engine ~after:period sample
        end
      in
      sample ())
    t.nodes

let set_powered t id powered =
  if not t.nodes.(id).crashed then begin
    settle_energy t id;
    t.nodes.(id).powered <- powered
  end

(* [f] summed over every thread of every process. Each list is walked by
   its own recursion, so no closure is built per process. *)
let sum_threads t f =
  let rec threads acc = function
    | [] -> acc
    | th :: rest -> threads (acc + f th) rest
  in
  let rec processes acc = function
    | [] -> acc
    | (p : Process.t) :: rest -> processes (threads acc p.Process.threads) rest
  in
  let rec containers acc = function
    | [] -> acc
    | (c : Container.t) :: rest ->
      containers (processes acc c.Container.processes) rest
  in
  containers 0 t.containers

let migrations t = sum_threads t (fun th -> th.Process.migrations)

let aborted_migrations t =
  sum_threads t (fun th -> th.Process.aborted_migrations)
