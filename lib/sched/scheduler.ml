type result = {
  policy : Policy.t;
  makespan : float;
  energy : float array;
  total_energy : float;
  edp : float;
  migrations : int;
  completed : int;
  rejected : int;
  failed : int;
  retried : int;
  migration_aborts : int;
  downtime_s : float;
  remote_fetches : int;
  drain_time_s : float;
}

let thread_location (th : Kernel.Process.thread) =
  match th.Kernel.Process.migrate_to with
  | Some dest -> dest
  | None -> th.Kernel.Process.node

type admission = Fcfs | Sjf

(* The dynamic policies' load-check interval. *)
let rebalance_period = 2.0

let run ?(admission = Fcfs) ?(faults = Faults.Plan.zero) ?dsm_batch ?prefetch
    ?(obs = Obs.noop) policy jobs =
  let engine = Sim.Engine.create () in
  let machines = Policy.machines policy in
  let pop =
    Kernel.Popcorn.create engine ~faults ?dsm_batch ?prefetch ~obs ~machines ()
  in
  if Obs.enabled obs then
    Obs.process_name obs ~pid:Obs.scheduler_pid
      (Printf.sprintf "scheduler (%s)" (Policy.name policy));
  let job_event name (job : Job.t) extra =
    if Obs.enabled obs then
      Obs.instant obs ~ts:(Sim.Engine.now engine) ~pid:Obs.scheduler_pid ~tid:0
        ~cat:"job" ~name
        ~args:
          (("jid", Obs.I job.Job.jid)
          :: ("threads", Obs.I job.Job.threads)
          :: extra)
        ()
  in
  let container = Kernel.Popcorn.new_container pop ~name:"datacenter" in
  let share = Policy.share policy in
  let n_nodes = Array.length pop.Kernel.Popcorn.nodes in
  let queue = Queue.create () in
  (* SJF keeps the waiting queue ordered by remaining work. *)
  let resort_queue () =
    match admission with
    | Fcfs -> ()
    | Sjf ->
      let jobs = List.of_seq (Queue.to_seq queue) in
      Queue.clear queue;
      List.iter (fun j -> Queue.push j queue)
        (List.sort
           (fun (a : Job.t) (b : Job.t) ->
             compare a.Job.spec.Workload.Spec.total_instructions
               b.Job.spec.Workload.Spec.total_instructions)
           jobs)
  in
  let running : (Kernel.Process.t * Job.t) list ref = ref [] in
  let completed = ref 0 in
  let failed = ref 0 in
  let retried = ref 0 in
  let makespan = ref 0.0 in
  let remaining_jobs = ref (List.length jobs) in
  let crashed node = pop.Kernel.Popcorn.nodes.(node).Kernel.Popcorn.crashed in
  (* Widest machine still standing; jobs wider than this can never be
     placed again and must fail rather than block the queue head. *)
  let alive_max_cores () =
    let acc = ref 0 in
    Array.iter
      (fun (n : Kernel.Popcorn.node) ->
        if not n.Kernel.Popcorn.crashed then
          acc := max !acc n.Kernel.Popcorn.machine.Machine.Server.cores)
      pop.Kernel.Popcorn.nodes;
    !acc
  in
  (* Live threads currently placed at (or headed to) each node. Kept
     incrementally — bumped at spawn, moved at migration requests,
     retired as threads finish — instead of rescanning every running
     process's thread list at each placement decision. *)
  let node_load = Array.make n_nodes 0 in
  let load node = node_load.(node) in
  let sample_load () =
    if Obs.enabled obs then
      Obs.counter_sample obs ~ts:(Sim.Engine.now engine) ~pid:Obs.scheduler_pid
        ~name:"node_load"
        ~args:
          (List.init n_nodes (fun i ->
               (Printf.sprintf "node%d" i, Obs.I node_load.(i))))
  in
  Kernel.Popcorn.on_thread_finish pop (fun _proc th ->
      node_load.(thread_location th) <- node_load.(thread_location th) - 1;
      sample_load ());
  let cores node =
    pop.Kernel.Popcorn.nodes.(node).Kernel.Popcorn.machine.Machine.Server.cores
  in
  (* Static policies cannot change decisions at runtime, so their
     machines stay powered for the whole run (the paper's wall-power
     measurement of always-on servers). Dynamic policies can consolidate
     through migration and put servers into the low-power state — but
     only after a full idle-hysteresis window of system-wide quiescence
     (a server that just went idle may be needed again in seconds, and
     suspend/resume is not free). While any job runs, both servers stay
     on: this is what makes the balanced policy's long ARM tail
     expensive in the sustained experiment, while sparse periodic sets
     sleep through most of their inter-wave gaps. *)
  let sleep_hysteresis = 90.0 in
  let quiet_since = ref None in
  let system_busy () =
    (not (Queue.is_empty queue))
    || List.exists (fun (p, _) -> Kernel.Process.alive p) !running
  in
  let power_all on =
    for node = 0 to n_nodes - 1 do
      if pop.Kernel.Popcorn.nodes.(node).Kernel.Popcorn.powered <> on then
        Kernel.Popcorn.set_powered pop node on
    done
  in
  let update_power () =
    if Policy.is_dynamic policy then begin
      if system_busy () then begin
        quiet_since := None;
        power_all true
      end
      else begin
        match !quiet_since with
        | Some _ -> ()
        | None ->
          let t0 = Sim.Engine.now engine in
          quiet_since := Some t0;
          Sim.Engine.schedule_in engine ~after:sleep_hysteresis (fun () ->
              if !quiet_since = Some t0 && not (system_busy ()) then
                power_all false)
      end
    end
  in
  let choose_node (job : Job.t) =
    let candidates =
      List.filter
        (fun node ->
          (not (crashed node)) && load node + job.Job.threads <= cores node)
        (List.init n_nodes Fun.id)
    in
    let weight node =
      float_of_int (load node + job.Job.threads) /. Float.max share.(node) 0.01
    in
    match candidates with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun best node -> if weight node < weight best then node else best)
           first rest)
  in
  let spawn_job (job : Job.t) node =
    let proc =
      Workload.Spec.spawn pop ~container ~node job.Job.spec
        ~threads:job.Job.threads
    in
    node_load.(node) <- node_load.(node) + job.Job.threads;
    running := (proc, job) :: !running;
    job_event "job_start" job [ ("node", Obs.I node) ];
    sample_load ();
    Kernel.Popcorn.start pop proc
  in
  let rec try_admit () =
    if not (Queue.is_empty queue) then begin
      let job = Queue.peek queue in
      match choose_node job with
      | None -> ()
      | Some node ->
        ignore (Queue.pop queue);
        update_power ();
        spawn_job job node;
        try_admit ()
    end
  in
  (* Energy is reported over [0, makespan]: snapshot when the last job
     completes, before any post-run hysteresis events advance the clock. *)
  let energies () =
    Array.init n_nodes (fun id -> Kernel.Popcorn.energy pop id)
  in
  let final_energy = ref None in
  Kernel.Popcorn.on_process_exit pop (fun proc ->
      incr completed;
      decr remaining_jobs;
      makespan := Float.max !makespan (Sim.Engine.now engine);
      (match List.assq_opt proc !running with
      | Some job -> job_event "job_finish" job []
      | None -> ());
      running := List.filter (fun (p, _) -> p != proc) !running;
      try_admit ();
      update_power ();
      if !remaining_jobs = 0 then final_energy := Some (energies ()));
  (* A rolled-back migration leaves the thread on its source node; move
     its load count back from the destination it never reached. *)
  Kernel.Popcorn.on_migration_abort pop (fun _proc th ~dest ->
      node_load.(dest) <- node_load.(dest) - 1;
      node_load.(th.Kernel.Process.node) <-
        node_load.(th.Kernel.Process.node) + 1;
      sample_load ());
  (* Node crash: Popcorn has already retired the orphaned threads (the
     thread-finish hook fixed [node_load]); here the jobs themselves are
     re-admitted, up to the plan's retry budget, or failed. Queued jobs
     that no longer fit on any surviving machine fail too. *)
  let job_tries : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let fail_job job =
    job_event "job_fail" job [];
    incr failed;
    decr remaining_jobs;
    if !remaining_jobs = 0 then begin
      makespan := Float.max !makespan (Sim.Engine.now engine);
      final_energy := Some (energies ())
    end
  in
  let retry_budget = faults.Faults.Plan.retry_budget in
  Kernel.Popcorn.on_node_crash pop (fun _node orphans ->
      List.iter
        (fun orphan ->
          match List.assq_opt orphan !running with
          | None -> ()
          | Some job ->
            running := List.filter (fun (p, _) -> p != orphan) !running;
            let tries =
              Option.value ~default:0 (Hashtbl.find_opt job_tries job.Job.jid)
            in
            if tries + 1 < retry_budget
               && job.Job.threads <= alive_max_cores () then begin
              Hashtbl.replace job_tries job.Job.jid (tries + 1);
              incr retried;
              job_event "job_retry" job [ ("try", Obs.I (tries + 1)) ];
              Queue.push job queue;
              resort_queue ()
            end
            else fail_job job)
        orphans;
      let survivors =
        Queue.to_seq queue
        |> Seq.filter (fun (j : Job.t) ->
               if j.Job.threads <= alive_max_cores () then true
               else begin
                 fail_job j;
                 false
               end)
        |> List.of_seq
      in
      Queue.clear queue;
      List.iter (fun j -> Queue.push j queue) survivors;
      update_power ();
      try_admit ());
  (* Arrival events. Jobs wider than every machine can never be placed:
     reject them at submission instead of letting them block the queue
     head forever. *)
  let max_cores =
    Array.fold_left
      (fun acc n -> max acc n.Kernel.Popcorn.machine.Machine.Server.cores)
      0 pop.Kernel.Popcorn.nodes
  in
  let feasible, infeasible =
    List.partition (fun (j : Job.t) -> j.Job.threads <= max_cores) jobs
  in
  remaining_jobs := List.length feasible;
  let rejected = List.length infeasible in
  if Obs.enabled obs then
    List.iter
      (fun (j : Job.t) ->
        Obs.instant obs ~ts:j.Job.arrival ~pid:Obs.scheduler_pid ~tid:0
          ~cat:"job" ~name:"job_reject"
          ~args:[ ("jid", Obs.I j.Job.jid); ("threads", Obs.I j.Job.threads) ]
          ())
      infeasible;
  List.iter
    (fun (job : Job.t) ->
      Sim.Engine.schedule engine ~at:job.Job.arrival (fun () ->
          job_event "job_submit" job [];
          if job.Job.threads > alive_max_cores () then fail_job job
          else begin
            Queue.push job queue;
            resort_queue ();
            update_power ();
            try_admit ()
          end))
    (List.sort (fun a b -> compare a.Job.arrival b.Job.arrival) feasible);
  (* Dynamic rebalancing: compare loads to the target share; migrate one
     job per tick from the most-overloaded node. *)
  let migratable (proc, _) node =
    List.for_all
      (fun (th : Kernel.Process.thread) ->
        th.Kernel.Process.migrate_to = None
        && th.Kernel.Process.status <> Kernel.Process.Migrating)
      proc.Kernel.Process.threads
    && List.exists
         (fun (th : Kernel.Process.thread) ->
           th.Kernel.Process.status <> Kernel.Process.Done
           && th.Kernel.Process.node = node)
         proc.Kernel.Process.threads
  in
  let rebalance_once () =
    let loads = Array.init n_nodes load in
    let total = Array.fold_left ( + ) 0 loads in
    if total > 0 then begin
      let deviation node =
        float_of_int loads.(node) -. (share.(node) *. float_of_int total)
      in
      let over = ref 0 in
      for node = 1 to n_nodes - 1 do
        if deviation node > deviation !over then over := node
      done;
      let under = if !over = 0 then 1 else 0 in
      if deviation !over >= 2.0 && (not (crashed !over)) && not (crashed under)
      then begin
        let candidates =
          List.filter (fun entry -> migratable entry !over) !running
        in
        (* Move the smallest job that fits on the destination. *)
        let sorted =
          List.sort
            (fun (_, a) (_, b) -> compare a.Job.threads b.Job.threads)
            candidates
        in
        match
          List.find_opt
            (fun (_, job) -> load under + job.Job.threads <= cores under)
            sorted
        with
        | Some (proc, job) ->
          (* [migratable] guarantees no pending requests, so every live
             thread currently counts at its [node]; re-point it at the
             destination before the vDSO flags change the locations. *)
          List.iter
            (fun (th : Kernel.Process.thread) ->
              if th.Kernel.Process.status <> Kernel.Process.Done then begin
                let at = th.Kernel.Process.node in
                node_load.(at) <- node_load.(at) - 1;
                node_load.(under) <- node_load.(under) + 1
              end)
            proc.Kernel.Process.threads;
          job_event "job_migrate" job
            [ ("from", Obs.I !over); ("to", Obs.I under) ];
          sample_load ();
          Kernel.Popcorn.migrate pop proc ~to_node:under
        | None -> ()
      end
    end
  in
  if Policy.is_dynamic policy then begin
    let rec tick () =
      if !remaining_jobs > 0 then begin
        rebalance_once ();
        Sim.Engine.schedule_in engine ~after:rebalance_period tick
      end
    in
    Sim.Engine.schedule_in engine ~after:rebalance_period tick
  end;
  Sim.Engine.run engine;
  let energy =
    match !final_energy with Some snapshot -> snapshot | None -> energies ()
  in
  let total_energy = Array.fold_left ( +. ) 0.0 energy in
  let migrations =
    List.fold_left
      (fun acc c ->
        acc
        + List.fold_left
            (fun acc (p : Kernel.Process.t) ->
              acc
              + List.fold_left
                  (fun acc (th : Kernel.Process.thread) ->
                    acc + th.Kernel.Process.migrations)
                  0 p.Kernel.Process.threads)
            0 c.Kernel.Container.processes)
      0 pop.Kernel.Popcorn.containers
  in
  let result =
    {
      policy;
      makespan = !makespan;
      energy;
      total_energy;
      edp = total_energy *. !makespan;
      migrations;
      completed = !completed;
      rejected;
      failed = !failed;
      retried = !retried;
      migration_aborts = Kernel.Popcorn.aborted_migrations pop;
      downtime_s = pop.Kernel.Popcorn.migration_downtime_s;
      remote_fetches =
        (Dsm.Hdsm.stats pop.Kernel.Popcorn.dsm).Dsm.Hdsm.remote_fetches;
      drain_time_s = pop.Kernel.Popcorn.drain_time_s;
    }
  in
  if Obs.enabled obs then begin
    (* End-of-run snapshot: the headline result and the subsystem stats
       as gauges, so a metrics dump is self-contained. *)
    let g = Obs.gauge obs in
    let gi name v = Obs.gauge obs name (float_of_int v) in
    g "sched.makespan_s" result.makespan;
    g "sched.total_energy_j" result.total_energy;
    g "sched.edp_js" result.edp;
    g "sched.downtime_s" result.downtime_s;
    g "sched.drain_time_s" result.drain_time_s;
    gi "sched.migrations" result.migrations;
    gi "sched.migration_aborts" result.migration_aborts;
    gi "sched.completed" result.completed;
    gi "sched.rejected" result.rejected;
    gi "sched.failed" result.failed;
    gi "sched.retried" result.retried;
    Array.iteri
      (fun i e -> g (Printf.sprintf "node%d.energy_j" i) e)
      result.energy;
    let d = Dsm.Hdsm.stats pop.Kernel.Popcorn.dsm in
    gi "dsm.local_hits" d.Dsm.Hdsm.local_hits;
    gi "dsm.remote_fetches" d.Dsm.Hdsm.remote_fetches;
    gi "dsm.invalidations" d.Dsm.Hdsm.invalidations;
    gi "dsm.bytes_transferred" d.Dsm.Hdsm.bytes_transferred;
    gi "dsm.protocol_msgs" d.Dsm.Hdsm.protocol_msgs;
    gi "dsm.prefetched_pages" d.Dsm.Hdsm.prefetched_pages;
    gi "msg.total_messages" (Kernel.Message.total_messages pop.Kernel.Popcorn.bus);
    gi "msg.total_bytes" (Kernel.Message.total_bytes pop.Kernel.Popcorn.bus);
    List.iter
      (fun kind ->
        let s = Kernel.Message.retry_stats pop.Kernel.Popcorn.bus kind in
        let k = Kernel.Message.kind_to_string kind in
        gi (Printf.sprintf "msg.%s.attempts" k) s.Kernel.Message.attempts;
        gi (Printf.sprintf "msg.%s.delivered" k) s.Kernel.Message.delivered;
        gi (Printf.sprintf "msg.%s.dropped" k) s.Kernel.Message.dropped;
        gi (Printf.sprintf "msg.%s.retried" k) s.Kernel.Message.retried;
        gi (Printf.sprintf "msg.%s.failed" k) s.Kernel.Message.failed)
      Kernel.Message.all_kinds
  end;
  result

let pp_result ppf r =
  Format.fprintf ppf
    "%-22s makespan=%8.1fs energy=[%s] total=%8.1fkJ edp=%.2fMJs migrations=%d jobs=%d%s%s%s%s"
    (Policy.name r.policy) r.makespan
    (String.concat "; "
       (Array.to_list (Array.map (fun e -> Printf.sprintf "%.1fkJ" (e /. 1e3)) r.energy)))
    (r.total_energy /. 1e3)
    (r.edp /. 1e6)
    r.migrations r.completed
    (if r.rejected > 0 then Printf.sprintf " rejected=%d" r.rejected else "")
    (if r.failed > 0 then Printf.sprintf " failed=%d" r.failed else "")
    (if r.retried > 0 then Printf.sprintf " retried=%d" r.retried else "")
    (if r.migration_aborts > 0 then
       Printf.sprintf " aborts=%d" r.migration_aborts
     else "")
