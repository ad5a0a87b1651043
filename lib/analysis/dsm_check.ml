module D = Diagnostic

let rules =
  [
    ("dsm-race", D.Error, "two kernels touched a page, at least one writing, with no ordering message between them");
    ("dsm-empty-log", D.Info, "the capture run recorded no page accesses");
  ]

let capture ~binary ~(spec : Workload.Spec.t) =
  let cluster = Hetmig.Het.make_cluster () in
  let events = ref [] in
  let push e = events := e :: !events in
  Dsm.Hdsm.set_observer cluster.Hetmig.Het.pop.Kernel.Popcorn.dsm
    (Some push);
  Kernel.Popcorn.on_thread_migrated cluster.Hetmig.Het.pop (fun _ _ ~from_ ~to_ ->
      push (Dsm.Hdsm.Obs_sync { src = from_; dst = to_ }));
  let threads = 2 in
  let proc =
    Hetmig.Het.deploy cluster binary ~spec ~threads
      ~quantum_instructions:(spec.Workload.Spec.total_instructions /. 6.0)
      ~node:0 ()
  in
  (* Re-pace the threads so the sampled 16-page phase windows wrap the data
     footprint: pages touched on the source node before the mid-run
     migration are touched again from the destination, so the detector sees
     real cross-node sharing that only the coherence messages order. Large
     footprints are capped — the capture stays cheap and merely loses the
     wrap on those targets. *)
  let n_pages =
    Memsys.Page.ranges_count proc.Kernel.Process.data_pages
  in
  let n_phases = max 6 (min 1024 ((n_pages / 24) + 1)) in
  let quantum =
    spec.Workload.Spec.total_instructions /. float_of_int (threads * n_phases)
  in
  List.iter2
    (fun (th : Kernel.Process.thread) phases ->
      th.Kernel.Process.remaining <- phases)
    proc.Kernel.Process.threads
    (Workload.Spec.phases_for_process spec ~threads
       ~quantum_instructions:quantum
       ~data_pages:proc.Kernel.Process.data_pages);
  Hetmig.Het.start cluster proc;
  Sim.Engine.schedule_in cluster.Hetmig.Het.engine ~after:1e-3 (fun () ->
      if Kernel.Process.alive proc then Hetmig.Het.migrate cluster proc ~to_node:1);
  Hetmig.Het.run cluster;
  Dsm.Hdsm.set_observer cluster.Hetmig.Het.pop.Kernel.Popcorn.dsm None;
  (List.rev !events, Array.length cluster.Hetmig.Het.pop.Kernel.Popcorn.nodes)

let check_log ~label ~units events =
  let has_access =
    List.exists (function Dsm.Hdsm.Obs_access _ -> true | _ -> false) events
  in
  let empty =
    if has_access then []
    else
      [
        D.make ~rule:"dsm-empty-log" ~severity:D.Info ~prog:label
          "capture run recorded no page accesses";
      ]
  in
  empty
  @ List.map
      (fun (r : Race.race) ->
        D.make ~rule:"dsm-race" ~severity:D.Error ~prog:label
          ~site:(Printf.sprintf "page:%d" r.Race.page)
          (Format.asprintf "%a" Race.pp_race r))
      (Race.detect ~units events)

let check ~label ~binary ~spec =
  let events, units = capture ~binary ~spec in
  check_log ~label ~units events
