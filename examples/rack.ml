(* Rack scale: the paper predicts "greater benefits can be obtained at
   the rack or datacenter scale" (Section 1). This example runs a mixed
   rack — one Xeon front-end plus three FinFET-projected ARM microservers
   — and cascades a nightly consolidation: jobs start on the x86, migrate
   out to the ARM nodes, and the x86 plus any empty ARM nodes power down.

   Run with:  dune exec examples/rack.exe *)

let printf = Format.printf

let rack_machines =
  let arm =
    Machine.Server.with_power Machine.Server.xgene1
      (Machine.Mcpat.project_finfet Machine.Server.xgene1.Machine.Server.power)
  in
  [ Machine.Server.xeon_e5_1650_v2; arm; arm; arm ]

let window_s = 1800.0

let simulate ~consolidate =
  let engine = Sim.Engine.create () in
  let pop = Kernel.Popcorn.create engine ~machines:rack_machines () in
  let container = Kernel.Popcorn.new_container pop ~name:"rack" in
  (* Six overnight services, all started on the x86 front-end. *)
  let jobs =
    List.map
      (fun (name, bench, cls) ->
        let spec = Workload.Spec.spec bench cls in
        let proc =
          Kernel.Popcorn.spawn pop ~container ~node:0 ~name
            ~footprint_bytes:spec.Workload.Spec.footprint_bytes
            ~thread_phases:[ Seq.empty ] ()
        in
        List.iter2
          (fun (th : Kernel.Process.thread) phases ->
            th.Kernel.Process.remaining <- phases)
          proc.Kernel.Process.threads
          (Workload.Spec.phases_for_process spec ~threads:1
             ~quantum_instructions:Workload.Spec.quantum_instructions
             ~data_pages:proc.Kernel.Process.data_pages);
        Kernel.Popcorn.start pop proc;
        proc)
      [
        ("compactor-1", Workload.Spec.Bzip2smp, Workload.Spec.C);
        ("compactor-2", Workload.Spec.Bzip2smp, Workload.Spec.B);
        ("checker", Workload.Spec.Verus, Workload.Spec.C);
        ("kv-maint", Workload.Spec.Redis, Workload.Spec.B);
        ("sort", Workload.Spec.IS, Workload.Spec.B);
        ("stats", Workload.Spec.EP, Workload.Spec.B);
      ]
  in
  if consolidate then begin
    (* Spread the jobs across the ARM nodes two-by-two, then sleep the
       x86 and any ARM node that ends up empty. *)
    Sim.Engine.schedule engine ~at:60.0 (fun () ->
        List.iteri
          (fun i proc ->
            Kernel.Popcorn.migrate pop proc ~to_node:(1 + (i mod 3)))
          jobs);
    Sim.Engine.schedule engine ~at:120.0 (fun () ->
        Kernel.Popcorn.set_powered pop 0 false);
    (* As ARM nodes drain, power them down too. *)
    let rec reap () =
      for node = 1 to 3 do
        let busy =
          List.exists
            (fun p ->
              List.exists
                (fun (th : Kernel.Process.thread) ->
                  th.Kernel.Process.status <> Kernel.Process.Done
                  && th.Kernel.Process.node = node)
                p.Kernel.Process.threads)
            jobs
        in
        if (not busy) && pop.Kernel.Popcorn.nodes.(node).Kernel.Popcorn.powered
        then Kernel.Popcorn.set_powered pop node false
      done;
      if Sim.Engine.now engine < window_s then
        Sim.Engine.schedule_in engine ~after:30.0 reap
    in
    Sim.Engine.schedule engine ~at:150.0 reap
  end;
  Sim.Engine.run_until engine window_s;
  let energies = List.init 4 (fun id -> Kernel.Popcorn.energy pop id) in
  let unfinished = List.length (List.filter Kernel.Process.alive jobs) in
  (energies, unfinished)

let () =
  printf "== Rack-scale consolidation: 1x Xeon + 3x FinFET ARM, %.0f min ==@.@."
    (window_s /. 60.0);
  let base, left_base = simulate ~consolidate:false in
  let cons, left_cons = simulate ~consolidate:true in
  let total = List.fold_left ( +. ) 0.0 in
  printf "%-28s" "node";
  List.iteri (fun i _ -> printf "%10s" (if i = 0 then "x86" else Printf.sprintf "arm%d" i)) base;
  printf "%10s@." "total";
  printf "%-28s" "pinned to x86 (kJ)";
  List.iter (fun e -> printf "%10.1f" (e /. 1e3)) base;
  printf "%10.1f@." (total base /. 1e3);
  printf "%-28s" "consolidated to ARMs (kJ)";
  List.iter (fun e -> printf "%10.1f" (e /. 1e3)) cons;
  printf "%10.1f@." (total cons /. 1e3);
  printf "@.jobs unfinished: %d (pinned) vs %d (consolidated)@." left_base
    left_cons;
  printf "rack-level energy saving: %.1f%%@."
    ((total base -. total cons) /. total base *. 100.0);
  printf
    "@.(with four nodes the consolidation cascade powers machines down one@.";
  printf
    " by one as their queues drain — the ensemble-level proportionality@.";
  printf " the paper predicts for rack scale)@."
