(* `hetmig audit` driver: run the committed parallel-runtime scenarios
   with capture enabled and push the recorded executions through the
   schedule verifier, the island ownership check, and the determinism
   certifier.

   Per scenario (fleet, cluster, serve):

     - base: the scenario runs audited at domains=1 and domains=N; the
       d=1 capture is schedule-verified and ownership-checked, and the two
       runs are certified against each other (captures elementwise,
       then renders line-by-line);
     - seed and epoch variants: plain runs at both domain counts,
       certified on renders — the cheap determinism sweep;
     - sensitivity: the base render (config header stripped) must
       differ from each variant's, or the knob is not reaching the
       simulation.

   The scheduler scenario certifies a repeat run against the first. The
   repeat runs on the warm process-wide phase memo, so a memo that
   leaks state from one run into the next forks the render.

   Tasks fan over {!Parallel.Pool} in a fixed order and each task's
   diagnostics depend only on its own runs, so the report is
   byte-identical whatever [jobs] is. *)

module D = Diagnostic
module Det = Determinism_check

type scenario = Fleet | Cluster | Serve | Scheduler

let scenario_name = function
  | Fleet -> "fleet"
  | Cluster -> "cluster"
  | Serve -> "serve"
  | Scheduler -> "scheduler"

let scenario_of_name = function
  | "fleet" -> Some Fleet
  | "cluster" -> Some Cluster
  | "serve" -> Some Serve
  | "scheduler" -> Some Scheduler
  | _ -> None

let all_scenarios = [ Fleet; Cluster; Serve; Scheduler ]

let rules =
  Islands_check.rules @ Island_race.rules @ Determinism_check.rules

let is_rule = D.is_rule rules

(* The committed scenarios: the fleet smoke (64 nodes, 1000 jobs) and
   the bursty 16-node serve, both seed 42 — the configurations the CI
   sequential-vs-islands diffs already pin down. *)
let default_fleet = Sched.Cluster.fleet ~nodes:64 ~jobs:1000 ~seed:42

(* The CI cluster smoke: 256 nodes in 8 racks, EDP-aware global
   migration — the topology-aware lookahead paths under certification. *)
let default_cluster () =
  Sched.Cluster.default
    ~topology:
      (Machine.Topology.make ~mix:Machine.Topology.Alternate ~racks:8
         ~nodes_per_rack:32 ())
    ~jobs:2000 ~seed:42

let default_serve () =
  Sched.Service.default ~nodes:16 ~seed:42
    ~source:
      (Sched.Arrival.bursty_source ~seed:42 ~services:8 ~duration_s:60.0 ())

(* Render with the config header stripped: the header echoes the knobs
   (seed, epoch), so with it in place a sensitivity comparison could
   never report the knob as dead. *)
let body render =
  match String.index_opt render '\n' with
  | Some i -> String.sub render (i + 1) (String.length render - i - 1)
  | None -> render

let run ?rules:ids ?(scenarios = all_scenarios) ?(domains = 4) ?jobs
    ?(fleet = default_fleet) ?cluster ?serve () =
  D.validate_rules rules ~who:"Audit" ids;
  if domains < 1 then invalid_arg "Audit.run: domains must be positive";
  let serve = match serve with Some s -> s | None -> default_serve () in
  let cluster =
    match cluster with Some c -> c | None -> default_cluster ()
  in
  let wants_cap = D.wants_prefix ids "island" in
  let wants_det = D.wants_prefix ids "det-" in
  let dn_label = Printf.sprintf "domains=%d" domains in
  let certify ~label ~candidate_capture ~reference_capture render1 rendern =
    Det.certify ~label
      ~reference:
        { Det.r_label = "domains=1"; r_render = render1;
          r_capture = reference_capture }
      ~candidate:
        { Det.r_label = dn_label; r_render = rendern;
          r_capture = candidate_capture }
  in
  (* One island scenario's tasks. Each task returns (diagnostics,
     labeled header-stripped renders); the renders feed the post-pool
     sensitivity checks. The base runs audited at domains=1 and N; the
     seed and epoch variants run plain and are certified on renders. *)
  let island_tasks ~label ~run_audited ~run ~render ~seed ~epoch base =
    let base_task () =
      let r1, cap1 = run_audited ~domains:1 base in
      let rn, capn = run_audited ~domains base in
      let render1 = render base r1 in
      let diags =
        (if wants_cap then
           Islands_check.check ~label cap1 @ Island_race.check ~label cap1
         else [])
        @
        if wants_det then
          certify ~label ~reference_capture:(Some cap1)
            ~candidate_capture:(Some capn) render1 (render base rn)
        else []
      in
      (diags, [ (label ^ ":base", body render1) ])
    in
    let variant_task ~tag cfg () =
      let render1 = render cfg (run ~domains:1 cfg) in
      let rendern = render cfg (run ~domains cfg) in
      ( certify ~label ~reference_capture:None ~candidate_capture:None render1
          rendern,
        [ (label ^ ":" ^ tag, body render1) ] )
    in
    (if wants_cap || wants_det then [ base_task ] else [])
    @
    if wants_det then
      [
        variant_task ~tag:"seed" (seed base);
        variant_task ~tag:"epoch" (epoch base);
      ]
    else []
  in
  let cluster_tasks ~label =
    island_tasks ~label
      ~run_audited:(fun ~domains c -> Sched.Cluster.run_audited ~domains c)
      ~run:(fun ~domains c -> Sched.Cluster.run ~domains c)
      ~render:Sched.Cluster.render
      ~seed:(fun c -> { c with Sched.Cluster.seed = c.Sched.Cluster.seed + 1 })
      ~epoch:(fun c ->
        { c with Sched.Cluster.epoch_s = c.Sched.Cluster.epoch_s *. 2.0 })
  in
  let sched_render r = Format.asprintf "%a" Sched.Scheduler.pp_result r in
  let sched_base () =
    let label = "scheduler" in
    let jobs = Sched.Arrival.sustained ~seed:42 ~jobs:40 in
    let policy = Sched.Policy.Dynamic_unbalanced in
    let first = sched_render (Sched.Scheduler.run policy jobs) in
    let repeat = sched_render (Sched.Scheduler.run policy jobs) in
    let diags =
      Det.certify ~label
        ~reference:{ Det.r_label = "first"; r_render = first; r_capture = None }
        ~candidate:
          { Det.r_label = "repeat"; r_render = repeat; r_capture = None }
    in
    (diags, [ ("scheduler:base", first) ])
  in
  let sched_seed () =
    let jobs = Sched.Arrival.sustained ~seed:43 ~jobs:40 in
    let render =
      sched_render (Sched.Scheduler.run Sched.Policy.Dynamic_unbalanced jobs)
    in
    ([], [ ("scheduler:seed", render) ])
  in
  let tasks =
    List.concat_map
      (fun scenario ->
        match scenario with
        | Fleet -> cluster_tasks ~label:"fleet" fleet
        | Cluster -> cluster_tasks ~label:"cluster" cluster
        | Serve ->
            island_tasks ~label:"serve"
              ~run_audited:(fun ~domains c ->
                Sched.Service.run_audited ~domains c)
              ~run:(fun ~domains c -> Sched.Service.run ~domains c)
              ~render:Sched.Service.render
              ~seed:(fun c ->
                { c with Sched.Service.seed = c.Sched.Service.seed + 1 })
              ~epoch:(fun c ->
                {
                  c with
                  Sched.Service.epoch_s = c.Sched.Service.epoch_s *. 2.0;
                })
              serve
        | Scheduler -> if wants_det then [ sched_base; sched_seed ] else [])
      scenarios
  in
  let outs = Parallel.Pool.map_list ?jobs (fun task -> task ()) tasks in
  let renders = List.concat_map snd outs in
  let sensitivity =
    if not (D.wants_prefix ids "det-seed") then []
    else
      List.concat_map
        (fun scenario ->
          let name = scenario_name scenario in
          let find tag = List.assoc_opt tag renders in
          let probe ~variant ~vlabel =
            match (find (name ^ ":base"), find variant) with
            | Some base, Some perturbed ->
                Det.check_seed_sensitivity ~label:name
                  ~base:
                    { Det.r_label = "base"; r_render = base; r_capture = None }
                  ~perturbed:
                    {
                      Det.r_label = vlabel;
                      r_render = perturbed;
                      r_capture = None;
                    }
            | _ -> []
          in
          probe ~variant:(name ^ ":seed") ~vlabel:"seed+1"
          @
          if scenario = Scheduler then []
          else probe ~variant:(name ^ ":epoch") ~vlabel:"epoch*2")
        scenarios
  in
  List.filter (D.selected ids) (List.concat_map fst outs @ sensitivity)
