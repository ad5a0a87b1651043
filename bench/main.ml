(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7), checks each against the paper's qualitative
   shape, then runs a Bechamel micro-benchmark of each experiment's
   computational kernel.

   Usage:
     dune exec bench/main.exe                -- everything
     dune exec bench/main.exe -- fig12       -- one experiment
     dune exec bench/main.exe -- --no-micro  -- skip the Bechamel pass
     dune exec bench/main.exe -- --jobs 4    -- domain-pool size for grids
     dune exec bench/main.exe -- --seq       -- fully sequential (= --jobs 1)
     dune exec bench/main.exe -- --json P    -- write machine-readable results *)

let experiments =
  [
    ("fig1", "Figure 1 (emulation slowdown)", Experiments.Fig1.run);
    ("fig3-5", "Figures 3-5 (migration point gaps)", Experiments.Fig35.run);
    ("fig6-9", "Figures 6-9 (wrapper overhead)", Experiments.Fig69.run);
    ("table1", "Table 1 (alignment cost)", Experiments.Table1.run);
    ("fig10", "Figure 10 (stack transformation)", Experiments.Fig10.run);
    ("fig11", "Figure 11 (PadMig vs native)", Experiments.Fig11.run);
    ("fig12", "Figure 12 (sustained workload)", Experiments.Fig12.run);
    ("fig13", "Figure 13 (periodic workload)", Experiments.Fig13.run);
    ("ablations", "Ablation studies (non-paper)", Experiments.Ablation.run);
    ("degraded", "Degraded mode (fault injection, non-paper)",
     Experiments.Degraded.run);
    ("prefetch", "Batched hDSM transfers + prefetch (non-paper)",
     Experiments.Prefetch.run);
    ("telemetry", "Observability: traced degraded run (non-paper)",
     Experiments.Telemetry.run);
    ("engine", "Event core: engine/calendar/islands (non-paper)",
     Experiments.Engine.run);
    ("cluster", "Cluster: rack topology + global policies (non-paper)",
     Experiments.Cluster.run);
    ("serving", "Open-loop SLO serving (non-paper)",
     Experiments.Serving.run);
    ("throughput", "Serving throughput at scale (non-paper)",
     Experiments.Throughput.run);
  ]

(* Wall-clock seconds on the monotonic clock: experiment grids now run on
   multiple domains, where CPU time ([Sys.time]) overstates elapsed time
   by roughly the pool width. *)
let wall_now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* --- Bechamel micro-benchmarks: one per table/figure, measuring the
   operation that experiment exercises. ---------------------------------- *)

let cg_binary = lazy (Hetmig.Het.compile_benchmark Workload.Spec.CG Workload.Spec.A)

let transform_input =
  lazy
    (let binary = Lazy.force cg_binary in
     let fname, mig_id =
       List.find (fun (f, _) -> f = "cg_dot")
         (Runtime.Interp.reachable_mig_sites binary)
     in
     match Runtime.Interp.state_at binary Isa.Arch.X86_64 ~fname ~mig_id with
     | Some st -> (binary, st)
     | None -> failwith "no state")

let micro_tests () =
  let open Bechamel in
  let spec_is_a = Workload.Spec.spec Workload.Spec.IS Workload.Spec.A in
  [
    (* Fig 1: one emulation slowdown evaluation. *)
    Test.make ~name:"fig1/emulation_slowdown"
      (Staged.stage (fun () ->
           Baseline.Emulation.slowdown Baseline.Emulation.X86_on_arm spec_is_a
             ~threads:4));
    (* Figs 3-5: profiling gaps of CG.A. *)
    Test.make ~name:"fig3_5/profile_gaps"
      (Staged.stage (fun () ->
           Compiler.Profiler.program_gaps
             (Workload.Programs.program Workload.Spec.CG Workload.Spec.A)));
    (* Figs 6-9: migration point insertion pass. *)
    Test.make ~name:"fig6_9/instrument"
      (Staged.stage (fun () ->
           Compiler.Migration_points.instrument
             (Workload.Programs.program Workload.Spec.IS Workload.Spec.A)));
    (* Table 1: the symbol alignment tool over the CG objects. *)
    Test.make ~name:"table1/align_symbols"
      (Staged.stage (fun () ->
           Compiler.Toolchain.compile
             (Workload.Programs.program Workload.Spec.CG Workload.Spec.A)));
    (* Fig 10: one stack transformation. *)
    Test.make ~name:"fig10/stack_transform"
      (Staged.stage (fun () ->
           let binary, st = Lazy.force transform_input in
           match Runtime.Transform.transform binary st with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Fig 11: one hDSM page access + migration protocol step. *)
    Test.make ~name:"fig11/hdsm_access"
      (Staged.stage
         (let dsm =
            Dsm.Hdsm.create ~nodes:2
              ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
          in
          Dsm.Hdsm.register_page dsm ~page:0 ~owner:0;
          let node = ref 0 in
          fun () ->
            node := 1 - !node;
            ignore (Dsm.Hdsm.access dsm ~node:!node ~page:0 ~write:true)));
    (* Fig 12: one sustained-scheduler run (small set). *)
    Test.make ~name:"fig12/schedule_sustained"
      (Staged.stage (fun () ->
           ignore
             (Sched.Scheduler.run Sched.Policy.Dynamic_unbalanced
                (Sched.Arrival.sustained ~seed:7 ~jobs:4))));
    (* Fig 13: one periodic-scheduler run (small set). *)
    Test.make ~name:"fig13/schedule_periodic"
      (Staged.stage (fun () ->
           ignore
             (Sched.Scheduler.run Sched.Policy.Dynamic_balanced
                (Sched.Arrival.periodic ~seed:7 ~waves:2 ~max_per_wave:4))));
    (* Engine: one push + pop through the pooled heap. *)
    Test.make ~name:"engine/engine_push_pop"
      (Staged.stage
         (let e = Sim.Engine.create () in
          let t = ref 0.0 in
          fun () ->
            t := !t +. 1.0;
            Sim.Engine.schedule e ~at:!t ignore;
            Sim.Engine.run_until e !t));
    (* Engine: one keyed calendar push + pop. *)
    Test.make ~name:"engine/calendar_push_pop"
      (Staged.stage
         (let cal = Sim.Calendar.create ~dummy:0 () in
          let t = ref 0.0 in
          let seq = ref 0 in
          fun () ->
            t := !t +. 1.0;
            incr seq;
            Sim.Calendar.push cal ~time:!t ~src:0 ~seq:!seq 1;
            ignore (Sim.Calendar.pop cal)));
    (* Engine: one small fleet scenario on the island runtime. *)
    Test.make ~name:"engine/fleet_small"
      (Staged.stage (fun () ->
           ignore
             (Sched.Cluster.run ~domains:1
                (Sched.Cluster.fleet ~nodes:2 ~jobs:3 ~seed:5))));
    (* Cluster: one small racked scenario with the per-edge lookahead
       matrix in play. *)
    Test.make ~name:"cluster/cluster_small"
      (Staged.stage
         (let topo = Machine.Topology.make ~racks:2 ~nodes_per_rack:2 () in
          fun () ->
            ignore
              (Sched.Cluster.run ~domains:1
                 (Sched.Cluster.default ~topology:topo ~jobs:4 ~seed:5))));
    (* Serving: one short bursty serve run end to end (streamed). *)
    Test.make ~name:"serving/serve_small"
      (Staged.stage
         (let source =
            Sched.Arrival.bursty_source ~seed:5 ~services:2 ~duration_s:5.0 ()
          in
          let cfg = Sched.Service.default ~nodes:4 ~seed:5 ~source in
          fun () -> ignore (Sched.Service.run ~domains:1 cfg)));
    (* Serving: one streamed arrival pull through the k-way merge. *)
    Test.make ~name:"serving/stream_pull"
      (Staged.stage
         (let source =
            Sched.Arrival.bursty_source ~seed:9 ~services:8
              ~duration_s:1e9 ()
          in
          let stream = ref (Sched.Arrival.open_stream source) in
          fun () ->
            if not (Sched.Arrival.next !stream) then
              stream := Sched.Arrival.open_stream source));
  ]

(* Returns (name, ns/run, r^2) per micro-benchmark for the JSON report. *)
let run_micro ppf =
  let open Bechamel in
  Format.fprintf ppf "@.%s@.= Bechamel micro-benchmarks (per-experiment kernels) =@.%s@."
    (String.make 54 '=') (String.make 54 '=');
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      let results =
        List.map
          (fun elt ->
            let m = Benchmark.run cfg instances elt in
            (Test.Elt.name elt, Analyze.one ols Toolkit.Instance.monotonic_clock m))
          (Test.elements test)
      in
      List.map
        (fun (name, ols_result) ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | Some [] | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> nan
          in
          Format.fprintf ppf "  %-28s %12.1f ns/run   (r^2 %.3f)@." name
            time_ns r2;
          (name, time_ns, r2))
        results)
    (micro_tests ())

(* --- machine-readable results (the benchmark-regression baseline) ------ *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then None else Some line
  with _ -> None

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else Printf.sprintf "%.6g" f

let write_json path ~jobs ~metrics ~experiment_times ~micro =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  (match git_rev () with
  | Some rev -> out "  \"git_rev\": \"%s\",\n" (json_escape rev)
  | None -> out "  \"git_rev\": null,\n");
  out "  \"jobs\": %d,\n" jobs;
  (* The canonical scenario's metrics registry is already a byte-stable
     JSON object; embed it verbatim. *)
  (match metrics with
  | Some m -> out "  \"metrics\": %s,\n" (String.trim m)
  | None -> ());
  out "  \"experiments\": [\n";
  List.iteri
    (fun i (name, wall_s) ->
      out "    {\"name\": \"%s\", \"wall_s\": %s}%s\n" (json_escape name)
        (json_float wall_s)
        (if i = List.length experiment_times - 1 then "" else ","))
    experiment_times;
  out "  ],\n";
  out "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n"
        (json_escape name) (json_float ns) (json_float r2)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  out "  ]\n}\n";
  close_out oc

(* --- --compare: the benchmark-regression gate --------------------------- *)

(* Minimal reader for the reports this harness writes with --json: pull
   out the {"name", "wall_s"} experiment entries by line shape. The
   container has no JSON library and we only ever read our own output. *)
let read_baseline path =
  let ic =
    try open_in path
    with Sys_error e ->
      Format.eprintf "--compare: %s@." e;
      exit 2
  in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       try
         Scanf.sscanf line "{\"name\": %S, \"wall_s\": %f" (fun n w ->
             entries := (n, w) :: !entries)
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* An experiment more than 25% slower than its baseline entry (plus a
   small absolute slack, so sub-second experiments don't flake on host
   scheduler noise) fails the gate. *)
let compare_against ppf ~baseline experiment_times =
  let base = read_baseline baseline in
  let rel = 1.25 and slack = 0.5 in
  let regressions = ref 0 in
  Format.fprintf ppf "@.= wall-time regression gate (vs %s) =@." baseline;
  List.iter
    (fun (name, wall_s) ->
      match List.assoc_opt name base with
      | None ->
        Format.fprintf ppf "  %-10s %8.2fs (no baseline entry, skipped)@." name
          wall_s
      | Some b ->
        let limit = (b *. rel) +. slack in
        let ok = wall_s <= limit in
        if not ok then incr regressions;
        Format.fprintf ppf "  %-10s %8.2fs vs baseline %.2fs (limit %.2fs)  %s@."
          name wall_s b limit
          (if ok then "ok" else "REGRESSION"))
    experiment_times;
  !regressions

let usage ppf =
  Format.fprintf ppf
    "usage: main.exe [--no-micro] [--seq] [--jobs N] [--json PATH] [--metrics PATH] [--compare BASELINE] [experiment ...]@.";
  Format.fprintf ppf "available experiments:@.";
  List.iter
    (fun (n, d, _) -> Format.fprintf ppf "  %-8s %s@." n d)
    experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_micro = ref false in
  let seq = ref false in
  let jobs_flag = ref None in
  let json_path = ref None in
  let metrics_path = ref None in
  let compare_path = ref None in
  let wanted = ref [] in
  let rec parse = function
    | [] -> ()
    | "--no-micro" :: rest -> no_micro := true; parse rest
    | "--seq" :: rest -> seq := true; parse rest
    | "--jobs" :: n :: rest -> begin
      match int_of_string_opt n with
      | Some j when j >= 1 -> jobs_flag := Some j; parse rest
      | Some _ | None ->
        Format.eprintf "--jobs expects a positive integer, got %s@." n;
        exit 2
    end
    | [ "--jobs" ] ->
      Format.eprintf "--jobs expects an argument@.";
      exit 2
    | "--json" :: path :: rest -> json_path := Some path; parse rest
    | [ "--json" ] ->
      Format.eprintf "--json expects a path@.";
      exit 2
    | "--metrics" :: path :: rest -> metrics_path := Some path; parse rest
    | [ "--metrics" ] ->
      Format.eprintf "--metrics expects a path@.";
      exit 2
    | "--compare" :: path :: rest -> compare_path := Some path; parse rest
    | [ "--compare" ] ->
      Format.eprintf "--compare expects a baseline JSON path@.";
      exit 2
    | arg :: rest -> wanted := arg :: !wanted; parse rest
  in
  parse args;
  let wanted = List.rev !wanted in
  let ppf = Format.std_formatter in
  Experiments.Config.jobs := (if !seq then Some 1 else !jobs_flag);
  let jobs_used =
    match !Experiments.Config.jobs with
    | Some n -> n
    | None -> Parallel.Pool.default_jobs ()
  in
  let selected =
    match wanted with
    | [] -> experiments
    | names ->
      List.filter (fun (name, _, _) -> List.mem name names) experiments
  in
  if selected = [] then begin
    Format.fprintf ppf "unknown experiment; available:@.";
    usage ppf;
    exit 2
  end;
  let experiment_times =
    List.map
      (fun (name, _, run) ->
        let t0 = wall_now () in
        run ppf;
        let wall_s = wall_now () -. t0 in
        Format.fprintf ppf "  (experiment computed in %.1fs of host time)@."
          wall_s;
        (name, wall_s))
      selected
  in
  let micro =
    if (not !no_micro) && wanted = [] then run_micro ppf else []
  in
  (* The metrics report is the canonical observed scenario's registry —
     deterministic, so byte-identical across --seq / --jobs N. *)
  let metrics =
    match !metrics_path with
    | None -> None
    | Some path ->
      let obs, _ = Experiments.Telemetry.observed_run () in
      let json = Obs.metrics_json obs in
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Format.fprintf ppf "(metrics written to %s)@." path;
      Some json
  in
  (match !json_path with
  | Some path ->
    write_json path ~jobs:jobs_used ~metrics ~experiment_times ~micro;
    Format.fprintf ppf "(results written to %s)@." path
  | None -> ());
  let regressions =
    match !compare_path with
    | Some baseline -> compare_against ppf ~baseline experiment_times
    | None -> 0
  in
  let failures = Experiments.Shape.failures () in
  Format.fprintf ppf "@.%s@." (String.make 54 '-');
  if regressions > 0 then
    Format.fprintf ppf "%d experiment(s) exceeded the wall-time budget.@."
      regressions;
  if failures = 0 then
    Format.fprintf ppf "All shape checks PASSED.@."
  else
    Format.fprintf ppf "%d shape check(s) FAILED.@." failures;
  if failures > 0 || regressions > 0 then exit 1
