(* hetmig — command-line front end to the heterogeneous-ISA migration
   system: compile benchmark models to multi-ISA binaries, inspect them,
   migrate suspended threads between ISAs, evaluate emulation baselines,
   run scheduling studies, and regenerate the paper's experiments. *)

open Cmdliner

let bench_conv =
  let parse s =
    let matching =
      List.find_opt
        (fun b -> Workload.Spec.bench_to_string b = String.lowercase_ascii s)
        Workload.Spec.all_benches
    in
    match matching with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown benchmark %s (try: %s)" s
              (String.concat ", "
                 (List.map Workload.Spec.bench_to_string
                    Workload.Spec.all_benches))))
  in
  Arg.conv (parse, fun ppf b ->
      Format.pp_print_string ppf (Workload.Spec.bench_to_string b))

let cls_conv =
  let parse = function
    | "A" | "a" -> Ok Workload.Spec.A
    | "B" | "b" -> Ok Workload.Spec.B
    | "C" | "c" -> Ok Workload.Spec.C
    | s -> Error (`Msg (Printf.sprintf "unknown class %s (A, B or C)" s))
  in
  Arg.conv (parse, fun ppf c ->
      Format.pp_print_string ppf (Workload.Spec.cls_to_string c))

let arch_conv =
  let parse s =
    match Isa.Arch.of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown ISA %s" s))
  in
  Arg.conv (parse, Isa.Arch.pp)

let bench_arg = Arg.(required & pos 0 (some bench_conv) None
                     & info [] ~docv:"BENCH" ~doc:"Benchmark (cg, is, ft, ...).")
let cls_arg =
  Arg.(value & pos 1 cls_conv Workload.Spec.A
       & info [] ~docv:"CLASS" ~doc:"Problem class: A, B or C.")

(* --- compile ------------------------------------------------------------ *)

let compile_cmd =
  let run bench cls show_script show_dwarf =
    let binary = Hetmig.Het.compile_benchmark bench cls in
    let spec = Workload.Spec.spec bench cls in
    Format.printf "multi-ISA binary for %s@." spec.Workload.Spec.name;
    Format.printf "  migration points: %d@."
      binary.Compiler.Toolchain.migration_points;
    List.iter
      (fun arch ->
        let per = Compiler.Toolchain.for_arch binary arch in
        Format.printf "  %-7s text %6d bytes (+%d padding), entry %#x@."
          (Isa.Arch.to_string arch)
          (Hetmig.Het.code_size binary arch)
          (Hetmig.Het.alignment_padding binary arch)
          per.Compiler.Toolchain.elf.Binary.Elf.entry)
      Isa.Arch.all;
    Format.printf "  symbols at identical addresses: %s@."
      (match Binary.Align.check_aligned binary.Compiler.Toolchain.aligned with
      | Ok () -> "yes"
      | Error e -> "NO - " ^ e);
    if show_script then begin
      let layout =
        Binary.Align.layout_for binary.Compiler.Toolchain.aligned
          Isa.Arch.X86_64
      in
      print_string (Binary.Linker_script.render layout)
    end;
    if show_dwarf then
      List.iter
        (fun arch -> print_string (Hetmig.Het.debug_frame binary arch))
        Isa.Arch.all
  in
  let script =
    Arg.(value & flag
         & info [ "linker-script" ] ~doc:"Print the generated linker script.")
  in
  let dwarf =
    Arg.(value & flag
         & info [ "debug-frame" ]
             ~doc:"Print the DWARF CFI the migration runtime consumes.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a benchmark to a multi-ISA binary")
    Term.(const run $ bench_arg $ cls_arg $ script $ dwarf)

(* --- migrate ------------------------------------------------------------- *)

let migrate_cmd =
  let run bench cls from_ =
    let binary = Hetmig.Het.compile_benchmark bench cls in
    Format.printf "%-24s %7s %7s %7s %10s %9s@." "site" "frames" "values"
      "ptrfix" "latency" "verified";
    List.iter
      (fun site ->
        let fname, id = site in
        match Hetmig.Het.migrate_at binary ~from_ ~site with
        | Ok r ->
          Format.printf "%-24s %7d %7d %7d %8.0fus %9b@."
            (Printf.sprintf "%s#%d" fname id)
            r.Hetmig.Het.frames r.Hetmig.Het.values_copied
            r.Hetmig.Het.pointers_fixed r.Hetmig.Het.latency_us
            r.Hetmig.Het.verified
        | Error e ->
          Format.printf "%-24s error: %s@." (Printf.sprintf "%s#%d" fname id) e)
      (Hetmig.Het.migration_points binary)
  in
  let from_arg =
    Arg.(value & opt arch_conv Isa.Arch.X86_64
         & info [ "from" ] ~docv:"ISA" ~doc:"Source ISA (default x86_64).")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Transform a benchmark's stack at every migration point")
    Term.(const run $ bench_arg $ cls_arg $ from_arg)

(* --- emulation ------------------------------------------------------------ *)

let emulation_cmd =
  let run bench cls threads =
    let spec = Workload.Spec.spec bench cls in
    let a =
      Baseline.Emulation.slowdown Baseline.Emulation.Arm_on_x86 spec ~threads
    in
    let x =
      Baseline.Emulation.slowdown Baseline.Emulation.X86_on_arm spec ~threads
    in
    Format.printf "%s, %d thread(s):@." spec.Workload.Spec.name threads;
    Format.printf "  ARM binary emulated on x86: %6.1fx slower than native ARM@." a;
    Format.printf "  x86 binary emulated on ARM: %6.1fx slower than native x86@." x
  in
  let threads =
    Arg.(value & opt int 1 & info [ "threads"; "t" ] ~doc:"Native thread count.")
  in
  Cmd.v
    (Cmd.info "emulation"
       ~doc:"KVM/QEMU DBT slowdown of the benchmark (the Figure 1 baseline)")
    Term.(const run $ bench_arg $ cls_arg $ threads)

(* --- shared conversions, output plumbing and flags ------------------------- *)

let crash_conv =
  (* Sched.Validate names the token that broke ("twelve" is not a node
     id) instead of one catch-all message; the whole-fleet range check
     happens at run setup, once --nodes is known. *)
  let parse s =
    match Sched.Validate.crash_spec s with
    | Ok c -> Ok c
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf (c : Faults.Plan.crash) ->
      Format.fprintf ppf "%d@%g" c.Faults.Plan.node c.Faults.Plan.at)

(* CLI-boundary validation: report the offending flag and exit 2 rather
   than crash deep inside a simulator's [invalid_arg]. *)
let validated ~cmd = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "hetmig %s: %s@." cmd msg;
    exit 2

(* Per-policy output path for --trace: "out.json" -> "out-<policy>.json"
   (policy names are filename-safe). *)
let trace_path base policy_name =
  match Filename.chop_suffix_opt ~suffix:".json" base with
  | Some stem -> Printf.sprintf "%s-%s.json" stem policy_name
  | None -> Printf.sprintf "%s-%s" base policy_name

(* An output path the CLI cannot write is a usage error naming its
   flag (exit 2), not an uncaught [Sys_error]. *)
let open_output ~cmd ~flag path =
  try open_out path
  with Sys_error e ->
    Format.eprintf "hetmig %s: %s %s@." cmd flag e;
    exit 2

let write_file ~cmd ~flag path contents =
  let oc = open_output ~cmd ~flag path in
  output_string oc contents;
  close_out oc

(* The report goes to [--out]'s channel, opened before the run, or to
   stdout. *)
let print_report out text =
  match out with
  | Some oc ->
    output_string oc text;
    close_out oc
  | None -> print_string text

(* Flags several commands share, each defined once. *)

(* --islands/--seq: the domain count a run spans. The report never
   depends on it. *)
let domains_term ~cmd =
  let islands =
    Arg.(value & opt (some int) None
         & info [ "islands" ] ~docv:"D"
             ~doc:
               "Domains to span the run over (default: HETMIG_JOBS or the \
                machine's core count). The report is byte-identical \
                whatever this is.")
  in
  let seq =
    Arg.(value & flag
         & info [ "seq" ]
             ~doc:"Sequential reference run (same as --islands 1).")
  in
  let domains islands seq =
    match validated ~cmd (Sched.Validate.islands islands) with
    | _ when seq -> 1
    | Some d -> d
    | None -> Parallel.Pool.default_jobs ()
  in
  Term.(const domains $ islands $ seq)

let seed_term ~default =
  Arg.(value & opt int default & info [ "seed" ] ~doc:"Random seed.")

let out_term =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"PATH"
           ~doc:"Write the report to PATH instead of stdout.")

let crashes_term =
  Arg.(value & opt_all crash_conv []
       & info [ "crash" ] ~docv:"NODE@TIME"
           ~doc:"Crash a node at a simulated time (repeatable).")

(* --- schedule --------------------------------------------------------------- *)

let schedule_cmd =
  let run seed jobs periodic drop fault_seed retry_budget crashes
      page_timeout_rate dsm_batch prefetch trace metrics =
    let must v = validated ~cmd:"schedule" v in
    let module V = Sched.Validate in
    let js =
      if periodic then Sched.Arrival.periodic ~seed ~waves:5 ~max_per_wave:14
      else
        Sched.Arrival.sustained ~seed
          ~jobs:(must (V.at_least ~what:"--jobs" ~min:0 jobs))
    in
    let drop = must (V.probability ~what:"--drop" drop) in
    let page_timeout_rate =
      must (V.probability ~what:"--page-timeout-rate" page_timeout_rate)
    in
    (* No fault flags -> no plan at all: the run is byte-identical to one
       from a build without fault injection. The plan's own flags are
       checked only when it is built; the ensemble has two nodes. *)
    let faults =
      if drop = 0.0 && crashes = [] && page_timeout_rate = 0.0 then None
      else begin
        let retry_budget =
          must (V.at_least ~what:"--retry-budget" ~min:1 retry_budget)
        in
        must (V.crashes_in_range ~nodes:2 crashes);
        Some
          (Faults.Plan.make ~seed:fault_seed
             ~messages:
               [ { Faults.Plan.kind = "*"; drop; delay = drop;
                   delay_s = 200e-6 } ]
             ~crashes ~page_timeout_rate ~retry_budget ())
      end
    in
    Format.printf "%d jobs (%s, seed %d):@." (List.length js)
      (if periodic then "periodic" else "sustained")
      seed;
    (match faults with
    | Some plan -> Format.printf "fault plan: %a@." Faults.Plan.pp plan
    | None -> ());
    List.iter
      (fun p ->
        let obs =
          if trace <> None || metrics then Obs.create () else Obs.noop
        in
        let r = Sched.Scheduler.run ?faults ~dsm_batch ~prefetch ~obs p js in
        Format.printf "  %a@." Sched.Scheduler.pp_result r;
        (match trace with
        | Some base ->
          let path = trace_path base (Sched.Policy.name p) in
          write_file ~cmd:"schedule" ~flag:"--trace" path
            (Obs.chrome_json obs);
          Format.printf "    (trace: %s, %d events)@." path
            (Obs.event_count obs)
        | None -> ());
        if metrics then print_string (Obs.metrics_text obs))
      Sched.Policy.all
  in
  let jobs =
    Arg.(value & opt int 20 & info [ "jobs" ] ~doc:"Jobs (sustained mode).")
  in
  let periodic =
    Arg.(value & flag & info [ "periodic" ] ~doc:"Periodic wave arrivals.")
  in
  let drop =
    Arg.(value & opt float 0.0
         & info [ "drop" ] ~docv:"P"
             ~doc:"Message drop & delay probability (fault injection).")
  in
  let fault_seed =
    Arg.(value & opt int 42
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seed of the fault plan's own PRNG stream.")
  in
  let retry_budget =
    Arg.(value & opt int 3
         & info [ "retry-budget" ] ~docv:"N"
             ~doc:"Send attempts per message and admissions per crashed job.")
  in
  let page_timeout_rate =
    Arg.(value & opt float 0.0
         & info [ "page-timeout-rate" ] ~docv:"P"
             ~doc:"Probability a page-request batch times out once.")
  in
  let dsm_batch =
    Arg.(value & flag
         & info [ "dsm-batch" ]
             ~doc:
               "Coalesce contiguous hDSM page runs into single protocol \
                operations (off: per-page, the paper's model).")
  in
  let prefetch =
    Arg.(value & flag
         & info [ "prefetch" ]
             ~doc:
               "Push a migrating thread's predicted working set to the \
                destination during the stack transformation.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:
               "Write a Chrome trace-event JSON per policy (Perfetto / \
                chrome://tracing loadable) to PATH with the policy name \
                appended, e.g. out-dynamic-balanced.json.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the collected metrics registry after each policy.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run a workload under all five scheduling policies")
    Term.(const run $ seed_term ~default:1 $ jobs $ periodic $ drop
          $ fault_seed $ retry_budget $ crashes_term $ page_timeout_rate
          $ dsm_batch $ prefetch $ trace $ metrics)

(* --- metrics ----------------------------------------------------------------- *)

let metrics_cmd =
  let run json trace =
    let obs, r = Experiments.Telemetry.observed_run () in
    (match trace with
    | Some path ->
      write_file ~cmd:"metrics" ~flag:"--trace" path (Obs.chrome_json obs);
      Format.eprintf "(trace written to %s, %d events)@." path
        (Obs.event_count obs)
    | None -> ());
    if json then begin
      Format.eprintf "canonical degraded scenario: %a@."
        Sched.Scheduler.pp_result r;
      print_string (Obs.metrics_json obs)
    end
    else begin
      Format.printf "canonical degraded scenario: %a@.@."
        Sched.Scheduler.pp_result r;
      print_string (Obs.metrics_text obs)
    end
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit the registry as byte-stable sorted JSON instead of \
                text (the result line moves to stderr).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Also write the scenario's Chrome trace-event JSON.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the canonical observed scenario (the fig-12 sustained mix \
          under 5% message loss with a mid-run node crash, \
          dynamic-balanced) and dump its metrics registry")
    Term.(const run $ json $ trace)

(* --- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let run bench cls =
    let prog = Workload.Programs.program bench cls in
    let inst = Compiler.Migration_points.instrument prog in
    let s = Compiler.Tracer.trace inst in
    Format.printf "dynamic trace of %s.%s (instrumented):@."
      (Workload.Spec.bench_to_string bench)
      (Workload.Spec.cls_to_string cls);
    Format.printf "  instructions:    %.3e@." s.Compiler.Tracer.total_instructions;
    Format.printf "  checks executed: %.0f@." s.Compiler.Tracer.checks_executed;
    Format.printf "  worst interval:  %.3e instructions@."
      s.Compiler.Tracer.max_interval;
    Format.printf "  mean interval:   %.3e instructions@."
      s.Compiler.Tracer.mean_interval;
    List.iter
      (fun arch ->
        Format.printf "  worst response on %-7s %.1f ms@."
          (Isa.Arch.to_string arch)
          (1e3 *. Compiler.Tracer.worst_response_time_s inst
                    (Isa.Cost_model.of_arch arch)))
      Isa.Arch.all
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Dynamic migration-response trace of an instrumented benchmark")
    Term.(const run $ bench_arg $ cls_arg)

(* --- state-map -------------------------------------------------------------- *)

let state_map_cmd =
  let run bench cls =
    let binary = Hetmig.Het.compile_benchmark bench cls in
    let m = Hetmig.Het.state_mapping_report binary in
    Format.printf "Section-3 state mapping for %s.%s:@."
      (Workload.Spec.bench_to_string bench)
      (Workload.Spec.cls_to_string cls);
    Format.printf "  P (globals/heap/code addresses): %s@."
      (if m.Hetmig.Het.globals_identity then "identity mapping" else "BROKEN");
    Format.printf "  .text: %s@."
      (if m.Hetmig.Het.code_aliased then "aliased per-ISA at one range"
       else "NOT aliased");
    Format.printf "  L (thread-local storage): %s@."
      (if m.Hetmig.Het.tls_identity then "identity mapping (x86-64 scheme)"
       else "BROKEN");
    Format.printf "  S (stacks): %s@."
      (if m.Hetmig.Het.stacks_divergent then
         "transformed by f_AB at migration" else "identical (unexpected)");
    List.iter
      (fun (fname, a, x) ->
        Format.printf "    %-20s arm64 frame %4d B, x86_64 frame %4d B@." fname
          a x)
      m.Hetmig.Het.divergent_frames;
    Format.printf "  R (registers): transformed by r_AB at migration@."
  in
  Cmd.v
    (Cmd.info "state-map"
       ~doc:"Verify the paper's Section-3 state-class mappings on a binary")
    Term.(const run $ bench_arg $ cls_arg)

(* --- lint and audit ------------------------------------------------------ *)

(* One diagnostics command: the shared flags, the rule-registry listing,
   the unknown-rule check, and the report-and-exit code. [select] is the
   command's own selection term; the run it yields resolves its names
   only after the rule check, then returns the diagnostics. *)
let diagnostics_cmd ~name ~doc ~verb ~jobs_doc ~registry ~is_rule select =
  let run json rules jobs seq list_rules fail_on_warn diagnose =
    if list_rules then begin
      Format.printf "%-32s %-8s %s@." "RULE" "SEVERITY" "DESCRIPTION";
      List.iter
        (fun (id, sev, desc) ->
          Format.printf "%-32s %-8s %s@." id
            (Analysis.Diagnostic.severity_to_string sev)
            desc)
        registry
    end
    else begin
      List.iter
        (fun id ->
          if not (is_rule id) then begin
            Format.eprintf "unknown rule %s (hetmig %s --list-rules)@." id
              name;
            exit 2
          end)
        rules;
      let rules = match rules with [] -> None | ids -> Some ids in
      let jobs = if seq then Some 1 else jobs in
      let diags = diagnose ~rules ~jobs in
      if json then print_string (Analysis.Diagnostic.report_to_json diags)
      else Analysis.Diagnostic.pp_report Format.std_formatter diags;
      if
        Analysis.Diagnostic.errors diags > 0
        || (fail_on_warn && Analysis.Diagnostic.warnings diags > 0)
      then exit 1
    end
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the report as deterministic JSON (byte-stable \
                   across $(b,--jobs) values).")
  in
  let rules =
    Arg.(value & opt_all string []
         & info [ "rule" ] ~docv:"RULE"
             ~doc:"Check only this rule id (repeatable).")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N" ~doc:jobs_doc)
  in
  let seq =
    Arg.(value & flag
         & info [ "seq" ] ~doc:(verb ^ " sequentially (same as --jobs 1)."))
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ] ~doc:"Print the rule registry and exit.")
  in
  let fail_on_warn =
    Arg.(value & flag
         & info [ "fail-on-warn" ]
             ~doc:"Also exit 1 when any warning-severity diagnostic fires.")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ json $ rules $ jobs $ seq $ list_rules $ fail_on_warn
      $ select)

let lint_cmd =
  let select workloads ~rules ~jobs =
    let targets =
      match workloads with
      | [] -> Analysis.Lint.all_targets
      | names ->
        List.map
          (fun name ->
            match Analysis.Lint.target_of_name name with
            | Some t -> t
            | None ->
              Format.eprintf "unknown workload %s (want e.g. cg.A)@." name;
              exit 2)
          names
    in
    Analysis.Lint.run ?rules ~targets ?jobs ()
  in
  let workloads =
    Arg.(value & opt_all string []
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"Lint only this workload, e.g. cg.A (repeatable; default: \
                   every benchmark and class).")
  in
  diagnostics_cmd ~name:"lint"
    ~doc:
      "Verify migratability invariants of the benchmark programs: IR \
       well-formedness, stackmap coverage, unwind/frame soundness, \
       cross-ISA layout alignment, and DSM race freedom. Exits 1 when \
       any error-severity diagnostic fires."
    ~verb:"Lint"
    ~jobs_doc:
      "Domains to lint targets on (default: HETMIG_JOBS or the machine's \
       core count)."
    ~registry:Analysis.Lint.rules ~is_rule:Analysis.Lint.is_rule
    Term.(const select $ workloads)

let audit_cmd =
  let select scenarios domains ~rules ~jobs =
    let scenarios =
      match scenarios with
      | [] -> Analysis.Audit.all_scenarios
      | names ->
        List.map
          (fun name ->
            match Analysis.Audit.scenario_of_name name with
            | Some s -> s
            | None ->
              Format.eprintf
                "unknown scenario %s (want fleet, cluster, serve or \
                 scheduler)@."
                name;
              exit 2)
          names
    in
    Analysis.Audit.run ?rules ~scenarios ~domains ?jobs ()
  in
  let scenarios =
    Arg.(value & opt_all string []
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Audit only this scenario: fleet, cluster, serve or \
                   scheduler (repeatable; default: all four).")
  in
  let domains =
    Arg.(value & opt int 4
         & info [ "domains" ] ~docv:"N"
             ~doc:"Parallel lane count certified against the sequential \
                   reference run.")
  in
  diagnostics_cmd ~name:"audit"
    ~doc:
      "Verify the parallel runtime: re-run the committed fleet, cluster, \
       serve and scheduler scenarios with execution capture enabled, \
       check the recorded schedule against the conservative-lookahead \
       invariants, detect cross-island ownership races, and certify \
       domains=1 and domains=N runs byte-identical. Exits 1 when any \
       error-severity diagnostic fires."
    ~verb:"Audit"
    ~jobs_doc:
      "Domains to fan audit tasks over (default: HETMIG_JOBS or the \
       machine's core count)."
    ~registry:Analysis.Audit.rules ~is_rule:Analysis.Audit.is_rule
    Term.(const select $ scenarios $ domains)

(* --- fleet and cluster --------------------------------------------------- *)

(* The flags fleet and cluster share, with per-command defaults. They
   yield the cluster defaults on the requested topology, the domain
   count, and the report path; each command then sets its policy. *)
let island_run_term ~cmd ~nodes ~racks ~jobs ~rate =
  let nodes =
    Arg.(value & opt int nodes
         & info [ "nodes" ] ~docv:"N"
             ~doc:"Worker nodes (their ISAs follow --mix).")
  in
  let racks =
    Arg.(value & opt int racks
         & info [ "racks" ] ~docv:"R"
             ~doc:"Racks to split the nodes over (must divide --nodes). 1 \
                   is the flat pre-cluster topology whose single hop is \
                   the paper's 10GbE link; more racks use ToR + \
                   aggregation hops, making migration and hDSM costs \
                   path-dependent.")
  in
  let mix =
    Arg.(value & opt string "alternate"
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"ISA mix: alternate (per node), isa-racks (whole racks \
                   per ISA), x86-only or arm-only.")
  in
  let jobs =
    Arg.(value & opt int jobs & info [ "jobs" ] ~docv:"N" ~doc:"Jobs to run.")
  in
  let epoch =
    Arg.(value & opt float 0.25
         & info [ "epoch" ] ~docv:"S"
             ~doc:"Control-traffic batching epoch in seconds; each island \
                   pair's lookahead is this plus its path latency.")
  in
  let rate =
    Arg.(value & opt float rate
         & info [ "rate" ] ~docv:"S" ~doc:"Mean job interarrival in seconds.")
  in
  let make nodes racks mix jobs seed domains epoch rate out =
    let must v = validated ~cmd v in
    let nodes = must (Sched.Validate.at_least ~what:"--nodes" ~min:2 nodes) in
    let jobs = must (Sched.Validate.at_least ~what:"--jobs" ~min:1 jobs) in
    let epoch = must (Sched.Validate.positive_float ~what:"--epoch" epoch) in
    let rate = must (Sched.Validate.positive_float ~what:"--rate" rate) in
    let topology =
      must (Sched.Validate.topology ~nodes ~racks ~mix_name:mix)
    in
    ( { (Sched.Cluster.default ~topology ~jobs ~seed) with
        Sched.Cluster.epoch_s = epoch;
        mean_interarrival_s = rate;
      },
      domains,
      out )
  in
  Term.(const make $ nodes $ racks $ mix $ jobs $ seed_term ~default:42
        $ domains_term ~cmd $ epoch $ rate $ out_term)

(* Run and report. Every job must complete or fail: a run that loses
   one is broken however good the report looks. *)
let run_island_sched ~cmd (cfg, domains, out) =
  let out = Option.map (open_output ~cmd ~flag:"--out") out in
  let r = Sched.Cluster.run ~domains cfg in
  print_report out (Sched.Cluster.render cfg r);
  if
    r.Sched.Cluster.completed + r.Sched.Cluster.failed
    <> cfg.Sched.Cluster.jobs
  then begin
    Format.eprintf "hetmig %s: job conservation violated@." cmd;
    exit 1
  end

let fleet_cmd =
  let run (cfg, domains, out) placement no_migration fail_rate =
    let fail_rate =
      validated ~cmd:"fleet"
        (Sched.Validate.probability ~what:"--fail-rate" fail_rate)
    in
    run_island_sched ~cmd:"fleet"
      ( { cfg with
          Sched.Cluster.policy = placement;
          migration = not no_migration;
          fail_rate;
        },
        domains,
        out )
  in
  let placement =
    let placement_conv =
      let parse s =
        match Sched.Cluster.policy_of_name s with
        | Some (Sched.Cluster.Least_loaded | Sched.Cluster.Round_robin as p) ->
          Ok p
        | _ -> Error (`Msg (Printf.sprintf "unknown placement %s (ll, rr)" s))
      in
      Arg.conv (parse, fun ppf p ->
          Format.pp_print_string ppf (Sched.Cluster.policy_name p))
    in
    Arg.(value & opt placement_conv Sched.Cluster.Least_loaded
         & info [ "placement" ] ~docv:"POLICY"
             ~doc:"Placement policy: ll (least-loaded) or rr (round-robin).")
  in
  let no_migration =
    Arg.(value & flag
         & info [ "no-migration" ]
             ~doc:"Disable epoch-tick load-balancing migration.")
  in
  let fail_rate =
    Arg.(value & opt float 0.0
         & info [ "fail-rate" ] ~docv:"P"
             ~doc:"Per-phase failure probability (phases retry, then the \
                   job fails).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Warehouse-scale mixed-ISA fleet simulation: the cluster core \
          under a least-loaded or round-robin placement with per-epoch \
          load-balancing migration, on the parallel time-island runtime \
          (one scheduler island plus one island per node, synchronized on \
          topology-aware conservative-lookahead windows). The report is a \
          pure function of the configuration, not of the domain count.")
    Term.(const run
          $ island_run_term ~cmd:"fleet" ~nodes:64 ~racks:1 ~jobs:1000
              ~rate:0.5
          $ placement $ no_migration $ fail_rate)

let cluster_cmd =
  let run (cfg, domains, out) policy power_cap =
    let must v = validated ~cmd:"cluster" v in
    let policy =
      match Sched.Cluster.policy_of_name policy with
      | Some p when List.mem p Sched.Cluster.all_policies -> p
      | _ ->
        Format.eprintf
          "hetmig cluster: unknown --policy %s (want pack-power-cap, \
           edp-migrate or work-steal)@."
          policy;
        exit 2
    in
    let power_cap_w =
      match power_cap with
      | None -> cfg.Sched.Cluster.power_cap_w
      | Some w -> must (Sched.Validate.positive_float ~what:"--power-cap" w)
    in
    if policy = Sched.Cluster.Pack_power_cap then
      ignore
        (must
           (Sched.Validate.power_cap ~topology:cfg.Sched.Cluster.topology
              power_cap_w));
    run_island_sched ~cmd:"cluster"
      ({ cfg with Sched.Cluster.policy; power_cap_w }, domains, out)
  in
  let policy =
    Arg.(value & opt string "edp-migrate"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Global policy: pack-power-cap (power-capped bin \
                   packing), edp-migrate (energy/EDP-aware placement and \
                   global dynamic migration) or work-steal (idle nodes \
                   steal, in-rack victims first).")
  in
  let power_cap =
    Arg.(value & opt (some float) None
         & info [ "power-cap" ] ~docv:"W"
             ~doc:"Projected cluster power budget for pack-power-cap \
                   (default: 75% of 110W per node). It must cover the idle \
                   cluster plus the cheapest placement of the widest job.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Global cluster scheduling over a rack topology: power-capped \
          bin packing, energy/EDP-aware global dynamic migration, or \
          work stealing across up to 1024 mixed-ISA nodes, on the \
          parallel time-island runtime with topology-aware lookahead. \
          The report is a pure function of the configuration, not of \
          the domain count.")
    Term.(const run
          $ island_run_term ~cmd:"cluster" ~nodes:256 ~racks:8 ~jobs:2000
              ~rate:0.02
          $ policy $ power_cap)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let run nodes seed arrivals trace_file services duration days rate_high
      rate_low peak_rps demand limit replicas max_replicas routing domains
      epoch slo policy window workers zero_downtime crashes out trace metrics
      save_trace =
    let must v = validated ~cmd:"serve" v in
    let module V = Sched.Validate in
    let nodes = must (V.at_least ~what:"--nodes" ~min:2 nodes) in
    let epoch = must (V.serve_epoch epoch) in
    let window = must (V.positive_float ~what:"--window" window) in
    let workers = must (V.at_least ~what:"--workers" ~min:1 workers) in
    let replicas = must (V.at_least ~what:"--replicas" ~min:1 replicas) in
    let limit = must (V.at_least ~what:"--limit" ~min:0 limit) in
    let demand =
      Option.map
        (fun d -> must (V.non_negative_float ~what:"--demand" d))
        demand
    in
    let check_rate what = function
      | None -> ()
      | Some r -> ignore (must (V.positive_float ~what r))
    in
    check_rate "--rate-high" rate_high;
    check_rate "--rate-low" rate_low;
    check_rate "--peak-rps" peak_rps;
    must (V.crashes_in_range ~nodes crashes);
    (* Sources are lazy: nothing here materializes a trace. The run
       opens its own fresh stream, so memory stays independent of how
       many requests the source will yield. Each generator's own flags
       are checked only when it runs. *)
    let source =
      match trace_file with
      | Some path -> must (V.trace_file path)
      | None -> begin
        let services = must (V.at_least ~what:"--services" ~min:1 services) in
        match arrivals with
        | "bursty" ->
          let duration_s =
            must (V.positive_float ~what:"--duration" duration)
          in
          Sched.Arrival.bursty_source ?rate_high ?rate_low ~seed ~services
            ~duration_s ()
        | "diurnal" ->
          let days = must (V.at_least ~what:"--days" ~min:1 days) in
          Sched.Arrival.diurnal_source ?peak_rps ~seed ~services ~days ()
        | s ->
          Format.eprintf "unknown arrival model %s (bursty, diurnal)@." s;
          exit 2
      end
    in
    let out = Option.map (open_output ~cmd:"serve" ~flag:"--out") out in
    let trace =
      Option.map
        (fun path -> (path, open_output ~cmd:"serve" ~flag:"--trace" path))
        trace
    in
    (match save_trace with
    | Some path -> begin
      let s =
        Sched.Arrival.open_stream
          ?limit:(if limit > 0 then Some limit else None)
          source
      in
      (* The source is generated or already validated, so a [Sys_error]
         here is the output path's. *)
      try Sched.Arrival.stream_to_file s path
      with Sys_error e ->
        Format.eprintf "hetmig serve: --save-trace %s@." e;
        exit 2
    end
    | None -> ());
    let cfg =
      { (Sched.Service.default ~nodes ~seed ~source) with
        Sched.Service.epoch_s = epoch;
        slo_ms = slo;
        policy;
        window_s = window;
        workers;
        zero_downtime;
        crashes;
        replicas;
        max_replicas = max max_replicas replicas;
        routing;
        limit;
      }
    in
    let cfg =
      match demand with
      | Some d -> { cfg with Sched.Service.demand_instructions = d }
      | None -> cfg
    in
    let obs =
      if Option.is_some trace || metrics then Obs.create () else Obs.noop
    in
    let r = Sched.Service.run ~domains ~obs cfg in
    print_report out (Sched.Service.render cfg r);
    (match trace with
    | Some (path, oc) ->
      output_string oc (Obs.chrome_json obs);
      close_out oc;
      Format.eprintf "(trace written to %s, %d events)@." path
        (Obs.event_count obs)
    | None -> ());
    if metrics then print_string (Obs.metrics_text obs);
    (* Request conservation is the serving path's ground truth; a run
       that loses track of a request is broken however good the report
       looks. *)
    if
      r.Sched.Service.responded + r.Sched.Service.dropped
      + r.Sched.Service.in_flight_at_end
      <> r.Sched.Service.arrived
    then begin
      Format.eprintf "request conservation violated@.";
      exit 1
    end
  in
  let nodes =
    Arg.(value & opt int 16
         & info [ "nodes" ] ~docv:"N"
             ~doc:"Fleet nodes (alternating x86-64/arm64 servers).")
  in
  let arrivals =
    Arg.(value & opt string "bursty"
         & info [ "arrivals" ] ~docv:"MODEL"
             ~doc:"Arrival model: bursty (MMPP on/off) or diurnal \
                   (piecewise-rate day curve).")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace-file" ] ~docv:"PATH"
             ~doc:"Replay a recorded request trace instead of generating \
                   one (overrides --arrivals).")
  in
  let services =
    Arg.(value & opt int 8
         & info [ "services" ] ~docv:"K" ~doc:"Service instances.")
  in
  let duration =
    Arg.(value & opt float 60.0
         & info [ "duration" ] ~docv:"S"
             ~doc:"Trace length in seconds (bursty model).")
  in
  let days =
    Arg.(value & opt int 2
         & info [ "days" ] ~docv:"D"
             ~doc:"Compressed days to simulate (diurnal model).")
  in
  let rate_high =
    Arg.(value & opt (some float) None
         & info [ "rate-high" ] ~docv:"RPS"
             ~doc:"ON-state request rate per service (bursty model; \
                   default 40).")
  in
  let rate_low =
    Arg.(value & opt (some float) None
         & info [ "rate-low" ] ~docv:"RPS"
             ~doc:"OFF-state request rate per service (bursty model; \
                   default 2).")
  in
  let peak_rps =
    Arg.(value & opt (some float) None
         & info [ "peak-rps" ] ~docv:"RPS"
             ~doc:"Peak request rate per service (diurnal model; \
                   default 20).")
  in
  let demand =
    Arg.(value & opt (some float) None
         & info [ "demand" ] ~docv:"INSTRUCTIONS"
             ~doc:"Mean per-request work in instructions (default 5e7).")
  in
  let limit =
    Arg.(value & opt int 0
         & info [ "limit" ] ~docv:"N"
             ~doc:"Serve at most N requests from the source (0 = all).")
  in
  let replicas =
    Arg.(value & opt int 1
         & info [ "replicas" ] ~docv:"R"
             ~doc:"Initial replicas per service.")
  in
  let max_replicas =
    Arg.(value & opt int 1
         & info [ "max-replicas" ] ~docv:"R"
             ~doc:"Scale-out ceiling for the SLO-aware policy (clamped \
                   up to --replicas).")
  in
  let routing =
    let routing_conv =
      let parse = function
        | "p2c" | "power-of-two" -> Ok Sched.Service.P2c
        | "ll" | "least-loaded" -> Ok Sched.Service.Least_loaded
        | s ->
          Error
            (`Msg (Printf.sprintf "unknown routing %s (p2c, least-loaded)" s))
      in
      Arg.conv (parse, fun ppf r ->
          Format.pp_print_string ppf (Sched.Service.routing_name r))
    in
    Arg.(value & opt routing_conv Sched.Service.P2c
         & info [ "routing" ] ~docv:"POLICY"
             ~doc:"Replica selection: p2c (power of two choices) or \
                   least-loaded.")
  in
  let epoch =
    Arg.(value & opt float 0.05
         & info [ "epoch" ] ~docv:"S"
             ~doc:"Routing/report batching epoch in seconds — the \
                   runtime's conservative lookahead.")
  in
  let slo =
    Arg.(value & opt float 150.0
         & info [ "slo" ] ~docv:"MS" ~doc:"Latency SLO in milliseconds.")
  in
  let policy =
    let policy_conv =
      let parse = function
        | "slo" | "slo-aware" -> Ok Sched.Service.Slo_aware
        | "static-x86" | "x86" -> Ok Sched.Service.Static_x86
        | "static-arm" | "arm" -> Ok Sched.Service.Static_arm
        | s ->
          Error
            (`Msg (Printf.sprintf
                     "unknown policy %s (slo, static-x86, static-arm)" s))
      in
      Arg.conv (parse, fun ppf p ->
          Format.pp_print_string ppf (Sched.Service.policy_name p))
    in
    Arg.(value & opt policy_conv Sched.Service.Slo_aware
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Placement policy: slo (SLO-aware dynamic), static-x86, \
                   or static-arm.")
  in
  let window =
    Arg.(value & opt float 5.0
         & info [ "window" ] ~docv:"S"
             ~doc:"Sliding window for the p99 estimate, seconds.")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N"
             ~doc:"Concurrent requests per service instance.")
  in
  let zero_downtime =
    Arg.(value & flag
         & info [ "zero-downtime" ]
             ~doc:"Ablation stub: migrations pause nothing (isolates the \
                   placement effect from the downtime-vs-tail trade).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Write a Chrome trace-event JSON (Perfetto loadable) \
                   with the per-service p99 timeline and migration spans.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the collected metrics registry after the run.")
  in
  let save_trace =
    Arg.(value & opt (some string) None
         & info [ "save-trace" ] ~docv:"PATH"
             ~doc:"Write the (generated or replayed) request trace to a \
                   replayable trace file.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop request serving with latency SLOs on the parallel \
          time-island runtime: services pinned to mixed-ISA nodes, \
          trace-driven open-loop traffic, per-request latency tails, and \
          an SLO-aware policy migrating services across the ISA boundary. \
          The report is a pure function of the configuration, not of the \
          domain count.")
    Term.(const run $ nodes $ seed_term ~default:42 $ arrivals $ trace_file
          $ services $ duration $ days $ rate_high $ rate_low $ peak_rps
          $ demand $ limit $ replicas $ max_replicas $ routing
          $ domains_term ~cmd:"serve" $ epoch $ slo $ policy $ window
          $ workers $ zero_downtime $ crashes_term $ out_term $ trace
          $ metrics $ save_trace)

(* --- experiment ---------------------------------------------------------------- *)

let experiment_cmd =
  let run name =
    match Experiments.Registry.find name with
    | Some (_, _, f) ->
      f Format.std_formatter;
      if Experiments.Shape.failures () > 0 then exit 1
    | None ->
      Format.eprintf "unknown experiment %s; available: %s@." name
        (String.concat ", " Experiments.Registry.names);
      exit 2
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"EXPERIMENT" ~doc:"fig1, fig3-5, ..., fig13, table1.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one of the paper's tables/figures")
    Term.(const run $ name_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "hetmig" ~version:"1.0.0"
      ~doc:"Heterogeneous-ISA execution migration (ASPLOS 2017 reproduction)"
  in
  let rc =
    Cmd.eval
      (Cmd.group ~default info
         [ compile_cmd; migrate_cmd; emulation_cmd; schedule_cmd; fleet_cmd;
           cluster_cmd; serve_cmd; state_map_cmd; trace_cmd; lint_cmd;
           audit_cmd; metrics_cmd; experiment_cmd ])
  in
  (* Usage errors — including malformed option values like a bad
     --crash spec — exit 2, the conventional usage-error status, rather
     than cmdliner's 124. *)
  exit (if rc = Cmd.Exit.cli_error then 2 else rc)
