(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) and checks each against the paper's
   qualitative shape. Host cost per layer is perfbench's job.

   Usage:
     dune exec bench/main.exe                -- everything
     dune exec bench/main.exe -- fig12       -- one experiment
     dune exec bench/main.exe -- --jobs 4    -- domain-pool size for grids
     dune exec bench/main.exe -- --seq       -- fully sequential (= --jobs 1)
     dune exec bench/main.exe -- --json P    -- write machine-readable results *)

(* Selected experiments run in this order. [throughput] comes first: its
   heap check reads the process-wide top-of-heap watermark, which would
   otherwise count every experiment that ran before it. *)
let experiments =
  [
    ("throughput", "Serving throughput at scale (non-paper)",
     Experiments.Throughput.run);
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
  ]

(* Wall-clock seconds: experiment grids run on multiple domains, where
   CPU time ([Sys.time]) overstates elapsed time by roughly the pool
   width. The same clock perfbench uses. *)
let wall_now () = Unix.gettimeofday ()

let usage ppf =
  Format.fprintf ppf
    "usage: main.exe [--seq] [--jobs N] [--json PATH] [--metrics PATH] [--compare BASELINE] [experiment ...]@.";
  Format.fprintf ppf "available experiments:@.";
  List.iter
    (fun (n, d, _) -> Format.fprintf ppf "  %-8s %s@." n d)
    experiments

(* A command line the harness cannot run exits 2 with the usage text,
   so a typo in a gate's experiment list cannot silently drop an
   experiment from the gate. *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "main.exe: %s@." msg;
      usage Format.err_formatter;
      exit 2)
    fmt

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

let write_json path ~jobs ~metrics ~experiment_times =
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
  out "  ]\n}\n";
  close_out oc

(* --- --compare: the benchmark-regression gate --------------------------- *)

(* Minimal reader for the reports this harness writes with --json: pull
   out the {"name", "wall_s"} experiment entries by line shape. The
   container has no JSON library and we only ever read our own output. *)
let read_baseline path =
  let ic =
    try open_in path with Sys_error e -> usage_error "--compare: %s" e
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
   scheduler noise) fails the gate. So does an experiment with no
   baseline entry: a baseline the line reader cannot read would
   otherwise pass every experiment. *)
let compare_against ppf (baseline, base) experiment_times =
  let rel = 1.25 and slack = 0.5 in
  let failed = ref 0 in
  Format.fprintf ppf "@.= wall-time regression gate (vs %s) =@." baseline;
  List.iter
    (fun (name, wall_s) ->
      match List.assoc_opt name base with
      | None ->
        incr failed;
        Format.fprintf ppf "  %-10s %8.2fs  NO BASELINE ENTRY@." name wall_s
      | Some b ->
        let limit = (b *. rel) +. slack in
        let ok = wall_s <= limit in
        if not ok then incr failed;
        Format.fprintf ppf "  %-10s %8.2fs vs baseline %.2fs (limit %.2fs)  %s@."
          name wall_s b limit
          (if ok then "ok" else "REGRESSION"))
    experiment_times;
  !failed

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let seq = ref false in
  let jobs_flag = ref None in
  let json_path = ref None in
  let metrics_path = ref None in
  let compare_path = ref None in
  let wanted = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seq" :: rest -> seq := true; parse rest
    | "--jobs" :: n :: rest -> begin
      match int_of_string_opt n with
      | Some j when j >= 1 -> jobs_flag := Some j; parse rest
      | Some _ | None -> usage_error "--jobs expects a positive integer, got %s" n
    end
    | "--json" :: path :: rest -> json_path := Some path; parse rest
    | "--metrics" :: path :: rest -> metrics_path := Some path; parse rest
    | "--compare" :: path :: rest -> compare_path := Some path; parse rest
    | [ ("--jobs" | "--json" | "--metrics" | "--compare") as flag ] ->
      usage_error "%s expects an argument" flag
    | arg :: _ when String.starts_with ~prefix:"-" arg ->
      usage_error "unknown flag %s" arg
    | name :: rest ->
      if not (List.exists (fun (n, _, _) -> n = name) experiments) then
        usage_error "unknown experiment %s" name;
      wanted := name :: !wanted;
      parse rest
  in
  parse args;
  let wanted = !wanted in
  (* Read the baseline before anything runs: one the harness cannot
     open is a usage error, not a failure after the work. *)
  let baseline =
    Option.map (fun path -> (path, read_baseline path)) !compare_path
  in
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
    write_json path ~jobs:jobs_used ~metrics ~experiment_times;
    Format.fprintf ppf "(results written to %s)@." path
  | None -> ());
  let gate_failures =
    match baseline with
    | Some b -> compare_against ppf b experiment_times
    | None -> 0
  in
  let failures = Experiments.Shape.failures () in
  Format.fprintf ppf "@.%s@." (String.make 54 '-');
  if gate_failures > 0 then
    Format.fprintf ppf
      "%d experiment(s) exceeded the wall-time budget or have no baseline \
       entry.@."
      gate_failures;
  if failures = 0 then
    Format.fprintf ppf "All shape checks PASSED.@."
  else
    Format.fprintf ppf "%d shape check(s) FAILED.@." failures;
  if failures > 0 || gate_failures > 0 then exit 1
