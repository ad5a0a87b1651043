(* Host-time benchmark of the hetmig simulator; run.py drives it (see
   README.md for the workloads and the metrics).

     main.exe setup  --workload W --seed N
     main.exe timed  --workload W --seed N --seconds T
     main.exe traced --workload W --seed N --seconds T [--spans PATH]

   [setup] builds and validates the workload's inputs and reports the
   process's CPU time up to there, with a host-speed probe. [timed]
   repeats the workload on one domain for T seconds of host time and
   checks every output. [traced] alternates untraced, traced and two-domain
   runs of the workload, times each layer call from outside, and reads
   the counts the simulator already returns. Both end with one JSON
   line on stdout. *)

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* ---- JSON output ------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let json_obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let json_list items = "[" ^ String.concat "," items ^ "]"

(* ---- host-speed probe ------------------------------------------------ *)

(* The host's speed drifts by up to 1.6x over minutes, with other
   tenants on its cores. A fixed probe that calls none of the
   simulator's code runs between the timed calls, about [duty] of the
   timed host time, and run.py scales each process's times by the
   probe's median there against a reference speed (README.md). The
   probe warms its 4 MB working set first, so the call before it does
   not decide how fast it runs. *)
module Probe = struct
  let duty = 0.03
  let samples : float list ref = ref []
  let spent = ref 0.0
  let timed = ref 0.0
  let table : (int, int) Hashtbl.t = Hashtbl.create 4096
  let sink = ref 0

  (* A single-cycle permutation: following it visits every slot. *)
  let chase =
    lazy
      (let n = 1 lsl 19 in
       let a = Array.init n Fun.id in
       let rng = Random.State.make [| 7 |] in
       for i = n - 1 downto 1 do
         let j = Random.State.int rng i in
         let t = a.(i) in
         a.(i) <- a.(j);
         a.(j) <- t
       done;
       a)

  let sample () =
    let a = Lazy.force chase in
    sink := Array.fold_left ( + ) 0 a;
    let t0 = now () in
    let j = ref 0 in
    let live = ref [] in
    for i = 1 to 40_000 do
      j := a.(!j);
      if i land 7 = 0 then live := (i, float_of_int !j) :: !live;
      if i land 1023 = 0 then live := [];
      Hashtbl.replace table (!j land 4095) i
    done;
    now () -. t0

  (* Probe until probing has taken [duty] of the timed time; at least
     once before every timed call. *)
  let keep_up () =
    let rec go () =
      let s = sample () in
      samples := s :: !samples;
      spent := !spent +. s;
      if !spent < duty *. !timed then go ()
    in
    go ()
end

(* ---- spans ------------------------------------------------------------ *)

(* Spans around the calls into each layer's public functions, recorded
   from outside the simulator. Every timed call goes through [time];
   only traced runs keep the span. Each call starts from a collected
   heap, so its time and the process's peak memory do not depend on
   the garbage the calls before it left. *)
module Spans = struct
  type span = {
    name : string;
    cat : string;
    parent : string;
    t0 : float;
    t1 : float;
  }

  let enabled = ref false

  (* Minor-heap words allocated inside timed calls, so the probe's own
     allocation, which varies with timing, stays out of the count. *)
  let words = ref 0.0

  let recorded : span list ref = ref []
  let stack : string list ref = ref []
  let origin = now ()

  let time ~cat name f =
    let parent = match !stack with p :: _ -> p | [] -> "" in
    stack := name :: !stack;
    Probe.keep_up ();
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let v = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
    let t1 = now () in
    words := !words +. (Gc.minor_words () -. w0);
    Probe.timed := !Probe.timed +. (t1 -. t0);
    if !enabled then recorded := { name; cat; parent; t0; t1 } :: !recorded;
    (v, t1 -. t0)

  (* Chrome trace-event JSON, loadable in Perfetto. *)
  let write path =
    let oc = open_out path in
    let event s =
      json_obj
        [ ("name", json_string s.name); ("cat", json_string s.cat);
          ("ph", json_string "X"); ("pid", "1"); ("tid", "1");
          ("ts", Printf.sprintf "%.3f" ((s.t0 -. origin) *. 1e6));
          ("dur", Printf.sprintf "%.3f" ((s.t1 -. s.t0) *. 1e6));
          ("args", json_obj [ ("parent", json_string s.parent) ]) ]
    in
    output_string oc
      (json_obj
         [ ("traceEvents", json_list (List.rev_map event !recorded)) ]);
    output_char oc '\n';
    close_out oc
end

(* ---- workloads -------------------------------------------------------- *)

type workload = Paper_grid | Serve_burst | Serve_diurnal | Cluster

let workloads =
  [ ("paper-grid", Paper_grid); ("serve-burst", Serve_burst);
    ("serve-diurnal", Serve_diurnal); ("cluster", Cluster) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Sizes. The serve traces run longer than [limit] requests for every
   seed, so the request count is the same whatever the seed. *)
let grid_sets = 10
let burst_duration_s = 480.0
let burst_limit = 1_200_000
let diurnal_days = 50
let diurnal_limit = 1_000_000
let cluster_racks = 8
let cluster_nodes = 256
let cluster_jobs = 2000

type cell = { label : string; policy : Sched.Policy.t; jobs : Sched.Job.t list }

type inputs =
  | Grid of { cells : cell array; order : int array }
      (** [cells]: Fig. 12 sets, then Fig. 13 sets, three policies per
          set; [order]: the order they run in *)
  | Serve of Sched.Service.config
  | Clusters of Sched.Cluster.config list

let grid_policies =
  Sched.Policy.[ Static_x86_pair; Dynamic_balanced; Dynamic_unbalanced ]

let must = function Ok v -> v | Error msg -> invalid_arg msg

let cluster_topology () =
  must
    (Sched.Validate.topology ~nodes:cluster_nodes ~racks:cluster_racks
       ~mix_name:"alternate")

(* [seed] 0 gives the committed scenarios: the paper's sets 1000-1009
   and 2000-2009 run in grid order, and seed 42 for serve and cluster.
   paper-grid keeps the paper's sets for every seed and runs its sets in
   a seed-shuffled order, each set's three policies back to back as in
   grid order: re-drawn or re-ordered job sets move the grid's host
   time by 17-30% from seed to seed (README.md), more than a bound can
   absorb. *)
let build w seed =
  match w with
  | Paper_grid ->
    let cells fig sets =
      List.concat_map
        (fun i ->
          let jobs = sets i in
          List.map
            (fun policy ->
              { label = Printf.sprintf "%s/set-%d" fig i; policy; jobs })
            grid_policies)
        (List.init grid_sets Fun.id)
    in
    let cells =
      Array.of_list
        (cells "fig12" (fun i -> Sched.Arrival.sustained ~seed:(1000 + i) ~jobs:40)
        @ cells "fig13" (fun i ->
              Sched.Arrival.periodic ~seed:(2000 + i) ~waves:5 ~max_per_wave:14))
    in
    let sets = Array.init (2 * grid_sets) Fun.id in
    if seed > 0 then Sim.Prng.shuffle (Sim.Prng.create seed) sets;
    let per_set = List.length grid_policies in
    let order =
      Array.init (Array.length cells) (fun k ->
          (sets.(k / per_set) * per_set) + (k mod per_set))
    in
    Grid { cells; order }
  | Serve_burst ->
    let seed = 42 + seed in
    let nodes = must (Sched.Validate.at_least ~what:"nodes" ~min:2 32) in
    let rate_high = must (Sched.Validate.positive_float ~what:"rate-high" 400.0) in
    let rate_low = must (Sched.Validate.positive_float ~what:"rate-low" 2.0) in
    let source =
      Sched.Arrival.bursty_source ~rate_high ~rate_low ~seed ~services:32
        ~duration_s:burst_duration_s ()
    in
    Serve
      { (Sched.Service.default ~nodes ~seed ~source) with
        Sched.Service.demand_instructions = 2e6;
        replicas = 2;
        max_replicas = 4;
        routing = Sched.Service.P2c;
        limit = burst_limit;
      }
  | Serve_diurnal ->
    let seed = 42 + seed in
    let nodes = must (Sched.Validate.at_least ~what:"nodes" ~min:2 16) in
    let source =
      Sched.Arrival.diurnal_source ~seed ~services:8 ~days:diurnal_days ()
    in
    Serve
      { (Sched.Service.default ~nodes ~seed ~source) with
        Sched.Service.limit = diurnal_limit }
  | Cluster ->
    let topology = cluster_topology () in
    let jobs = must (Sched.Validate.at_least ~what:"jobs" ~min:1 cluster_jobs) in
    Clusters
      (List.map
         (fun policy ->
           { (Sched.Cluster.default ~topology ~jobs ~seed:(42 + seed)) with
             Sched.Cluster.policy })
         Sched.Cluster.all_policies)

(* ---- one run of a workload -------------------------------------------- *)

type outcome = {
  units : int;  (** jobs submitted or requests arrived *)
  render : string;  (** byte-stable text of every simulated statistic *)
  counts : (string * int) list;  (** deterministic counts *)
  problems : string list;  (** failed output checks *)
  parts : float list;  (** host seconds of each timed layer call *)
  layers : (string * float) list;  (** per-layer figures; traced runs *)
  paper : (string * float * float) list;
      (** (figure, simulated, paper) pairs; paper-grid only *)
}

let wall o = sum o.parts

let render_grid cells results =
  let b = Buffer.create 8192 in
  Array.iteri
    (fun i c ->
      let r : Sched.Scheduler.result = results.(i) in
      Printf.bprintf b
        "%s %s makespan=%h energy=%s edp=%h migrations=%d completed=%d \
         rejected=%d failed=%d retried=%d aborts=%d downtime=%h \
         remote_fetches=%d drain=%h\n"
        c.label (Sched.Policy.name c.policy) r.makespan
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") r.energy)))
        r.edp r.migrations r.completed r.rejected r.failed r.retried
        r.migration_aborts r.downtime_s r.remote_fetches r.drain_time_s)
    cells;
  Buffer.contents b

(* The paper's four headline averages (Figs. 12 and 13). Cells come in
   (static, balanced, unbalanced) triples per set; Fig. 13 compares the
   static pair against dynamic balanced, as the paper does. *)
let paper_figures (results : Sched.Scheduler.result array) =
  let saving (base : Sched.Scheduler.result) (other : Sched.Scheduler.result) =
    (base.total_energy -. other.total_energy) /. base.total_energy *. 100.0
  in
  let edp_saving (base : Sched.Scheduler.result) (other : Sched.Scheduler.result) =
    (base.edp -. other.edp) /. base.edp *. 100.0
  in
  let avg fig f =
    let first = if fig = 12 then 0 else 3 * grid_sets in
    Sim.Stats.mean
      (List.init grid_sets (fun i ->
           let k = first + (3 * i) in
           f results.(k) results.(k + 1) results.(k + 2)))
  in
  [ ("fig12 balanced energy saved %", avg 12 (fun s b _ -> saving s b), 7.88);
    ("fig12 unbalanced energy saved %", avg 12 (fun s _ u -> saving s u), 11.61);
    ("fig13 energy reduction %", avg 13 (fun s b _ -> saving s b), 30.0);
    ("fig13 EDP reduction %", avg 13 (fun s b _ -> edp_saving s b), 11.0) ]

let paper_err_pp figures =
  Sim.Stats.mean (List.map (fun (_, sim, paper) -> Float.abs (sim -. paper)) figures)

let run_grid ~domains ~traced cells order =
  Workload.Spec.phase_memo_clear ();
  Kernel.Popcorn.latency_cache_clear ();
  (* Spans are single-domain state: pool workers only read the clock. *)
  let run k =
    let c = cells.(k) in
    let go () = Sched.Scheduler.run c.policy c.jobs in
    let name =
      Printf.sprintf "Sched.Scheduler.run %s %s" c.label (Sched.Policy.name c.policy)
    in
    ( k,
      if domains = 1 then Spans.time ~cat:"scheduler" name go
      else
        let t0 = now () in
        let r = go () in
        (r, now () -. t0) )
  in
  let ran = Parallel.Pool.map ~jobs:domains run order in
  Array.sort (fun (a, _) (b, _) -> compare a b) ran;
  let results = Array.map (fun (_, (r, _)) -> r) ran in
  let secs = Array.to_list (Array.map (fun (_, (_, s)) -> s) ran) in
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let submitted = Array.fold_left (fun acc c -> acc + List.length c.jobs) 0 cells in
  let hits, misses = Workload.Spec.phase_memo_stats () in
  let conserved i c =
    let r : Sched.Scheduler.result = results.(i) in
    let jobs = List.length c.jobs in
    if r.completed + r.rejected + r.failed = jobs then []
    else
      [ Printf.sprintf "%s %s: completed %d + rejected %d + failed %d <> submitted %d"
          c.label (Sched.Policy.name c.policy) r.completed r.rejected r.failed jobs ]
  in
  let migrations = total (fun r -> r.Sched.Scheduler.migrations) in
  let fetches = total (fun r -> r.Sched.Scheduler.remote_fetches) in
  let cell_s pred = median (List.filteri (fun i _ -> pred cells.(i).policy) secs) in
  {
    units = submitted;
    render = render_grid cells results;
    counts =
      [ ("jobs", submitted);
        ("completed", total (fun r -> r.Sched.Scheduler.completed));
        ("migrations", migrations); ("remote_fetches", fetches);
        ("phase_memo_hits", hits); ("phase_memo_lookups", hits + misses) ];
    problems = List.concat (List.mapi conserved (Array.to_list cells));
    parts = secs;
    layers =
      (if traced then
         [ ("scheduler.static_cell_s",
            cell_s (fun p -> not (Sched.Policy.is_dynamic p)));
           ("scheduler.dynamic_cell_s", cell_s Sched.Policy.is_dynamic);
           ("scheduler.migrations", float_of_int migrations);
           ("hdsm.remote_fetches", float_of_int fetches);
           ("spec.phase_memo_lookups", float_of_int (hits + misses));
           ("spec.phase_memo_hit_ratio",
            float_of_int hits /. float_of_int (max 1 (hits + misses))) ]
       else []);
    paper = paper_figures results;
  }

(* Drain the workload's own arrival source alone: the arrival layer's
   share of a serve run. *)
let drain (cfg : Sched.Service.config) =
  let s =
    Sched.Arrival.open_stream
      ?limit:(if cfg.limit > 0 then Some cfg.limit else None)
      cfg.source
  in
  let n = ref 0 in
  while Sched.Arrival.next s do
    incr n
  done;
  Sched.Arrival.close_stream s;
  !n

let per_window secs windows = secs /. float_of_int (max 1 windows) *. 1e9

let run_serve ~domains ~traced (cfg : Sched.Service.config) =
  let drained =
    if traced then
      Some
        (Spans.time ~cat:"arrival" "Sched.Arrival.open_stream/next" (fun () ->
             drain cfg))
    else None
  in
  let r, secs =
    Spans.time ~cat:"service" "Sched.Service.run" (fun () ->
        Sched.Service.run ~domains cfg)
  in
  let problems =
    (if r.responded + r.dropped + r.in_flight_at_end <> r.arrived then
       [ Printf.sprintf
           "responded %d + dropped %d + in flight %d <> arrived %d" r.responded
           r.dropped r.in_flight_at_end r.arrived ]
     else [])
    @
    match drained with
    | Some (n, _) when n <> r.arrived ->
      [ Printf.sprintf "source yields %d requests, run saw %d" n r.arrived ]
    | Some _ | None -> []
  in
  {
    units = r.arrived;
    render = Sched.Service.render cfg r;
    counts =
      [ ("requests", r.arrived); ("responded", r.responded);
        ("dropped", r.dropped); ("in_flight_at_end", r.in_flight_at_end);
        ("events", r.events); ("windows", r.windows);
        ("migrations", r.migrations); ("scale_outs", r.scale_outs) ];
    problems;
    parts = [ secs ];
    layers =
      (match drained with
      | None -> []
      | Some (n, drain_s) ->
        let per_req s = s /. float_of_int (max 1 r.arrived) *. 1e9 in
        [ ("arrival.ns_per_req", drain_s /. float_of_int (max 1 n) *. 1e9);
          ("service.ns_per_req", per_req (secs -. drain_s));
          ("service.migrations", float_of_int r.migrations);
          ("service.scale_outs", float_of_int r.scale_outs);
          ("islands.events", float_of_int r.events);
          ("islands.windows", float_of_int r.windows);
          ("islands.events_per_window",
           float_of_int r.events /. float_of_int (max 1 r.windows));
          ("islands.ns_per_window", per_window secs r.windows) ]);
    paper = [];
  }

let topology_builds = 21

let run_cluster ~domains ~traced cfgs =
  let build_s =
    if traced then
      Some
        (median
           (List.init topology_builds (fun _ ->
                snd
                  (Spans.time ~cat:"topology" "Machine.Topology.make"
                     cluster_topology))))
    else None
  in
  let runs =
    List.map
      (fun (cfg : Sched.Cluster.config) ->
        let r, secs =
          Spans.time ~cat:"cluster"
            ("Sched.Cluster.run " ^ Sched.Cluster.policy_name cfg.policy)
            (fun () -> Sched.Cluster.run ~domains cfg)
        in
        (cfg, r, secs))
      cfgs
  in
  let total f = List.fold_left (fun acc (_, r, _) -> acc + f r) 0 runs in
  let jobs = List.fold_left (fun acc ((c : Sched.Cluster.config), _, _) -> acc + c.jobs) 0 runs in
  let secs_of policy =
    match List.find_opt (fun ((c : Sched.Cluster.config), _, _) -> c.policy = policy) runs with
    | Some (_, _, s) -> s
    | None -> nan
  in
  let events = total (fun r -> r.Sched.Cluster.events) in
  let windows = total (fun r -> r.Sched.Cluster.windows) in
  let migrations = total (fun r -> r.Sched.Cluster.migrations) in
  let steals = total (fun r -> r.Sched.Cluster.steals) in
  let deferred = total (fun r -> r.Sched.Cluster.deferred) in
  let secs = sum (List.map (fun (_, _, s) -> s) runs) in
  {
    units = jobs;
    render =
      String.concat "" (List.map (fun (c, r, _) -> Sched.Cluster.render c r) runs);
    counts =
      [ ("jobs", jobs);
        ("completed", total (fun r -> r.Sched.Cluster.completed));
        ("events", events); ("windows", windows); ("migrations", migrations);
        ("steals", steals); ("deferred", deferred) ];
    problems =
      List.filter_map
        (fun ((c : Sched.Cluster.config), (r : Sched.Cluster.result), _) ->
          if r.completed <> c.jobs then
            Some
              (Printf.sprintf "%s: completed %d <> jobs %d"
                 (Sched.Cluster.policy_name c.policy) r.completed c.jobs)
          else None)
        runs;
    parts = List.map (fun (_, _, s) -> s) runs;
    layers =
      (match build_s with
      | None -> []
      | Some build_s ->
        [ ("cluster.pack_s", secs_of Sched.Cluster.Pack_power_cap);
          ("cluster.edp_s", secs_of Sched.Cluster.Edp_migrate);
          ("cluster.steal_s", secs_of Sched.Cluster.Work_steal);
          ("cluster.migrations", float_of_int migrations);
          ("cluster.steals", float_of_int steals);
          ("cluster.deferred", float_of_int deferred);
          ("topology.build_s", build_s);
          ("islands.events", float_of_int events);
          ("islands.windows", float_of_int windows);
          ("islands.events_per_window",
           float_of_int events /. float_of_int (max 1 windows));
          ("islands.ns_per_window", per_window secs windows) ]);
    paper = [];
  }

(* One run; [words] is what its timed calls allocated on the minor heap. *)
let run_once ~domains ~traced inputs =
  Gc.full_major ();
  Spans.enabled := traced;
  let w0 = !Spans.words in
  let o =
    match inputs with
    | Grid { cells; order } -> run_grid ~domains ~traced cells order
    | Serve cfg -> run_serve ~domains ~traced cfg
    | Clusters cfgs -> run_cluster ~domains ~traced cfgs
  in
  Spans.enabled := false;
  (o, !Spans.words -. w0)

(* ---- reports ---------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let digest o = Digest.to_hex (Digest.string o.render)

let counts_json o =
  json_obj (List.map (fun (k, v) -> (k, string_of_int v)) o.counts)

(* Problems of a later run against the first: every simulated statistic
   must repeat exactly, and so must every count unless [counts] is
   false (a two-domain grid shares the phase memo between domains, so
   its hit count depends on timing). *)
let differs ?(counts = true) ~first ~what o =
  (if o.render <> first.render then
     [ Printf.sprintf "%s: render digest %s differs from the first run's %s"
         what (digest o) (digest first) ]
   else [])
  @
  if counts && o.counts <> first.counts then
    [ Printf.sprintf "%s: counts differ from the first run's" what ]
  else []

(* Repeat [attempt] until the next repetition would overrun [seconds],
   at least [min_reps] times; stop at the first exception. *)
let repeat ~min_reps ~seconds attempt =
  let deadline = now () +. seconds in
  let rec loop acc =
    match attempt () with
    | exception e -> (List.rev acc, Some (Printexc.to_string e))
    | v, took ->
      let acc = v :: acc in
      if List.length acc < min_reps || deadline -. now () > took then loop acc
      else (List.rev acc, None)
  in
  loop []

(* One process's share of a timed run: run.py spreads a run over
   several processes, since one process's heap layout can hold all of
   its runs a few percent fast or slow. *)
let timed w seed seconds =
  let inputs = build w seed in
  let reps, failure =
    repeat ~min_reps:1 ~seconds (fun () ->
        let o, words = run_once ~domains:1 ~traced:false inputs in
        ((o, words), wall o))
  in
  let run_problems =
    match reps with
    | [] -> []
    | (first, _) :: _ ->
      List.mapi
        (fun i (o, _) ->
          o.problems @ differs ~first ~what:(Printf.sprintf "run %d" (i + 1)) o)
        reps
  in
  let failed_runs =
    List.length (List.filter (( <> ) []) run_problems)
    + if failure = None then 0 else 1
  in
  let problems =
    List.sort_uniq compare (List.concat run_problems)
    @ match failure with Some e -> [ "raised " ^ e ] | None -> []
  in
  let field f = match reps with [] -> "null" | (o, _) :: _ -> f o in
  print_endline
    (json_obj
       [ ("mode", json_string "timed");
         ("workload", json_string (workload_name w));
         ("runs", string_of_int (List.length reps));
         ("failed_runs", string_of_int failed_runs);
         ("run_parts",
          json_list
            (List.map (fun (o, _) -> json_list (List.map json_float o.parts)) reps));
         ("minor_words", json_list (List.map (fun (_, w) -> json_float w) reps));
         ("probe_s", json_list (List.map json_float !Probe.samples));
         ("peak_rss_mb", json_float (peak_rss_mb ()));
         ("units", field (fun o -> string_of_int o.units));
         ("digest", field (fun o -> json_string (digest o)));
         ("counts", field counts_json);
         ("paper",
          field (fun o ->
              json_list
                (List.map
                   (fun (name, sim, paper) ->
                     json_obj
                       [ ("figure", json_string name); ("sim", json_float sim);
                         ("paper", json_float paper) ])
                   o.paper)));
         ("paper_err_pp",
          field (fun o ->
              if o.paper = [] then "null" else json_float (paper_err_pp o.paper)));
         ("problems", json_list (List.map json_string problems)) ])

(* ---- layer micro-benchmarks ------------------------------------------ *)

let micro_pending = 1024
let micro_ops = 400_000
let micro_batches = 5

let deltas seed =
  let rng = Sim.Prng.create seed in
  Array.init 4096 (fun _ -> Sim.Prng.exponential rng ~mean:1e-3)

(* ns per pop+push pair through a Sim.Calendar holding [micro_pending]
   events, the steady state of an island's calendar. *)
let calendar_push_pop_ns seed =
  let d = deltas seed in
  let mask = Array.length d - 1 in
  let batch () =
    let cal = Sim.Calendar.create ~dummy:0 () in
    for i = 0 to micro_pending - 1 do
      Sim.Calendar.push cal ~time:d.(i land mask) ~src:0 ~seq:i i
    done;
    let seq = ref micro_pending in
    let t0 = now () in
    for i = 1 to micro_ops do
      let v = Sim.Calendar.pop cal in
      Sim.Calendar.push cal
        ~time:(Sim.Calendar.last_time cal +. d.(i land mask))
        ~src:0 ~seq:!seq v;
      incr seq
    done;
    (now () -. t0) /. float_of_int micro_ops *. 1e9
  in
  median (List.init micro_batches (fun _ -> batch ()))

(* ns per event through Sim.Engine: each event's callback schedules the
   next, so every event is one push and one pop. *)
let engine_push_pop_ns seed =
  let d = deltas seed in
  let mask = Array.length d - 1 in
  let batch () =
    let e = Sim.Engine.create () in
    let left = ref micro_ops in
    let rec tick () =
      if !left > 0 then begin
        decr left;
        Sim.Engine.schedule_in e ~after:d.(!left land mask) tick
      end
    in
    for i = 0 to micro_pending - 1 do
      Sim.Engine.schedule_in e ~after:d.(i land mask) tick
    done;
    let t0 = now () in
    Sim.Engine.run e;
    (now () -. t0) /. float_of_int (micro_ops + micro_pending) *. 1e9
  in
  median (List.init micro_batches (fun _ -> batch ()))

(* ---- traced run ------------------------------------------------------- *)

let is_serve = function Serve_burst | Serve_diurnal -> true | Paper_grid | Cluster -> false

(* A layer the workload never calls is measured on the first workload
   here that does: the scheduler on paper-grid, arrival/service on
   serve-burst, cluster/topology on cluster. *)
let homes w =
  List.filter
    (fun h -> h <> w && not (is_serve h && is_serve w))
    [ Paper_grid; Serve_burst; Cluster ]

let traced w seed seconds spans_path =
  let inputs = build w seed in
  let problems = ref [] in
  let attempted = ref 0 in
  let failed = ref 0 in
  let check ?counts what (o : outcome) ~first =
    let p = o.problems @ differs ?counts ~first ~what o in
    if p <> [] then incr failed;
    problems := !problems @ p
  in
  (* The process's heap high-water before any two-domain run. *)
  let top_heap_words = ref 0 in
  let rounds_run = ref 0 in
  let round () =
    (* Alternate which of the untraced and traced runs goes first, so
       neither always follows the two-domain run. *)
    let plain_first = !rounds_run land 1 = 0 in
    incr rounds_run;
    let traced_run () = fst (run_once ~domains:1 ~traced:true inputs) in
    let traced_o = if plain_first then None else Some (traced_run ()) in
    let plain, words = run_once ~domains:1 ~traced:false inputs in
    if !top_heap_words = 0 then top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let traced_o = match traced_o with Some o -> o | None -> traced_run () in
    let d2, _ = run_once ~domains:2 ~traced:false inputs in
    attempted := !attempted + 3;
    check "traced run" traced_o ~first:plain;
    check ~counts:false "two-domain run" d2 ~first:plain;
    ((plain, words, traced_o, d2), wall plain +. wall traced_o +. wall d2)
  in
  let rounds, failure = repeat ~min_reps:3 ~seconds round in
  Option.iter
    (fun e ->
      incr attempted;
      incr failed;
      problems := !problems @ [ "raised " ^ e ])
    failure;
  let top_heap_mb =
    float_of_int (!top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let med f = median (List.map f rounds) in
  let plain_s = med (fun (p, _, _, _) -> wall p) in
  let traced_s = med (fun (_, _, t, _) -> wall t) in
  let d2_s = med (fun (_, _, _, d) -> wall d) in
  let tag on = List.map (fun (name, v) -> (name, v, on)) in
  let own =
    match rounds with
    | [] -> []
    | (plain, words, traced_o, _) :: _ ->
      List.map
        (fun (name, _) -> (name, med (fun (_, _, t, _) -> List.assoc name t.layers)))
        traced_o.layers
      @ [ ("workload.units", float_of_int plain.units);
          ("gc.minor_words_per_unit", words /. float_of_int (max 1 plain.units));
          ("gc.top_heap_mb", top_heap_mb);
          ("trace.overhead_pct", (traced_s -. plain_s) /. plain_s *. 100.0);
          ("islands.d2_speedup", plain_s /. d2_s) ]
  in
  let from_home h =
    incr attempted;
    match run_once ~domains:1 ~traced:true (build h seed) with
    | exception e ->
      incr failed;
      problems := !problems @ [ workload_name h ^ " raised " ^ Printexc.to_string e ];
      []
    | o, _ ->
      if o.problems <> [] then incr failed;
      problems := !problems @ o.problems;
      tag (workload_name h) o.layers
  in
  let measured =
    tag (workload_name w) own
    @ List.concat_map from_home (homes w)
    @ tag "micro"
        [ ("calendar.push_pop_ns", calendar_push_pop_ns seed);
          ("engine.push_pop_ns", engine_push_pop_ns seed) ]
  in
  (* The first measurement of each metric wins: the workload's own. *)
  let metrics =
    List.fold_left
      (fun acc ((name, _, _) as m) ->
        if List.exists (fun (n, _, _) -> n = name) acc then acc else acc @ [ m ])
      [] measured
  in
  Option.iter Spans.write spans_path;
  let digest_of = match rounds with (p, _, _, _) :: _ -> json_string (digest p) | [] -> "null" in
  print_endline
    (json_obj
       [ ("mode", json_string "traced");
         ("workload", json_string (workload_name w));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("rounds", string_of_int (List.length rounds));
         ("wall_s_1_domain", json_float plain_s);
         ("wall_s_traced", json_float traced_s);
         ("wall_s_2_domains", json_float d2_s);
         ("digest", digest_of);
         ("metrics",
          json_list
            (List.map
               (fun (name, v, on) ->
                 json_obj
                   [ ("name", json_string name); ("value", json_float v);
                     ("measured_on", json_string on) ])
               metrics));
         ("problems", json_list (List.map json_string !problems)) ])

(* ---- command line ----------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe (setup|timed|traced) --workload W --seed N [--seconds T] \
     [--spans PATH]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, flags = match args with m :: rest -> (m, rest) | [] -> usage () in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let flags = parse [] flags in
  let flag k = List.assoc_opt k flags in
  let w =
    match Option.bind (flag "workload") (fun n -> List.assoc_opt n workloads) with
    | Some w -> w
    | None -> usage ()
  in
  let seed =
    match Option.bind (flag "seed") int_of_string_opt with
    | Some s when s >= 0 -> s
    | Some _ | None -> usage ()
  in
  let seconds =
    match Option.bind (flag "seconds") float_of_string_opt with
    | Some s -> s
    | None -> 0.0
  in
  match mode with
  | "setup" ->
    ignore (build w seed);
    (* The process's CPU time so far, from its start through runtime and
       module initialisation to built inputs, then the host-speed probe
       that run.py scales it by. *)
    let cpu_s = Sys.time () in
    let probe_s = median (List.init 5 (fun _ -> Probe.sample ())) in
    print_endline
      (json_obj [ ("cpu_s", json_float cpu_s); ("probe_s", json_float probe_s) ])
  | "timed" -> timed w seed seconds
  | "traced" -> traced w seed seconds (flag "spans")
  | _ -> usage ()
