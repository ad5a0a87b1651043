(* CLI-boundary validation for the simulation front ends.

   The simulators raise [Invalid_argument] deep inside `run` when a
   config is nonsense; a command-line user should instead get a clear
   message naming the flag and the offending value, and exit code 2.
   These checks return [result]s so `bin/hetmig_cli` can report and
   exit while unit tests exercise the exact messages without spawning a
   process. *)

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let at_least ~what ~min v =
  if v >= min then Ok v
  else if min = 1 then errf "%s must be at least 1 (got %d)" what v
  else errf "%s must be at least %d (got %d)" what min v

let positive_float ~what v =
  if Float.is_finite v && v > 0.0 then Ok v
  else errf "%s must be a positive number (got %g)" what v

let non_negative_float ~what v =
  if Float.is_finite v && v >= 0.0 then Ok v
  else errf "%s must be a non-negative number (got %g)" what v

let probability ~what v =
  if Float.is_finite v && v >= 0.0 && v <= 1.0 then Ok v
  else errf "%s must be a probability in [0, 1] (got %g)" what v

let serve_epoch v =
  if Float.is_finite v && v > Service.epoch_floor_s then Ok v
  else
    errf "--epoch must exceed the 10GbE link latency %gs (got %g)"
      Service.epoch_floor_s v

(* [--islands N]: [None] means "pick a default later", which is always
   valid; an explicit value must be at least one lane. *)
let islands = function
  | None -> Ok None
  | Some d ->
    if d >= 1 then Ok (Some d)
    else errf "--islands must be at least 1 (got %d)" d

(* --crash NODE@TIME parsing, naming the token that broke. The old
   parser collapsed every failure into one message, so "--crash
   twelve@3.0" never said what was wrong with it. *)
let crash_spec s =
  match String.split_on_char '@' s with
  | [ node; time ] -> begin
    match (int_of_string_opt node, float_of_string_opt time) with
    | None, _ -> errf "bad crash spec %S: %S is not a node id" s node
    | _, None -> errf "bad crash spec %S: %S is not a time" s time
    | Some n, _ when n < 0 ->
      errf "bad crash spec %S: node %d is negative" s n
    | _, Some t when not (Float.is_finite t) || t < 0.0 ->
      errf "bad crash spec %S: time %g is not a non-negative time" s t
    | Some node, Some at -> Ok { Faults.Plan.at; node }
  end
  | _ -> errf "bad crash spec %S (want NODE@TIME, e.g. 3@10.5)" s

(* Range check against the actual fleet size — done at run setup, once
   --nodes is known. Out-of-range ids used to be silently dropped (the
   fleet had no such node to crash) or to surface as an internal
   [Invalid_argument] from deep inside the run. *)
let crashes_in_range ~nodes crashes =
  let bad =
    List.find_opt (fun (c : Faults.Plan.crash) -> c.node >= nodes) crashes
  in
  match bad with
  | Some c ->
    errf "--crash %d@%g: node %d is out of range (nodes are 0..%d)"
      c.Faults.Plan.node c.Faults.Plan.at c.Faults.Plan.node (nodes - 1)
  | None -> Ok ()

(* [--trace-file PATH]: stream the whole file once through the reader
   the run itself uses, in constant memory. A missing file, a bad
   header or line, an out-of-range service id or an out-of-order line
   is then a usage error naming the flag and the line before the run
   starts, not an uncaught exception part-way through it. *)
let trace_file path =
  let source = Arrival.Replay_file path in
  let drain () =
    let s = Arrival.open_stream source in
    Fun.protect
      ~finally:(fun () -> Arrival.close_stream s)
      (fun () -> while Arrival.next s do () done)
  in
  match drain () with
  | () -> Ok source
  | exception (Sys_error msg | Invalid_argument msg) ->
    errf "--trace-file %s" msg

(* Rack topology from the fleet/cluster CLI knobs. [racks = 1] is the
   flat pre-cluster topology whose single hop is the 10GbE
   point-to-point link. *)
let topology ~nodes ~racks ~mix_name =
  match Machine.Topology.mix_of_name mix_name with
  | None ->
    let names = List.rev_map Machine.Topology.mix_name Machine.Topology.mixes in
    errf "unknown --mix %s (want %s or %s)" mix_name
      (String.concat ", " (List.rev (List.tl names))) (List.hd names)
  | Some mix ->
    if racks < 1 then errf "--racks must be at least 1 (got %d)" racks
    else if nodes < racks then
      errf "--racks %d exceeds --nodes %d" racks nodes
    else if nodes mod racks <> 0 then
      errf "--nodes %d is not divisible by --racks %d" nodes racks
    else
      Ok (Machine.Topology.make ~mix ~racks ~nodes_per_rack:(nodes / racks) ())

(* [--power-cap W] for pack-power-cap: below the admission floor the
   widest job never fits, even on an idle cluster, and the run would
   block forever. *)
let power_cap ~topology w =
  let floor = Cluster.power_floor topology in
  if w >= floor then Ok w
  else
    errf
      "--power-cap %g is below the admission floor %gW (the idle cluster \
       plus the cheapest placement of the widest job)"
      w floor
