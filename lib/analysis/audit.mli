(** [hetmig audit] driver: capture-and-verify over the committed
    parallel-runtime scenarios.

    Each scenario runs with the {!Sim.Islands} audit capture enabled
    and its recorded execution flows through {!Islands_check} (schedule
    verifier), {!Island_race} (ownership race detector), and
    {!Determinism_check} (domains=1 vs domains=N certification, plus
    seed/epoch sensitivity probes). The scheduler scenario certifies a
    repeat run, on warm process-wide memos, against the first. *)

type scenario = Fleet | Cluster | Serve | Scheduler

val scenario_name : scenario -> string
val scenario_of_name : string -> scenario option

val all_scenarios : scenario list
(** [Fleet; Cluster; Serve; Scheduler] — the default sweep. *)

val rules : (string * Diagnostic.severity * string) list
(** Every rule an audit can emit: the union of {!Islands_check.rules},
    {!Island_race.rules}, and {!Determinism_check.rules}. *)

val is_rule : string -> bool

val run :
  ?rules:string list ->
  ?scenarios:scenario list ->
  ?domains:int ->
  ?jobs:int ->
  ?fleet:Sched.Cluster.config ->
  ?cluster:Sched.Cluster.config ->
  ?serve:Sched.Service.config ->
  unit ->
  Diagnostic.t list
(** Audit [scenarios] (default: all) and return the diagnostics.
    [rules] restricts the output to the named rules — and skips runs
    that cannot surface any of them; unknown ids raise
    [Invalid_argument]. [domains] (default 4) is the parallel lane
    count certified against the sequential reference. [jobs] bounds the
    {!Parallel.Pool} fan-out over scenario tasks; the report is
    byte-identical whatever its value. [fleet], [cluster] and [serve]
    override the committed scenario configs (defaults: the
    64-node/1000-job fleet smoke, the 256-node/8-rack/2000-job
    EDP-migrate cluster, and the bursty 16-node/8-service serve, all
    seed 42). *)
