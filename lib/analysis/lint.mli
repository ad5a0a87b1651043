(** The [hetmig lint] driver.

    Runs the five analysis passes — IR well-formedness, stackmap
    coverage, unwind/frame soundness, cross-ISA layout alignment, DSM
    race detection — over benchmark programs and aggregates their
    diagnostics. Targets are linted in parallel over a domain pool;
    results are order-independent (the report renderers sort), so JSON
    output is byte-identical across [--jobs] values. *)

type target = { bench : Workload.Spec.bench; cls : Workload.Spec.cls }

val all_targets : target list
(** Every benchmark × class combination of {!Workload.Spec}. *)

val target_name : target -> string
(** e.g. ["cg.A"]. *)

val target_of_name : string -> target option
(** Parses ["cg.A"] / ["is.b"] (case-insensitive class). *)

val rules : (string * Diagnostic.severity * string) list
(** The full rule registry: every (id, severity, description) the five
    passes can emit, in pass order. *)

val is_rule : string -> bool


val lint_target : ?rules:string list -> target -> Diagnostic.t list
(** All five passes over one benchmark program; [rules] restricts to the
    given rule ids (unknown ids raise [Invalid_argument]). The race
    capture is skipped when no [dsm-*] rule is selected. *)

val run :
  ?rules:string list ->
  ?targets:target list ->
  ?jobs:int ->
  unit ->
  Diagnostic.t list
(** Lint every target (default: all of them) on a [jobs]-wide domain
    pool (default {!Parallel.Pool.default_jobs}). *)
