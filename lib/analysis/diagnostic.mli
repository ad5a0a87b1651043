(** Structured diagnostics shared by every [hetmig lint] pass.

    A diagnostic pins a rule violation to a location — the program (or
    workload) being analysed, optionally a function within it and a site
    within the function — with a severity and a human-readable message.
    Two renderers exist: a compact human format for terminals, and a
    deterministic JSON format (stable field order, sorted output) that CI
    archives and diff-checks across sequential and parallel runs. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

type location = {
  prog : string;  (** program or workload under analysis, e.g. ["is.A"] *)
  func : string option;  (** function within the program *)
  site : string option;  (** equivalence point / symbol / page *)
}

type t = {
  rule : string;  (** rule id, e.g. ["stackmap-missing-entry"] *)
  severity : severity;
  loc : location;
  message : string;
}

val make :
  rule:string ->
  severity:severity ->
  prog:string ->
  ?func:string ->
  ?site:string ->
  string ->
  t

val compare : t -> t -> int
(** Order by location, then rule, then message — the canonical report
    order, independent of pass scheduling. *)

(** {2 Rule selection} for the lint and audit drivers: a registry of
    (id, severity, description) and a [--rule] selection ([None] = all). *)

val is_rule : (string * severity * string) list -> string -> bool

val unknown_rule :
  (string * severity * string) list -> string list -> string option
(** The first id that names no rule of the registry, if any. *)

val validate_rules :
  (string * severity * string) list -> who:string -> string list option -> unit
(** Raises [Invalid_argument "<who>: unknown rule <id>"]. *)

val selected : string list option -> t -> bool

val wants_prefix : string list option -> string -> bool
(** Whether a selected id starts with the prefix (always, for [None]). *)

val errors : t list -> int
val warnings : t list -> int

val pp : Format.formatter -> t -> unit
(** One line: [severity rule prog[/func][@site]: message]. *)

val pp_report : Format.formatter -> t list -> unit
(** All diagnostics in canonical order followed by a summary line. *)

val to_json : t -> string
(** One JSON object with fixed field order:
    [{"rule":...,"severity":...,"prog":...,"func":...,"site":...,"message":...}]
    ([func]/[site] rendered as [null] when absent), strings escaped by
    {!Obs.json_escape}. *)

val report_to_json : t list -> string
(** A complete report:
    [{"errors":N,"warnings":N,"infos":N,"diagnostics":[...]}] with the
    diagnostics in canonical order. Deterministic byte-for-byte for a
    given diagnostic set. *)
