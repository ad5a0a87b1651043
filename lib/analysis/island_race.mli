(** Island ownership check over captured time-island executions.

    Every ownership touch recorded by {!Sim.Islands.touch} names the
    island that owns the touched state. A touch whose owner is not the
    island executing the event breaks the §7b contract — model code
    reaching across the island boundary — and is reported whatever
    window it falls in. *)

val rules : (string * Diagnostic.severity * string) list
(** [(id, severity, summary)] for every rule this pass can emit. *)

val check : label:string -> Sim.Islands.capture -> Diagnostic.t list
(** Report the non-owner touches of one captured execution; [label]
    becomes the diagnostics' [prog]. At most one diagnostic per
    (executing island, owner) pair, in island order and then execution
    order. *)
