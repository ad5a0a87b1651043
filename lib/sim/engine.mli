(** Discrete-event simulation engine.

    Time is a [float] in seconds of simulated time. Events scheduled at equal
    times fire in insertion order, which keeps runs deterministic. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] when simulated time reaches [at]. [at] must
    not be in the past. *)

val schedule_in : t -> after:float -> (unit -> unit) -> unit
(** [schedule_in t ~after f] is [schedule t ~at:(now t +. after) f]. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> float -> unit
(** Run events with timestamps [<= limit], then advance the clock to [limit]
    (if it is not already past it). *)

val pending : t -> int
(** Number of queued events. *)

val capacity : t -> int
(** Current size of the backing heap array (grows by doubling, never
    shrinks). *)
