(** Vector-clock happens-before race detection over hDSM access logs.

    The detector consumes a linear log of the hDSM's own observations
    ({!Dsm.Hdsm.observation}): page accesses ([Obs_access]) and
    inter-unit synchronisation edges ([Obs_sync]: coherence messages, and
    the migration handoffs the capture adds), and flags pairs of
    conflicting accesses — two accesses to the same page, at least one a
    write, from different units — that are not ordered by the
    happens-before relation the sync edges induce.

    A unit is a kernel instance (node), whose internal order is program
    order. A coherent write-invalidate run is race-free by construction
    because every ownership or copy transfer is a message, i.e. an
    [Obs_sync]; stripping the [Obs_sync] events from a captured log (or
    synthesising a log with unsynchronised sharing) must make the
    detector fire, which is how the known-racy validation corpus is
    built. *)

type race = {
  page : int;
  first_unit : int;
  first_write : bool;
  first_index : int;  (** position of the earlier access in the log *)
  second_unit : int;
  second_write : bool;
  second_index : int;
}

val pp_race : Format.formatter -> race -> unit

val detect : units:int -> Dsm.Hdsm.observation list -> race list
(** FastTrack-style detection: per-page last-write epoch plus per-unit
    read epochs, compared against per-unit vector clocks. At most one
    race is reported per page (the first detected), keeping reports
    readable on heavily racy logs. Events naming a unit outside
    [0..units-1] raise [Invalid_argument]. *)
