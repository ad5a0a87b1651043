(** CLI-boundary validation for the simulation front ends.

    Result-returning checks so [bin/hetmig_cli] can print the message
    and exit 2 while unit tests exercise the exact messages in-process.
    Error strings name the flag and the offending value. *)

val at_least : what:string -> min:int -> int -> (int, string) result
val positive_float : what:string -> float -> (float, string) result
(** Finite and strictly positive. *)

val non_negative_float : what:string -> float -> (float, string) result
(** Finite and at least zero. *)

val probability : what:string -> float -> (float, string) result
(** Finite and in [0, 1]. *)

val serve_epoch : float -> (float, string) result
(** [--epoch] for serve must exceed {!Service.epoch_floor_s}, the 10GbE
    link latency; the message names the floor. *)

val islands : int option -> (int option, string) result
(** [None] (pick a default) is always valid; [Some d] needs [d >= 1]. *)

val crash_spec : string -> (Faults.Plan.crash, string) result
(** Parse ["NODE@TIME"], naming the token that broke: a non-integer
    node, a non-float time, a negative node or time, or a malformed
    shape each get their own message. *)

val crashes_in_range :
  nodes:int -> Faults.Plan.crash list -> (unit, string) result
(** Reject crash specs naming nodes the fleet does not have — formerly
    silently dropped or a deep [Invalid_argument]. *)

val topology :
  nodes:int -> racks:int -> mix_name:string -> (Machine.Topology.t, string) result
(** Build the rack topology the fleet/cluster CLI knobs describe.
    [racks = 1] is the flat pre-cluster topology whose single hop is
    the paper's 10GbE point-to-point interconnect; more racks use the
    datacenter-grade ToR/aggregation defaults. [nodes] must divide
    evenly into [racks]. *)

val power_cap : topology:Machine.Topology.t -> float -> (float, string) result
(** A [pack-power-cap] budget must reach {!Cluster.power_floor}:
    below it the widest job is never admitted and the run never ends. *)
