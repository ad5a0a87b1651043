(** Server machine models.

    The prototype hardware (paper Section 6):
    - x86: Intel Xeon E5-1650 v2, 6 cores at 3.5 GHz (hyper-threading
      disabled), 12 MB LLC, 16 GB RAM;
    - ARM: Applied Micro X-Gene 1 (APM883208), 8 cores at 2.4 GHz, 8 MB
      cache, 32 GB RAM. *)

type t = {
  name : string;
  arch : Isa.Arch.t;
  cores : int;
  cost : Isa.Cost_model.t;
  power : Power.model;
  ram_bytes : int;
  l1i_bytes : int;  (** per-core L1 instruction cache *)
  l1d_bytes : int;  (** per-core L1 data cache *)
}

val xeon_e5_1650_v2 : t
val xgene1 : t

val of_arch : Isa.Arch.t -> t
(** The prototype machine of that ISA. *)

val with_power : t -> Power.model -> t

val load_watts : t -> float array
(** System power at [k] busy threads, for [k = 0 .. cores]. A heavier
    load draws what [cores] threads draw, since utilization saturates at
    the core count: read index [min k cores]. The one table from thread
    load to watts, which every {!meter} reads. *)

(** {2 Node energy}

    A node's draw changes only with its power mode and thread load, so
    a meter settled at each change integrates its energy exactly.
    [Kernel.Popcorn], [Sched.Cluster] and [Sched.Service] keep one per
    node. *)

type mode =
  | On  (** draws {!load_watts} at the settled load *)
  | Asleep  (** draws [power.sleep_w] *)
  | Off  (** draws nothing *)

type meter

val meter : t -> meter
(** A meter at 0 J, settled at time 0. *)

val draw : meter -> mode -> load:int -> float
(** Watts the node draws in [mode] at [load] busy threads. *)

val settle : meter -> now:float -> mode -> load:int -> unit
(** Charge the draw of [mode] at [load] busy threads, which the node
    has had since the last settle, up to [now]. *)

val joules : meter -> float
(** Energy charged up to the last settle. *)

val settled_at : meter -> float
(** Time of the last settle (0 before the first). *)

val peak_mips : t -> Isa.Cost_model.category -> float
(** All-cores aggregate MIPS for a workload category. *)

val pp : Format.formatter -> t -> unit
