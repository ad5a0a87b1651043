(** A thread's user-visible register state (R_i in the paper's model). *)

type t

val create : Isa.Arch.t -> t
(** All general-purpose registers zeroed. *)

val arch : t -> Isa.Arch.t
val get : t -> Isa.Register.t -> int64
val set : t -> Isa.Register.t -> int64 -> unit
(** Raise [Invalid_argument] if the register belongs to another ISA. *)

val get_sp : t -> int
val set_sp : t -> int -> unit
val get_fp : t -> int
val set_fp : t -> int -> unit

val pc : t -> int64
val set_pc : t -> int64 -> unit
(** The program counter is tracked separately from the GPR file. *)

val get_lanes : t -> Isa.Register.t -> int -> int64 array
(** Read an [n]-lane register value (n = 2 for a 128-bit vector register,
    1 for a GPR). *)

val set_lanes : t -> Isa.Register.t -> int64 array -> unit

