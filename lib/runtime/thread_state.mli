(** A thread's complete user-space state T_i = <L_i, S_i, R_i> (paper
    Section 3): register file, user stack contents, and the call-frame
    chain describing where each live function invocation is suspended. *)

type frame = {
  fname : string;
  key : Compiler.Stackmap.site_key;
      (** the equivalence point at which this invocation is suspended:
          a call site for outer frames, a migration point for the
          innermost frame *)
  fp : int;
  sp : int;
}

type t = {
  arch : Isa.Arch.t;
  stack : Stack_mem.t;  (** the full stack VMA *)
  active : Stack_mem.t;  (** the half currently executing *)
  regs : Regfile.t;
  mutable frames : frame list;  (** innermost first *)
}

val stack_base : int
(** Conventional stack VMA base used for every simulated thread. *)

val stack_bytes : int
(** Size of every thread's stack VMA; the loader maps each process's
    stack at this size. *)

val create : Isa.Arch.t -> t
(** Fresh state: empty upper-half stack, zeroed registers. *)

val innermost : t -> frame
(** Raises [Failure] when no frame exists. *)

val depth : t -> int

val frame_of_name : t -> string -> frame
(** Innermost frame of the named function. Raises [Not_found]. *)

val pp : Format.formatter -> t -> unit
