(** General-purpose register files of the two ISAs.

    A register is identified by its conventional assembly name. The sets
    below drive register allocation in the compiler backends and the
    callee-saved register resolution in the stack-transformation runtime. *)

type t = { arch : Arch.t; name : string; index : int }

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val all : Arch.t -> t list
(** Every general-purpose register of the ISA, in index order. *)

val by_name : Arch.t -> string -> t
(** Raises [Not_found] for an unknown name. *)

val callee_saved : Arch.t -> t list
(** Registers a callee must preserve:
    ARM64: x19-x28 (plus fp x29, lr x30 handled separately);
    x86-64 SysV: rbx, rbp, r12-r15. *)

val caller_saved : Arch.t -> t list
(** Scratch registers clobbered by a call. *)

val argument : Arch.t -> t list
(** Integer argument registers in ABI order:
    ARM64: x0-x7; x86-64 SysV: rdi, rsi, rdx, rcx, r8, r9. *)

val stack_pointer : Arch.t -> t
val frame_pointer : Arch.t -> t

val link : Arch.t -> t option
(** ARM64 keeps the return address in x30; x86-64 pushes it on the stack,
    so [link X86_64 = None]. This asymmetry is exactly what the register
    mapping r_AB of the paper's Section 4 must bridge. *)

val is_callee_saved : t -> bool

(** {1 SIMD / floating-point vector registers}

    Vector state is the paper's stated future work (Section 5.4). The two
    ABIs diverge sharply: AArch64 makes v8-v15 callee-saved, while the
    x86-64 SysV ABI has {e no} callee-saved vector registers — all xmm
    registers are clobbered by calls. A vector value that lives in a
    register on the ARM must therefore always land in a stack slot when
    the thread migrates to the x86. *)

val vector_all : Arch.t -> t list
(** v0-v31 (ARM64) / xmm0-xmm15 (x86-64). Indices are disjoint from the
    general-purpose file. *)

val vector_by_name : Arch.t -> string -> t
(** Raises [Not_found]. *)

val vector_callee_saved : Arch.t -> t list
(** ARM64: v8-v15; x86-64: none. *)

val is_vector : t -> bool
