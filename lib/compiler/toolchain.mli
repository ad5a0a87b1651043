(** The multi-ISA compiler toolchain driver (paper Figure 2).

    Pipeline: profile -> insert migration points -> per-ISA backends
    (code size + frame layout) -> link -> align symbols -> emit per-ISA
    ELFs, stackmaps, unwind rules, and the unified TLS layout. The output
    [binary] is everything the OS loader and the migration runtime need. *)

type per_isa = {
  arch : Isa.Arch.t;
  obj : Binary.Obj.t;
  frames : (string * Backend.frame) list;  (** per function *)
  stackmaps : Stackmap.entry list;
  unwind : Unwind.rule list;
  elf : Binary.Elf.t;
  tls : Memsys.Tls.layout;
}

type t = {
  prog : Ir.Prog.t;  (** instrumented program *)
  aligned : Binary.Align.t;
  isas : per_isa list;
  migration_points : int;
}

val compile : ?budget:int -> Ir.Prog.t -> t
(** Compile for both ISAs ({!Isa.Arch.all}). [budget] is the
    migration-point gap budget (default one scheduling quantum). Raises
    [Invalid_argument] on ill-formed programs (undefined variable uses,
    unknown callees, missing entry). *)

val for_arch : t -> Isa.Arch.t -> per_isa
(** Raises [Not_found]. *)

val frame_of : per_isa -> string -> Backend.frame
(** Raises [Not_found]. *)

val unwind_of : per_isa -> string -> Unwind.rule
(** Raises [Not_found]. *)

val symbol_address : t -> string -> int
(** Unified virtual address of a symbol. Raises [Not_found]. *)

val natural_layouts : Ir.Prog.t -> (Isa.Arch.t * Binary.Layout.t) list
(** What a stock linker would produce per ISA, *without* symbol alignment
    — the "unaligned" baseline of Table 1. *)

