(** Linker-level symbols.

    A symbol is a named, sized, aligned object that the linker places in a
    loadable section. The multi-ISA toolchain requires every symbol to land
    at the *same* virtual address in each per-ISA binary (paper Section
    5.2.2); sizes may differ per ISA for functions (machine code differs),
    which the alignment tool reconciles by padding. *)

type section = Text | Data | Rodata | Bss | Tdata | Tbss

val section_to_string : section -> string
val sections_in_layout_order : section list
(** The order in which the alignment tool lays sections out in virtual
    memory: .text, .rodata, .data, .bss, then TLS template sections. *)

type t = {
  name : string;
  section : section;
  size : int;  (** bytes, for this ISA's encoding of the symbol *)
  alignment : int;  (** required alignment, power of two *)
}

val make : name:string -> section:section -> size:int -> alignment:int -> t
(** Raises [Invalid_argument] if size is negative or alignment is not a
    positive power of two. *)

val is_function : t -> bool
(** Symbols in [.text]. *)
