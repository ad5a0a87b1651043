(** A linked image: every symbol placed at a virtual address.

    [natural] reproduces what a stock linker does for a single ISA —
    symbols packed per section with only their own alignment. Two natural
    layouts of the same program on different ISAs *disagree* on addresses
    (different function sizes shift everything downstream); the alignment
    tool ([Align]) produces layouts that agree. *)

type placed = {
  symbol : Memsys.Symbol.t;
  addr : int;
  reserved : int;  (** bytes reserved: symbol size + any padding *)
}

type t = {
  arch : Isa.Arch.t;
  image : string;  (** image (file) name, e.g. "is.bin_x86_64" *)
  placed : placed list;  (** ascending by address *)
  section_bounds : (Memsys.Symbol.section * (int * int)) list;
      (** per section: [start, end) addresses *)
}

val text_base : int
(** 0x40_0000, the conventional non-PIE load address. *)

val natural : base:int -> Obj.t -> t
(** Stock single-ISA link: sections in layout order, each starting on a
    page boundary; symbols packed with their natural alignment. *)

val address_of : t -> string -> int option
val find_at : t -> int -> placed option
(** The placed symbol whose [addr, addr+reserved) range contains the
    address. *)

val check_no_overlap : t -> (unit, string) result
(** Verifies placements are disjoint and inside their section bounds. *)
