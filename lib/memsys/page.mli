(** Page constants and address helpers. Addresses are byte offsets in a
    64-bit virtual address space, represented as [int] (OCaml ints are 63
    bits, ample for user-space addresses). *)

val size : int
(** 4096 bytes on both ISAs. *)

val number : int -> int
(** Page number containing an address. *)

val base : int -> int
(** Base address of the page containing an address. *)

val offset : int -> int
(** Offset within the page. *)

val round_up : int -> int
(** Round an address/length up to a page boundary. *)

val count : bytes:int -> int
(** Number of pages needed to hold [bytes]. *)

val span : addr:int -> len:int -> int list
(** Page numbers touched by the byte range [\[addr, addr+len)]. Empty when
    [len <= 0]. *)

type range = { first : int; count : int }
(** A contiguous run of pages: [\[first, first+count)]. Large mappings are
    carried as ranges so nothing ever materializes a 100k-element page
    list on the hot path. *)

val range_of_span : addr:int -> len:int -> range
(** Range covering the byte range [\[addr, addr+len)] ([count = 0] when
    [len <= 0]). *)

val range_pages : range -> int list
(** Materialize the page numbers (intended for tests/small ranges). *)

val ranges_count : range list -> int
(** Total pages across the ranges. *)

val ranges_pages : range list -> int list
(** Materialize all page numbers, in range order. *)
