(** Live-value location metadata ("stackmaps").

    At every equivalence point (call site or inserted migration point) the
    compiler records, per ISA, where each live value resides — register or
    stack slot. The stack-transformation runtime joins the source and
    destination ISA's entries for the same site to copy values across
    (paper Section 5.3: the metadata "maps function call return addresses
    across architectures" and "tells the runtime how to locate all the live
    values"). *)

type ty_loc = { ty : Ir.Ty.t; loc : Backend.location }

type site_key = Ir.Liveness.site_kind * int

type entry = {
  fname : string;
  kind : Ir.Liveness.site_kind;
  site_id : int;
  live : (string * ty_loc) list;
      (** live local -> type + ISA location, sorted by name *)
}

val generate : Ir.Prog.func -> Backend.frame -> entry list
(** One entry per equivalence point of the function, in syntactic order. *)

val find : entry list -> fname:string -> key:site_key -> entry option

(** {1 Cross-ISA agreement}

    Multi-ISA binaries are compiled from the same IR, so the per-ISA
    metadata sets must describe the same equivalence points with the same
    live-variable names. {!diff_sites} reports {e every} disagreement,
    which is what the static verifier ([hetmig lint]) renders as
    diagnostics and what the transformation runtime uses for precise
    error messages. *)

type mismatch =
  | Site_missing of {
      fname : string;
      kind : Ir.Liveness.site_kind;
      site_id : int;
      missing_in : [ `First | `Second ];
    }  (** a (function, site) present in one metadata set only *)
  | Site_order of { fname : string; kind : Ir.Liveness.site_kind; site_id : int }
      (** both sets contain the site but at different sequence positions —
          the per-ISA backends disagree on syntactic site order *)
  | Live_set of {
      fname : string;
      kind : Ir.Liveness.site_kind;
      site_id : int;
      only_in_first : string list;
      only_in_second : string list;
    }  (** the two ISAs disagree on which variables are live at the site *)

val pp_mismatch : Format.formatter -> mismatch -> unit

val diff_sites : entry list -> entry list -> mismatch list
(** Exhaustive comparison of two per-ISA metadata sets: every missing
    site, out-of-order site, and live-set disagreement, in a deterministic
    order. [[]] means the sets agree. *)

val join_sites : entry list -> entry list -> (entry * entry) list * mismatch list
(** Pair up the entries that {e do} agree (same (function, kind, site) key
    and same live-variable names), alongside the full mismatch report.
    With an empty report the pairs cover both sets in order. *)
