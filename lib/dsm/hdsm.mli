(** Heterogeneous distributed shared memory (paper Section 5.1).

    Page-granularity write-invalidate coherence between kernels. Pages
    migrate on demand so subsequent accesses are local instead of
    repeatedly crossing the interconnect. Because application data is in a
    common format across ISAs, pages move *without any content
    transformation*. Code pages are special: the [.text] section (and
    vDSO) is aliased — each kernel maps its own ISA's image at the same
    virtual range, so text pages are always local and never transferred.

    With [batch] enabled, contiguous page runs with a common owner
    coalesce into one protocol operation (one request, one handler
    invocation, one bulk response) instead of a full round trip per page
    — the coherence outcome and bytes moved are identical, only the
    latency and message counts change.

    Nodes are small integers (kernel ids). *)

type node = int

type page_state = Invalid | Shared | Exclusive

type stats = {
  mutable local_hits : int;
  mutable remote_fetches : int;
      (** pages fetched/moved across the interconnect (batched or not) *)
  mutable invalidations : int;
  mutable bytes_transferred : int;
  mutable protocol_msgs : int;
      (** protocol round trips: one per remote page unbatched, one per
          coalesced run when batching *)
  mutable prefetched_pages : int;
      (** pages pushed ahead of demand by {!prefetch} *)
}

type t

val create :
  ?handler_latency_s:float ->
  ?batch:bool ->
  ?obs:Obs.t ->
  ?now:(unit -> float) ->
  nodes:int ->
  interconnect:Machine.Interconnect.t ->
  unit ->
  t
(** [handler_latency_s] is the software cost of one DSM protocol
    operation (page-fault handler, message marshalling, mapping update) —
    the dominant term over a fast PCIe interconnect. Default 50 us,
    calibrated so that draining an NPB-IS-class working set takes the ~2
    seconds visible in the paper's Figure 11. [batch] (default false)
    enables run-coalesced transfers; when off, behaviour is bit-identical
    to the historical per-page protocol.

    [obs] (default {!Obs.noop}) records one aggregate event per
    latency-bearing {!access_many} fold, per coalesced batch fetch, and
    per prefetch, on the requesting node's hDSM lane ([tid]
    {!Obs.dsm_tid}), plus [dsm.batched_runs]/[dsm.prefetch_ops] counters.
    [now] supplies the owning ensemble's simulated clock for the event
    timestamps (events stamp 0 without it). Coherence behaviour and
    returned latencies are unaffected. *)

val page_fault_latency : Machine.Interconnect.t -> float
(** One remote page fault at {!create}'s default 50 us handler: the
    handler on top of {!Machine.Interconnect.page_transfer_time}. A
    demand fetch of an hDSM built with the default costs exactly this. *)

val register_page : t -> page:int -> owner:node -> unit
(** Introduce a data page, initially [Exclusive] at its owner. Idempotent
    for an already-known page. *)

val register_range : t -> range:Memsys.Page.range -> owner:node -> unit
(** Introduce a contiguous run of data pages, each initially [Exclusive]
    at its owner. O(1) in the run length: per-page coherence entries are
    materialized lazily on first touch, so registering a multi-hundred-MiB
    working set costs nothing until pages are actually accessed. Pages
    already covered by an earlier range keep their first registration
    (adjacent sections may share a boundary page); only the uncovered
    remainder is recorded. A page registered earlier with {!register_page}
    or {!register_alias} keeps its own state too. *)

val register_alias : t -> page:int -> unit
(** Mark a page as per-ISA aliased (text / vDSO): every node always has a
    local copy; the page never moves. Idempotent for an already-aliased
    page; raises [Invalid_argument] if the page is already registered as
    a data page (individually or via a range) — silently rewriting its
    coherence state would corrupt ownership. *)

val state_of : t -> page:int -> node -> page_state

val access : t -> node:node -> page:int -> write:bool -> float
(** Perform an access; returns the added latency in seconds (0 for local
    hits). Read misses fetch a shared copy from the current owner; writes
    invalidate all other copies and take exclusive ownership. Raises
    [Invalid_argument] for unknown pages. *)

val access_many :
  t -> node:node -> pages:Memsys.Page.range list -> write:bool -> float
(** One DSM call covering a whole phase's pages, given as runs in access
    order; returns the summed latency. Without batching this is exactly
    folding {!access} over the runs' pages in order. A run entirely
    inside an untouched lazy range owned by the accessing node is swept
    without materializing per-page entries; with batching, an Invalid run
    with a common single-copy owner becomes one {!fetch_run} operation.
    Each run is one such candidate, so callers pass maximal ascending
    runs: no run starting where the one before it ends. *)

val fetch_run :
  t -> node:node -> first:int -> count:int -> write:bool -> float option
(** Coalesce the contiguous run [[first, first+count)] — every page
    Invalid at [node] with one common owner holding the only copy — into
    a single protocol operation: one request, one handler invocation and
    one response carrying all pages (source-side invalidation for writes
    rides the same message). Returns the batched latency, or [None] when
    the run is not uniform (mixed owners, sharers, aliased pages, or the
    caller already holds a copy) — in that case no coherence state has
    changed. *)

val owner : t -> page:int -> node

val pages_owned_by : t -> node -> int list
(** Data pages currently owned by the node (aliased pages excluded). *)

val residual_pages : t -> home:node -> int
(** Number of pages still owned by [home] — the residual dependencies that
    keep a migrated process tethered to its source kernel. Always
    [List.length (pages_owned_by t home)]: each page counts once, whatever
    order its page and range registrations came in. The cost grows with
    the number of per-page entries and ranges, not with range lengths. *)

val drain : t -> from_:node -> to_:node -> float
(** Bulk-transfer every page owned by [from_] to [to_]; returns total
    transfer latency. Used when the last thread of an application leaves a
    kernel. Untouched pages of a range owned by [from_] move by giving the
    range the new owner. *)

val drain_seq : t -> segments:Memsys.Page.range list -> to_:node -> float
(** [drain_seq t ~segments ~to_] bulk-transfers the pages of the
    contiguous runs [segments], in order, to [to_] (wherever they are
    owned); pages already owned by [to_] and aliased pages cost nothing.
    Used to clear one process's residual dependencies from its home
    kernel. With batching, each segment is one coalesced protocol
    operation over the pages actually moved; without, each moved page is
    one protocol message and adds one [page_latency] to the sum, one
    addition at a time, in page order.

    Pages move by range, not one by one. A segment's pages that have no
    per-page entry (never touched since registration) take [to_] as
    their range's default owner: the range is split at the segment's
    bounds, and pieces that touch a neighbour with the same owner merge
    into it, so a drained process leaves one range behind, not one entry
    per page. Pages with an entry move one by one. Either way the stats
    count every moved page and the observer sees one [Obs_sync] per moved
    page, in page order. A stretch of a range none of whose pages has an
    entry moves without a table probe, and without an observer its
    stats advance by its length at once. {!prefetch} and {!drain} move
    pages the same way. *)

val prefetch : t -> pages:Memsys.Page.range list -> to_:node -> float
(** Push the runs [pages] to [to_] ahead of demand (the migration
    working-set prefetch): each run moves like a {!drain_seq} segment,
    one coalesced operation when batching; pages already at the
    destination or aliased cost nothing.
    Moved pages are counted in [stats.prefetched_pages]. Returns the
    transfer latency, which the caller may overlap with other work. *)

val ranges : t -> (Memsys.Page.range * node) list
(** The registered page ranges with their default owners, in page order:
    disjoint, and touching neighbours never share an owner, so a drained
    process leaves one range, not a piece per chunk. For tests and
    diagnostics. *)

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Observation}

    The static-analysis race detector ([Analysis.Race.detect]) replays
    logs of these observations through a vector-clock happens-before
    checker. An observer receives one event
    per page access and one per protocol-induced ordering edge (page
    fetch, invalidation, drain/prefetch transfer) — the messages that
    order conflicting accesses in a coherent execution. With no observer
    installed the hot paths pay a single [None] check. *)

type observation =
  | Obs_access of { node : node; page : int; write : bool }
      (** an application access to a data page *)
  | Obs_sync of { src : node; dst : node }
      (** a protocol message whose delivery orders everything [src] did
          before it ahead of everything [dst] does after it *)

val set_observer : t -> (observation -> unit) option -> unit
