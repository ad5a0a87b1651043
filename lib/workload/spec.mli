(** Workload specifications.

    The paper evaluates the NAS Parallel Benchmarks (short- and
    long-running via classes A/B/C), the Verus model checker and bzip2smp
    (branch-intensive, variable input), and uses Redis in the emulation
    study — a mix of memory-, compute-, and branch-intensive jobs with
    execution times from milliseconds to hundreds of seconds (Section 6).

    Instruction totals and memory footprints below are calibrated to
    published NPB measurements at the granularity the experiments need:
    only relative magnitudes across benchmarks/classes matter. *)

type bench = CG | IS | FT | EP | BT | SP | MG | LU | Bzip2smp | Verus | Redis
type cls = A | B | C

type t = {
  bench : bench;
  cls : cls;
  name : string;  (** e.g. "cg.B" *)
  total_instructions : float;  (** dynamic instructions, single-threaded *)
  category : Isa.Cost_model.category;
  footprint_bytes : int;  (** resident data working set *)
}

val bench_to_string : bench -> string
val cls_to_string : cls -> string
val all_benches : bench list
val npb : bench list
(** The NPB subset: CG, IS, FT, EP, BT, SP, MG, LU. *)

val classes : cls list

val spec : bench -> cls -> t

val quantum_instructions : float
(** One scheduling quantum, 1e8 instructions: every scheduler's phase. *)

val phase_count : t -> threads:int -> quantum_instructions:float -> int
(** Phases per thread of an even split over [threads]: the per-thread
    share over the quantum, rounded up, and at least one. *)

val phases :
  t -> threads:int -> quantum_instructions:float -> Kernel.Process.phase Seq.t list
(** Split the workload into one lazy phase sequence per thread (see
    {!Kernel.Process.phase}): each phase is one inter-migration-point
    stretch (~[quantum_instructions]) and touches a rotating 16-page
    sample of the footprint's first 65536 pages. Phase [i] of thread
    [tid] samples the flat window [\[s, s+16) mod n] with
    [s = (tid * n_phases + i) * 16], carried as the window's maximal
    ascending runs. The page numbers are process-relative (0-based);
    {!Kernel.Popcorn.spawn} remaps nothing — callers must offset them by
    the process's first data page. A sequence builds each phase when it
    is forced, so the whole split costs O(threads) until it is walked.
    Raises [Invalid_argument] at once on [threads <= 0] or a
    non-positive quantum. *)

val phases_for_process :
  t ->
  threads:int ->
  quantum_instructions:float ->
  data_pages:Memsys.Page.range list ->
  Kernel.Process.phase Seq.t list
(** Like {!phases}, with the sample windows drawn from the process's
    actual DSM pages (the loader's contiguous runs, indexed as one flat
    sequence of [n = ranges_count data_pages] pages; a window of
    [min 16 n] pages, none when [n = 0]). Runs join across adjacent
    ranges and across the wrap from the last page to the first when the
    page numbers are consecutive. Memoized per (name, threads, quantum,
    page ranges): the sequences are pure and the phase records
    immutable, so repeated ensemble spawns of the same (program, input
    class) share one entry, which holds one closure per thread.
    Thread-safe. *)

val spawn :
  Kernel.Popcorn.t ->
  container:Kernel.Container.t ->
  node:int ->
  ?binary:Compiler.Toolchain.t ->
  ?quantum_instructions:float ->
  t ->
  threads:int ->
  Kernel.Process.t
(** {!Kernel.Popcorn.spawn} a [threads]-thread process of the spec on
    [node], not yet started, whose threads run {!phases_for_process}
    over its data pages (default quantum: {!quantum_instructions}). *)

val phase_memo_clear : unit -> unit
(** Drop every memoized phase expansion and reset the hit/miss counters. *)

val phase_memo_stats : unit -> int * int
(** [(hits, misses)] of the {!phases_for_process} memo table. *)
