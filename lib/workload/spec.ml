type bench = CG | IS | FT | EP | BT | SP | MG | LU | Bzip2smp | Verus | Redis
type cls = A | B | C

type t = {
  bench : bench;
  cls : cls;
  name : string;
  total_instructions : float;
  category : Isa.Cost_model.category;
  footprint_bytes : int;
}

let bench_to_string = function
  | CG -> "cg"
  | IS -> "is"
  | FT -> "ft"
  | EP -> "ep"
  | BT -> "bt"
  | SP -> "sp"
  | MG -> "mg"
  | LU -> "lu"
  | Bzip2smp -> "bzip2smp"
  | Verus -> "verus"
  | Redis -> "redis"

let cls_to_string = function A -> "A" | B -> "B" | C -> "C"

let all_benches = [ CG; IS; FT; EP; BT; SP; MG; LU; Bzip2smp; Verus; Redis ]
let npb = [ CG; IS; FT; EP; BT; SP; MG; LU ]
let classes = [ A; B; C ]

let mib n = n * 1024 * 1024

(* (instructions A, B, C), category, (footprint A, B, C). *)
let table = function
  | CG ->
    ((2.0e9, 5.0e10, 1.3e11), Isa.Cost_model.Memory, (mib 56, mib 120, mib 900))
  | IS ->
    ((2.5e9, 3.0e10, 1.2e11), Isa.Cost_model.Memory, (mib 33, mib 134, mib 540))
  | FT ->
    ((5.0e9, 6.0e10, 2.4e11), Isa.Cost_model.Mixed, (mib 340, mib 1300, mib 2600))
  | EP ->
    ((1.5e9, 6.0e9, 2.4e10), Isa.Cost_model.Compute, (mib 1, mib 1, mib 1))
  | BT ->
    ((5.0e10, 2.0e11, 8.0e11), Isa.Cost_model.Mixed, (mib 50, mib 300, mib 1200))
  | SP ->
    ((3.0e10, 1.2e11, 5.0e11), Isa.Cost_model.Mixed, (mib 40, mib 250, mib 1000))
  | MG ->
    ((4.0e9, 1.8e10, 7.0e10), Isa.Cost_model.Memory, (mib 56, mib 450, mib 3400))
  | LU ->
    ((4.0e10, 1.6e11, 6.5e11), Isa.Cost_model.Mixed, (mib 40, mib 160, mib 600))
  | Bzip2smp ->
    ((5.0e9, 1.2e10, 3.0e10), Isa.Cost_model.Branch, (mib 8, mib 16, mib 32))
  | Verus ->
    ((6.0e8, 2.0e9, 6.0e9), Isa.Cost_model.Branch, (mib 12, mib 24, mib 48))
  | Redis ->
    ((3.0e9, 9.0e9, 2.7e10), Isa.Cost_model.Memory, (mib 64, mib 256, mib 1024))

let pick cls (a, b, c) =
  match cls with A -> a | B -> b | C -> c

let spec bench cls =
  let instrs, category, footprints = table bench in
  {
    bench;
    cls;
    name = Printf.sprintf "%s.%s" (bench_to_string bench) (cls_to_string cls);
    total_instructions = pick cls instrs;
    category;
    footprint_bytes = pick cls footprints;
  }

(* The pages of one phase: the flat window [start, start+len) mod n over
   the concatenated [data_pages] ([n] pages in all), as maximal ascending
   runs. Each range contributes a stretch of consecutive pages, and a
   stretch joins the run before it when it starts where that run ends,
   so the runs are exactly the ascending runs of the window's page list. *)
let window_runs data_pages ~n ~start ~len =
  let add acc first count =
    match acc with
    | { Memsys.Page.first = f; count = c } :: rest when f + c = first ->
      { Memsys.Page.first = f; count = c + count } :: rest
    | _ -> { Memsys.Page.first; count } :: acc
  in
  (* [base] is the flat index of the first page of [ranges]. *)
  let rec take acc pos left ranges base =
    if left = 0 then List.rev acc
    else
      match ranges with
      | [] -> take acc 0 left data_pages 0
      | (r : Memsys.Page.range) :: rest ->
        let stop = base + r.Memsys.Page.count in
        if pos >= stop then take acc pos left rest stop
        else
          let k = min left (stop - pos) in
          take
            (add acc (r.Memsys.Page.first + pos - base) k)
            (pos + k) (left - k) rest stop
  in
  if n = 0 then [] else take [] (start mod n) (min len n) data_pages 0

let quantum_instructions = 1e8

let phase_count t ~threads ~quantum_instructions =
  let per_thread = t.total_instructions /. float_of_int threads in
  max 1 (int_of_float (Float.ceil (per_thread /. quantum_instructions)))

(* One lazy phase sequence per thread: phase [i] of thread [tid] samples
   the 16-page window at flat index [(tid * n_phases + i) * 16], and is
   rebuilt each time the sequence is forced there. *)
let phases_of_ranges t ~threads ~quantum_instructions ~data_pages =
  if threads <= 0 then invalid_arg "Spec.phases: threads <= 0";
  if quantum_instructions <= 0.0 then
    invalid_arg "Spec.phases: non-positive quantum";
  let per_thread = t.total_instructions /. float_of_int threads in
  let n_phases = phase_count t ~threads ~quantum_instructions in
  let phase_instr = per_thread /. float_of_int n_phases in
  let writes = t.category <> Isa.Cost_model.Compute in
  let n = Memsys.Page.ranges_count data_pages in
  let per_phase = 16 in
  List.init threads (fun tid ->
      Seq.init n_phases (fun i ->
          {
            Kernel.Process.instructions = phase_instr;
            category = t.category;
            pages =
              window_runs data_pages ~n
                ~start:(((tid * n_phases) + i) * per_phase)
                ~len:per_phase;
            writes;
          }))

let phases t ~threads ~quantum_instructions =
  let n_pages = Memsys.Page.count ~bytes:t.footprint_bytes in
  phases_of_ranges t ~threads ~quantum_instructions
    ~data_pages:[ { Memsys.Page.first = 0; count = min n_pages 65536 } ]

(* Phase expansion is pure in (spec, threads, quantum, page ranges): a
   sequence rebuilds the same immutable phases each time it is forced,
   and threads only ever reassign their [remaining] pointer, so the
   sequences are safely shared across processes and domains. An entry
   holds one closure per thread, never a phase. Mutex-guarded with FIFO
   eviction, same discipline as {!Kernel.Popcorn.latency_cache}: a
   concurrent miss at worst duplicates the (deterministic) expansion,
   never corrupts the table. *)
let phase_memo :
    ( string * int * float * Memsys.Page.range list,
      Kernel.Process.phase Seq.t list )
    Hashtbl.t =
  Hashtbl.create 16

let phase_memo_order :
    (string * int * float * Memsys.Page.range list) Queue.t =
  Queue.create ()

let phase_memo_capacity = 128
let phase_memo_hits = ref 0
let phase_memo_misses = ref 0
let phase_memo_lock = Mutex.create ()

let locked f =
  Mutex.lock phase_memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock phase_memo_lock) f

let phase_memo_clear () =
  locked (fun () ->
      Hashtbl.reset phase_memo;
      Queue.clear phase_memo_order;
      phase_memo_hits := 0;
      phase_memo_misses := 0)

let phase_memo_stats () = locked (fun () -> (!phase_memo_hits, !phase_memo_misses))

let phases_for_process t ~threads ~quantum_instructions ~data_pages =
  let key = (t.name, threads, quantum_instructions, data_pages) in
  let cached =
    locked (fun () ->
        match Hashtbl.find_opt phase_memo key with
        | Some _ as found ->
          incr phase_memo_hits;
          found
        | None ->
          incr phase_memo_misses;
          None)
  in
  match cached with
  | Some ph -> ph
  | None ->
    let ph = phases_of_ranges t ~threads ~quantum_instructions ~data_pages in
    locked (fun () ->
        if not (Hashtbl.mem phase_memo key) then begin
          Hashtbl.replace phase_memo key ph;
          Queue.push key phase_memo_order;
          while Hashtbl.length phase_memo > phase_memo_capacity do
            Hashtbl.remove phase_memo (Queue.pop phase_memo_order)
          done
        end);
    ph

(* The threads' phases are set after the loader picks the data pages. *)
let spawn pop ~container ~node ?binary
    ?(quantum_instructions = quantum_instructions) t ~threads =
  let proc =
    Kernel.Popcorn.spawn pop ~container ~node ~name:t.name ?binary
      ~footprint_bytes:t.footprint_bytes
      ~thread_phases:(List.init threads (fun _ -> Seq.empty))
      ()
  in
  List.iter2
    (fun (th : Kernel.Process.thread) phases ->
      th.Kernel.Process.remaining <- phases)
    proc.Kernel.Process.threads
    (phases_for_process t ~threads ~quantum_instructions
       ~data_pages:proc.Kernel.Process.data_pages);
  proc
