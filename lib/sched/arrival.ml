(* The benchmarks jobs are drawn from. *)
let job_pool =
  let open Workload.Spec in
  [|
    (CG, A); (CG, B); (IS, A); (IS, B); (IS, C); (FT, A); (EP, A); (EP, B);
    (MG, A); (MG, B); (BT, A); (SP, A); (Bzip2smp, A); (Bzip2smp, B);
    (Verus, A); (Verus, B); (Verus, C);
  |]

let thread_counts = [| 1; 2; 4 |]

let draw_job rng jid arrival =
  let bench, cls = Sim.Prng.choice rng job_pool in
  let threads = Sim.Prng.choice rng thread_counts in
  Job.make ~jid ~spec:(Workload.Spec.spec bench cls) ~threads ~arrival

let sustained ~seed ~jobs =
  let rng = Sim.Prng.create seed in
  List.init jobs (fun jid -> draw_job rng jid 0.0)

(* --- open-loop request traces (serving workloads) ---------------------- *)

type request = { rid : int; svc : int; at : float }

type request_trace = {
  tname : string;
  services : int;
  requests : request array;
}

(* Canonicalize raw (time, service, draw-order) triples into a trace:
   sort by (time, service, draw order) — draw order breaks exact-time
   ties deterministically — then assign request ids in that order, so a
   trace's identity is independent of how its generator interleaved the
   per-service streams. *)
let finalize ~tname ~services pairs =
  let arr = Array.of_list pairs in
  Array.sort
    (fun (a_at, a_svc, a_k) (b_at, b_svc, b_k) ->
      match Float.compare a_at b_at with
      | 0 -> begin
        match compare a_svc b_svc with 0 -> compare a_k b_k | c -> c
      end
      | c -> c)
    arr;
  {
    tname;
    services;
    requests = Array.mapi (fun rid (at, svc, _) -> { rid; svc; at }) arr;
  }

(* Poisson arrivals at [rate] over [seg_start, seg_end), appended to
   [acc] with the per-service draw counter [k]. *)
let poisson_segment rng ~svc ~rate ~seg_start ~seg_end k acc =
  if rate <= 0.0 then (k, acc)
  else begin
    let mean = 1.0 /. rate in
    let t = ref (seg_start +. Sim.Prng.exponential rng ~mean) in
    let k = ref k and acc = ref acc in
    while !t < seg_end do
      acc := (!t, svc, !k) :: !acc;
      incr k;
      t := !t +. Sim.Prng.exponential rng ~mean
    done;
    (!k, !acc)
  end

(* Parameter checks shared by the materialized and streamed generators. *)
let validate_bursty ~rate_high ~rate_low ~mean_on ~mean_off ~services
    ~duration_s =
  if services < 1 then invalid_arg "Arrival.bursty: need at least one service";
  if duration_s <= 0.0 then invalid_arg "Arrival.bursty: empty duration";
  if rate_high < 0.0 || rate_low < 0.0 then
    invalid_arg "Arrival.bursty: negative rate";
  if mean_on <= 0.0 || mean_off <= 0.0 then
    invalid_arg "Arrival.bursty: sojourn means must be positive"

let validate_diurnal ~peak_rps ~day_s ~services ~days =
  if services < 1 then invalid_arg "Arrival.diurnal: need at least one service";
  if days < 1 then invalid_arg "Arrival.diurnal: need at least one day";
  if not (peak_rps >= 0.0) then
    invalid_arg "Arrival.diurnal: need peak_rps >= 0";
  if day_s <= 0.0 then invalid_arg "Arrival.diurnal: day_s must be positive"

let bursty ?(rate_high = 40.0) ?(rate_low = 2.0) ?(mean_on = 10.0)
    ?(mean_off = 30.0) ~seed ~services ~duration_s () =
  validate_bursty ~rate_high ~rate_low ~mean_on ~mean_off ~services
    ~duration_s;
  let master = Sim.Prng.create seed in
  let acc = ref [] in
  (* MMPP on/off per service: exponential sojourns in a high-rate ON
     state and a low-rate OFF state, Poisson arrivals within each
     sojourn. Each service draws from its own split stream, so adding a
     service never perturbs the others. *)
  for svc = 0 to services - 1 do
    let rng = Sim.Prng.split master in
    let on = ref (Sim.Prng.bool rng) in
    let t = ref 0.0 in
    let k = ref 0 in
    while !t < duration_s do
      let mean_sojourn = if !on then mean_on else mean_off in
      let rate = if !on then rate_high else rate_low in
      let sojourn = Sim.Prng.exponential rng ~mean:mean_sojourn in
      let seg_end = Float.min duration_s (!t +. sojourn) in
      let k', acc' =
        poisson_segment rng ~svc ~rate ~seg_start:!t ~seg_end !k !acc
      in
      k := k';
      acc := acc';
      t := seg_end;
      on := not !on
    done
  done;
  finalize ~tname:(Printf.sprintf "bursty-s%d" seed) ~services !acc

(* Hour-by-hour shape of a day's demand, normalized to peak 1.0: a
   silent night trough (the consolidation opportunity an SLO-aware
   energy policy harvests), a morning ramp, a midday plateau, and an
   evening peak. *)
let day_shape =
  [|
    0.05; 0.00; 0.00; 0.00; 0.00; 0.00; 0.30; 0.50; 0.70; 0.85; 0.95; 1.00;
    1.00; 0.95; 0.90; 0.85; 0.80; 0.85; 0.95; 1.00; 0.90; 0.70; 0.50; 0.35;
  |]

let diurnal ?(peak_rps = 20.0) ?(day_s = 240.0) ~seed ~services ~days () =
  validate_diurnal ~peak_rps ~day_s ~services ~days;
  let master = Sim.Prng.create seed in
  let slot_s = day_s /. 24.0 in
  let acc = ref [] in
  for svc = 0 to services - 1 do
    let rng = Sim.Prng.split master in
    (* Per-service phase shift: services peak at different hours, which
       is what gives the SLO policy something to consolidate around. *)
    let phase = Sim.Prng.int rng 24 in
    let k = ref 0 in
    for slot = 0 to (days * 24) - 1 do
      let shape = day_shape.((slot + phase) mod 24) in
      let rate = peak_rps *. shape in
      let seg_start = float_of_int slot *. slot_s in
      let k', acc' =
        poisson_segment rng ~svc ~rate ~seg_start
          ~seg_end:(seg_start +. slot_s) !k !acc
      in
      k := k';
      acc := acc'
    done
  done;
  finalize ~tname:(Printf.sprintf "diurnal-s%d" seed) ~services !acc

(* Replayable trace files: a tagged header, then one "<at> <svc>" line
   per request in trace order ({!stream_to_file} writes them). Times are
   written as lossless hex floats ([%h]) so a round trip through disk
   reproduces the trace bit-identically; [float_of_string] also accepts
   plain decimals, so hand-written traces work too. *)
let bad_line path line msg =
  invalid_arg (Printf.sprintf "%s, line %d: %s" path line msg)

let parse_header path ic =
  let header =
    try input_line ic with End_of_file -> bad_line path 1 "empty file"
  in
  let services, tname =
    try
      Scanf.sscanf header "# hetmig-request-trace v1 services=%d name=%s"
        (fun s n -> (s, n))
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      bad_line path 1 "expected '# hetmig-request-trace v1 services=<n> name=<s>'"
  in
  if services < 1 then bad_line path 1 "services must be positive";
  (services, tname)

(* One [<at> <svc>] body line; [None] for blanks and [#] comments.
   [float_of_string] rather than Scanf's [%f]: it accepts both the
   lossless [%h] hex floats {!stream_to_file} writes and plain decimals
   from hand-written traces. *)
let parse_line path ~services ~line l =
  let l = String.trim l in
  if l = "" || l.[0] = '#' then None
  else begin
    let at, svc =
      match String.split_on_char ' ' l with
      | [ a; s ] -> begin
        try (float_of_string a, int_of_string s)
        with Failure _ -> bad_line path line "expected '<at> <svc>'"
      end
      | _ -> bad_line path line "expected '<at> <svc>'"
    in
    if Float.is_nan at || at < 0.0 then
      bad_line path line "arrival time must be non-negative";
    if svc < 0 || svc >= services then
      bad_line path line
        (Printf.sprintf "service %d outside [0, %d)" svc services);
    Some (at, svc)
  end

(* --- streaming traces -------------------------------------------------- *)

(* A stream is a one-shot cursor over a request sequence in canonical
   (at, svc) order with densely increasing rids. Pulling advances the
   cursor in place — no request records are materialized, so a
   million-request trace costs the same memory as a ten-request one.

   The generator streams reproduce the materialized generators' draw
   sequences exactly: each service owns an incremental MMPP/diurnal
   state machine drawing from the same split stream in the same order
   (including the discarded segment-overshoot draw), and a k-way merge
   on (at, svc) replays [finalize]'s sort order — per-service times are
   nondecreasing and per-service draw order is FIFO, so (at, svc)
   comparison alone reproduces the (at, svc, k) total order. *)

type stream = {
  sname : string;
  sservices : int;
  mutable remaining : int;  (* pulls left before cutoff; -1 = unlimited *)
  cur_at : float array;
      (* one cell: a mutable float field of this record would box on
         every pull *)
  mutable cur_svc : int;
  mutable cur_rid : int;  (* -1 before the first pull *)
  pull : stream -> bool;  (* advance the underlying cursor into cur_* *)
  sclose : unit -> unit;
}

let stream_name s = s.sname
let stream_services s = s.sservices
let at s = s.cur_at.(0)
let svc s = s.cur_svc
let rid s = s.cur_rid
let close_stream s = s.sclose ()

let next s =
  if s.remaining = 0 then false
  else if s.pull s then begin
    if s.remaining > 0 then s.remaining <- s.remaining - 1;
    s.cur_rid <- s.cur_rid + 1;
    true
  end
  else false

(* Per-service incremental generator state for the Poisson-segment
   generators. [seg] iterates segments (MMPP sojourns or diurnal
   slots); inside a segment [g_cand] holds the next already-drawn
   arrival candidate (drawing it before testing the segment boundary is
   what consumes the same overshoot draw the materialized code does).
   The floats live in an all-float record, which stores them flat, so
   advancing a generator boxes nothing. *)
type seg_floats = {
  mutable g_seg_end : float;
  mutable g_mean : float;  (* 1/rate of the current segment *)
  mutable g_cand : float;  (* next candidate arrival when in_seg *)
}

type seg_gen = {
  g_rng : Sim.Prng.t;
  mutable g_in_seg : bool;
  g_f : seg_floats;
  g_next_seg : seg_gen -> float option;
      (* open the next positive-rate segment: set g_seg_end/g_mean and
         return its start time, or None when the horizon is exhausted.
         Zero-rate segments are skipped inside the callback itself —
         the materialized generators draw nothing for them either. *)
}

let seg_gen g_rng g_next_seg =
  {
    g_rng;
    g_in_seg = false;
    g_f = { g_seg_end = 0.0; g_mean = 1.0; g_cand = 0.0 };
    g_next_seg;
  }

(* Advance one service's generator to its next arrival and write it to
   [cand.(i)], [infinity] at end of horizon (no finite-duration
   generator can produce it, so it doubles as the merge sentinel).
   Writing into the merge's slot instead of returning the float keeps
   it unboxed. Drawing the candidate before testing the segment
   boundary consumes the same overshoot draw the materialized
   [poisson_segment] does. *)
let rec seg_gen_next g cand i =
  let f = g.g_f in
  if g.g_in_seg then begin
    if f.g_cand < f.g_seg_end then begin
      let a = f.g_cand in
      cand.(i) <- a;
      f.g_cand <- a +. Sim.Prng.exponential g.g_rng ~mean:f.g_mean
    end
    else begin
      g.g_in_seg <- false;
      seg_gen_next g cand i
    end
  end
  else
    match g.g_next_seg g with
    | Some seg_start ->
      g.g_in_seg <- true;
      f.g_cand <- seg_start +. Sim.Prng.exponential g.g_rng ~mean:f.g_mean;
      seg_gen_next g cand i
    | None -> cand.(i) <- Float.infinity

(* k-way merge of per-service generators on (at, svc), through a
   winner tree. Candidate slots hold each service's next undelivered
   arrival ([infinity] once a service's horizon is exhausted —
   finite-duration generators can never produce it — and for the
   padding leaves up to the next power of two [p]). Node [k] of the
   tree holds the service that wins its subtree: leaves are nodes
   [p + i], children of [k] are [2k] and [2k + 1], the root is node 1.
   A pull takes the root's service, refills its slot and replays the
   matches on its leaf-to-root path, so it costs O(log services) with
   zero allocation. A match goes to the earlier arrival, and on an
   exact-time tie to the left subtree, whose services are lower: the
   lowest service id wins, matching [finalize]'s (at, svc, draw-order)
   sort. *)
let merged_stream ~sname ~services gens =
  let p =
    let rec up p = if p >= services then p else up (2 * p) in
    up 1
  in
  let cand = Array.make p Float.infinity in
  let win = Array.make (2 * p) 0 in
  let[@inline] play k =
    let l = win.(2 * k) and r = win.((2 * k) + 1) in
    win.(k) <- (if cand.(r) < cand.(l) then r else l)
  in
  for i = 0 to p - 1 do
    if i < services then seg_gen_next gens.(i) cand i;
    win.(p + i) <- i
  done;
  for k = p - 1 downto 1 do
    play k
  done;
  let pull s =
    let best = win.(1) in
    let best_at = cand.(best) in
    if best_at = Float.infinity then false
    else begin
      s.cur_at.(0) <- best_at;
      s.cur_svc <- best;
      seg_gen_next gens.(best) cand best;
      let k = ref ((p + best) / 2) in
      while !k >= 1 do
        play !k;
        k := !k / 2
      done;
      true
    end
  in
  {
    sname;
    sservices = services;
    remaining = -1;
    cur_at = [| 0.0 |];
    cur_svc = -1;
    cur_rid = -1;
    pull;
    sclose = (fun () -> ());
  }

(* Build per-service generators in strict service order (master-PRNG
   split order is part of the trace's identity). *)
let gens_in_order services make =
  let rec build svc acc =
    if svc >= services then Array.of_list (List.rev acc)
    else build (svc + 1) (make svc :: acc)
  in
  build 0 []

let stream_bursty ?(rate_high = 40.0) ?(rate_low = 2.0) ?(mean_on = 10.0)
    ?(mean_off = 30.0) ~seed ~services ~duration_s () =
  validate_bursty ~rate_high ~rate_low ~mean_on ~mean_off ~services
    ~duration_s;
  let master = Sim.Prng.create seed in
  let gens =
    gens_in_order services (fun _svc ->
        let rng = Sim.Prng.split master in
        let on = ref (Sim.Prng.bool rng) in
        let t = ref 0.0 in
        let rec next_seg g =
          if !t >= duration_s then None
          else begin
            let mean_sojourn = if !on then mean_on else mean_off in
            let rate = if !on then rate_high else rate_low in
            let sojourn = Sim.Prng.exponential g.g_rng ~mean:mean_sojourn in
            let seg_start = !t in
            let seg_end = Float.min duration_s (seg_start +. sojourn) in
            t := seg_end;
            on := not !on;
            if rate <= 0.0 then next_seg g
            else begin
              g.g_f.g_seg_end <- seg_end;
              g.g_f.g_mean <- 1.0 /. rate;
              Some seg_start
            end
          end
        in
        seg_gen rng next_seg)
  in
  merged_stream ~sname:(Printf.sprintf "bursty-s%d" seed) ~services gens

let stream_diurnal ?(peak_rps = 20.0) ?(day_s = 240.0) ~seed ~services ~days
    () =
  validate_diurnal ~peak_rps ~day_s ~services ~days;
  let master = Sim.Prng.create seed in
  let slot_s = day_s /. 24.0 in
  let gens =
    gens_in_order services (fun _svc ->
        let rng = Sim.Prng.split master in
        let phase = Sim.Prng.int rng 24 in
        let slot = ref 0 in
        let rec next_seg g =
          if !slot >= days * 24 then None
          else begin
            let shape = day_shape.((!slot + phase) mod 24) in
            let rate = peak_rps *. shape in
            let seg_start = float_of_int !slot *. slot_s in
            incr slot;
            if rate <= 0.0 then next_seg g
            else begin
              g.g_f.g_seg_end <- seg_start +. slot_s;
              g.g_f.g_mean <- 1.0 /. rate;
              Some seg_start
            end
          end
        in
        seg_gen rng next_seg)
  in
  merged_stream ~sname:(Printf.sprintf "diurnal-s%d" seed) ~services gens

(* Cursor over an already-materialized trace (no copying). *)
let stream_of_trace trace =
  let n = Array.length trace.requests in
  let i = ref 0 in
  let pull s =
    if !i >= n then false
    else begin
      let r = trace.requests.(!i) in
      incr i;
      s.cur_at.(0) <- r.at;
      s.cur_svc <- r.svc;
      true
    end
  in
  {
    sname = trace.tname;
    sservices = trace.services;
    remaining = -1;
    cur_at = [| 0.0 |];
    cur_svc = -1;
    cur_rid = -1;
    pull;
    sclose = (fun () -> ());
  }

(* Chunked replay: one line per pull, constant memory whatever the file
   size. The file must already be in canonical (at, svc) order — which
   everything {!stream_to_file} writes is — because a stream cannot
   re-sort what it has not read yet; out-of-order input raises. *)
let stream_of_file path =
  let ic = open_in path in
  let services, tname =
    try parse_header path ic
    with e ->
      close_in_noerr ic;
      raise e
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      close_in_noerr ic
    end
  in
  let line = ref 1 in
  let last_at = ref (-1.0) and last_svc = ref (-1) in
  let rec pull s =
    match input_line ic with
    | exception End_of_file ->
      close ();
      false
    | l ->
      incr line;
      (match parse_line path ~services ~line:!line l with
      | None -> pull s
      | Some (at, svc) ->
        if at < !last_at || (at = !last_at && svc < !last_svc) then
          bad_line path !line "trace not in canonical (at, svc) order";
        last_at := at;
        last_svc := svc;
        s.cur_at.(0) <- at;
        s.cur_svc <- svc;
        true)
  in
  {
    sname = tname;
    sservices = services;
    remaining = -1;
    cur_at = [| 0.0 |];
    cur_svc = -1;
    cur_rid = -1;
    pull;
    sclose = close;
  }

(* A [source] names a trace without holding it: generator parameters or
   a file path. Streams are one-shot stateful cursors, so anything that
   runs a trace more than once (e.g. a sequential-vs-islands
   comparison) keeps the source and re-opens a fresh stream per run. *)
type source =
  | Bursty of {
      rate_high : float;
      rate_low : float;
      mean_on : float;
      mean_off : float;
      seed : int;
      services : int;
      duration_s : float;
    }
  | Diurnal of {
      peak_rps : float;
      day_s : float;
      seed : int;
      services : int;
      days : int;
    }
  | Replay_file of string
  | Materialized of request_trace

let bursty_source ?(rate_high = 40.0) ?(rate_low = 2.0) ?(mean_on = 10.0)
    ?(mean_off = 30.0) ~seed ~services ~duration_s () =
  validate_bursty ~rate_high ~rate_low ~mean_on ~mean_off ~services
    ~duration_s;
  Bursty { rate_high; rate_low; mean_on; mean_off; seed; services; duration_s }

let diurnal_source ?(peak_rps = 20.0) ?(day_s = 240.0) ~seed ~services ~days
    () =
  validate_diurnal ~peak_rps ~day_s ~services ~days;
  Diurnal { peak_rps; day_s; seed; services; days }

let open_stream ?limit source =
  (match limit with
  | Some n when n < 0 -> invalid_arg "Arrival.open_stream: negative limit"
  | _ -> ());
  let s =
    match source with
    | Bursty p ->
      stream_bursty ~rate_high:p.rate_high ~rate_low:p.rate_low
        ~mean_on:p.mean_on ~mean_off:p.mean_off ~seed:p.seed
        ~services:p.services ~duration_s:p.duration_s ()
    | Diurnal p ->
      stream_diurnal ~peak_rps:p.peak_rps ~day_s:p.day_s ~seed:p.seed
        ~services:p.services ~days:p.days ()
    | Replay_file path -> stream_of_file path
    | Materialized trace -> stream_of_trace trace
  in
  (match limit with Some n -> s.remaining <- n | None -> ());
  s

let materialize ?limit source =
  let s = open_stream ?limit source in
  Fun.protect
    ~finally:(fun () -> close_stream s)
    (fun () ->
      let buf = ref [] in
      while next s do
        buf := { rid = rid s; svc = svc s; at = at s } :: !buf
      done;
      {
        tname = s.sname;
        services = s.sservices;
        requests = Array.of_list (List.rev !buf);
      })

let stream_to_file s path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# hetmig-request-trace v1 services=%d name=%s\n"
        s.sservices s.sname;
      while next s do
        Printf.fprintf oc "%h %d\n" (at s) (svc s)
      done)

let periodic ~seed ~waves ~max_per_wave =
  let rng = Sim.Prng.create seed in
  (* Sets differ widely in how full their waves are — from near-idle
     bursts to machine-filling ones — which is what spreads the per-set
     energy savings of Figure 13. *)
  let density =
    let u = Sim.Prng.float_in rng 0.0 1.0 in
    0.1 +. (0.9 *. u *. sqrt u)
  in
  let rec build wave time jid acc =
    if wave >= waves then List.rev acc
    else begin
      let target =
        max 1 (int_of_float (density *. float_of_int max_per_wave))
      in
      let count = max 1 (min max_per_wave (Sim.Prng.int_in rng (target - 1) (target + 1))) in
      let batch = List.init count (fun i -> draw_job rng (jid + i) time) in
      let gap = Sim.Prng.float_in rng 60.0 240.0 in
      build (wave + 1) (time +. gap) (jid + count) (List.rev_append batch acc)
    end
  in
  build 0 0.0 0 []
