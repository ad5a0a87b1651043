(* Conservative-lookahead parallel discrete-event runtime ("time
   islands", CMB-style).

   One simulation is split into [n] islands, each owning a private
   {!Calendar} (its event queue and clock) and a private PRNG stream
   split deterministically from the run seed. Islands may only touch
   island-local state from inside their actions; all cross-island
   causality flows through {!post}, which delivers an action to the
   destination island no earlier than [lookahead] simulated seconds
   after the sender's current time.

   Execution proceeds in windows. Each round:

     next        = min over islands of their earliest pending event
     window_end  = next + lookahead

   and every island executes all of its events with [time < window_end],
   in (time, seq, src) key order. This is safe: an event executing at
   time [t >= next] can only post cross-island work arriving at
   [t + after >= next + lookahead = window_end], i.e. strictly outside
   the current window — no island can ever receive an event earlier
   than something it already executed. Cross-island deliveries are
   staged in per-(src,dst) outboxes and merged into the destination
   calendars at the window barrier; because calendar keys are globally
   unique, merge order is irrelevant to execution order.

   Determinism: sequence numbers are drawn from per-island counters
   (advanced only by that island's own execution, which is sequential),
   PRNG streams are per-island, and the within-island execution order is
   the total key order — so a run is bit-identical whatever the domain
   count, and [domains:1] is the sequential reference execution of the
   same schedule. *)

(* --- audit capture ------------------------------------------------------ *)

(* A captured execution, consumed by the `hetmig audit` passes in
   lib/analysis. Recording is pure observation: it never perturbs the
   event schedule, so a captured run is byte-identical to a plain one.
   Each island appends only to its own buffers from its own lane, and
   the barrier snapshots are taken single-threaded at delivery time, so
   capture is race-free at any domain count and the merged capture is
   deterministic. *)

type touch_rec = { t_owner : int; t_resource : int; t_write : bool }

type exec_rec = {
  x_isl : int;  (* executing island *)
  x_time : float;
  x_seq : int;
  x_src : int;  (* source island of the event's key *)
  x_clock_before : float;  (* island clock before this event ran *)
  x_window : int;
  x_prng_before : int64;  (* island PRNG fingerprint around the event *)
  x_prng_after : int64;
  x_touches : touch_rec list;  (* ownership touches, program order *)
}

type post_rec = {
  p_src : int;
  p_dst : int;
  p_send_time : float;
  p_after : float;  (* the requested delay, exact (no float re-derivation) *)
  p_deliver_time : float;
  p_seq : int;
  p_window : int;
}

type barrier_rec = {
  b_window : int;
  b_from : float;  (* window start: global min pending event time *)
  b_until : float;  (* window end: from + lookahead *)
  b_prng : int64 array;  (* per-island PRNG fingerprints at the barrier *)
}

type capture = {
  c_islands : int;
  c_lookahead : float;  (* window lookahead: min over the edge matrix *)
  c_edge : float array array;
      (* per-(src,dst) minimum post delay; [||] = uniform c_lookahead *)
  c_prng0 : int64 array;  (* per-island PRNG fingerprints at creation *)
  c_execs : exec_rec list array;  (* per island, in execution order *)
  c_posts : post_rec list;  (* merged, (send_time, seq, src) order *)
  c_barriers : barrier_rec list;  (* window order *)
  c_calendar_violations : int;  (* summed calendar pop-order tripwires *)
}

type island_cap = {
  mutable k_execs : exec_rec list;  (* reversed *)
  mutable k_posts : post_rec list;  (* reversed *)
  mutable k_touches : touch_rec list;  (* current event's, reversed *)
}

type island = {
  id : int;
  n_islands : int;
  out_lookahead : float array;
      (* per-destination minimum post delay (uniform rows when no edge
         matrix was given) — the topology-aware post contract *)
  cal : (island -> unit) Calendar.t;
  mutable clock : float;
  mutable next_seq : int;
  prng : Prng.t;
  outboxes : outbox array;  (* staged posts, indexed by dest *)
  dirty : int array;  (* destinations with a non-empty outbox *)
  mutable dirty_n : int;
  mutable executed : int;
  cap : island_cap option;
  mutable cur_window : int;  (* window index while executing *)
}

(* One epoch's staged posts to a single destination, struct-of-arrays.
   The slots are recycled across windows (capacity grows by doubling,
   never shrinks), so a steady cross-island message rate stages and
   merges whole epochs of traffic with zero allocation — the batch-post
   path that keeps barrier cost amortized at millions-of-requests
   rates. The posting island's id is the array index in [outboxes] on
   the other side, so only (time, seq, act) is staged per message. *)
and outbox = {
  mutable o_times : float array;
  mutable o_seqs : int array;
  mutable o_acts : (island -> unit) array;
  mutable o_n : int;
}

type t = {
  lookahead : float;  (* window lookahead: min over all edges *)
  edge : float array array;  (* [||] when uniform *)
  islands : island array;
  mutable windows : int;
  cap_on : bool;
  prng0 : int64 array;  (* per-island fingerprints at creation (capture) *)
  mutable cap_barriers : barrier_rec list;  (* reversed *)
}

let noop_action (_ : island) = ()

(* Outboxes start with zero capacity: most (src,dst) pairs in a
   star-shaped topology (nodes <-> controller) never talk, and lazily
   growing only the live pairs keeps n^2 boxes cheap at fleet scale. *)
let empty_outbox () =
  { o_times = [||]; o_seqs = [||]; o_acts = [||]; o_n = 0 }

let outbox_grow box =
  let cap' = max 4 (Array.length box.o_times * 2) in
  let times' = Array.make cap' 0.0 in
  let seqs' = Array.make cap' 0 in
  let acts' = Array.make cap' noop_action in
  Array.blit box.o_times 0 times' 0 box.o_n;
  Array.blit box.o_seqs 0 seqs' 0 box.o_n;
  Array.blit box.o_acts 0 acts' 0 box.o_n;
  box.o_times <- times';
  box.o_seqs <- seqs';
  box.o_acts <- acts'

let create ?(capture = false) ?edge_lookahead ~islands:n
    ~lookahead ~seed () =
  if n < 1 then invalid_arg "Islands.create: need at least one island";
  if not (Float.is_finite lookahead) || lookahead <= 0.0 then
    invalid_arg "Islands.create: lookahead must be finite and positive";
  (* Per-edge minimum delays (topology-aware lookahead): entry (s, d) is
     the floor under posts from island s to island d. Every entry must
     be at least the scalar [lookahead]; the window advance then uses
     the matrix minimum, which is >= the scalar — windows can only grow
     wider, never unsafe (see DESIGN.md §7b). *)
  let edge =
    match edge_lookahead with
    | None -> [||]
    | Some m ->
      if Array.length m <> n then
        invalid_arg "Islands.create: edge_lookahead must be islands x islands";
      Array.iteri
        (fun s row ->
          if Array.length row <> n then
            invalid_arg
              "Islands.create: edge_lookahead must be islands x islands";
          Array.iteri
            (fun d l ->
              if s <> d && (not (Float.is_finite l) || l < lookahead) then
                invalid_arg
                  (Printf.sprintf
                     "Islands.create: edge lookahead %d -> %d is %g, below \
                      the base lookahead %g"
                     s d l lookahead))
            row)
        m;
      Array.map Array.copy m
  in
  let window_lookahead =
    if edge = [||] then lookahead
    else begin
      let acc = ref Float.infinity in
      Array.iteri
        (fun s row ->
          Array.iteri (fun d l -> if s <> d then acc := Float.min !acc l) row)
        edge;
      if !acc = Float.infinity then lookahead else !acc
    end
  in
  let master = Prng.create seed in
  let islands =
    Array.init n (fun id ->
        {
          id;
          n_islands = n;
          out_lookahead =
            (if edge = [||] then Array.make n lookahead
             else Array.copy edge.(id));
          cal = Calendar.create ~check_order:capture ~dummy:noop_action ();
          clock = 0.0;
          next_seq = 0;
          prng = Prng.split master;
          outboxes = Array.init n (fun _ -> empty_outbox ());
          dirty = Array.make n 0;
          dirty_n = 0;
          executed = 0;
          cap =
            (if capture then
               Some { k_execs = []; k_posts = []; k_touches = [] }
             else None);
          cur_window = 0;
        })
  in
  let prng0 =
    if capture then Array.map (fun isl -> Prng.fingerprint isl.prng) islands
    else [||]
  in
  { lookahead = window_lookahead; edge; islands; windows = 0; cap_on = capture;
    prng0; cap_barriers = [] }

let island t id = t.islands.(id)
let id isl = isl.id
let now isl = isl.clock
let prng isl = isl.prng

let schedule isl ~at act =
  if at < isl.clock then
    invalid_arg
      (Printf.sprintf "Islands.schedule: at=%g is before island %d now=%g" at
         isl.id isl.clock);
  Calendar.push isl.cal ~time:at ~src:isl.id ~seq:isl.next_seq act;
  isl.next_seq <- isl.next_seq + 1

let schedule_in isl ~after act = schedule isl ~at:(isl.clock +. after) act

let post isl ~dst ~after act =
  if dst < 0 || dst >= isl.n_islands then
    invalid_arg (Printf.sprintf "Islands.post: unknown island %d" dst);
  if after < isl.out_lookahead.(dst) then
    invalid_arg
      (Printf.sprintf
         "Islands.post: delay %g violates the lookahead %g (island %d -> %d)"
         after isl.out_lookahead.(dst) isl.id dst);
  if dst = isl.id then schedule_in isl ~after act
  else begin
    let box = isl.outboxes.(dst) in
    if box.o_n = 0 then begin
      isl.dirty.(isl.dirty_n) <- dst;
      isl.dirty_n <- isl.dirty_n + 1
    end;
    if box.o_n = Array.length box.o_times then outbox_grow box;
    let i = box.o_n in
    box.o_times.(i) <- isl.clock +. after;
    box.o_seqs.(i) <- isl.next_seq;
    box.o_acts.(i) <- act;
    box.o_n <- i + 1;
    (match isl.cap with
    | None -> ()
    | Some cap ->
        cap.k_posts <-
          {
            p_src = isl.id;
            p_dst = dst;
            p_send_time = isl.clock;
            p_after = after;
            p_deliver_time = isl.clock +. after;
            p_seq = isl.next_seq;
            p_window = isl.cur_window;
          }
          :: cap.k_posts);
    isl.next_seq <- isl.next_seq + 1
  end

(* Ownership observer hook for the audit layer: models (Sched.Cluster,
   Sched.Service) tag touches of island-owned mutable state with the
   owning island and a resource id. Touches are attached to the event
   being executed, in program order; outside a capture this is one
   branch. Touches made outside any event (setup code before {!run})
   are dropped — setup is single-threaded by construction. *)
let touch isl ~owner ~resource ~write =
  match isl.cap with
  | None -> ()
  | Some cap ->
      cap.k_touches <-
        { t_owner = owner; t_resource = resource; t_write = write }
        :: cap.k_touches

(* Run one island up to (strictly before) [until]. Actions may push more
   local events inside the window; the loop drains them in key order. *)
let run_island_window isl ~window ~until =
  let cal = isl.cal in
  isl.cur_window <- window;
  let continue = ref true in
  while !continue do
    if Calendar.size cal = 0 || Calendar.min_time cal >= until then
      continue := false
    else begin
      let act = Calendar.pop cal in
      let clock_before = isl.clock in
      isl.clock <- Calendar.last_time cal;
      isl.executed <- isl.executed + 1;
      match isl.cap with
      | None -> act isl
      | Some cap ->
          let time = Calendar.last_time cal
          and seq = Calendar.last_seq cal
          and src = Calendar.last_src cal in
          cap.k_touches <- [];
          let prng_before = Prng.fingerprint isl.prng in
          act isl;
          cap.k_execs <-
            {
              x_isl = isl.id;
              x_time = time;
              x_seq = seq;
              x_src = src;
              x_clock_before = clock_before;
              x_window = window;
              x_prng_before = prng_before;
              x_prng_after = Prng.fingerprint isl.prng;
              x_touches = List.rev cap.k_touches;
            }
            :: cap.k_execs
    end
  done

let next_time t =
  Array.fold_left
    (fun acc isl -> Float.min acc (Calendar.min_time isl.cal))
    Float.infinity t.islands

(* Merge every staged cross-island message into its destination
   calendar. Runs only at window barriers, single-threaded. Each
   sender's dirty list names exactly the non-empty boxes, so the merge
   cost is proportional to traffic, not to the n^2 box matrix; action
   slots are nulled out after the push so recycled boxes never retain
   closures across windows. *)
let deliver t =
  Array.iter
    (fun src ->
      for k = 0 to src.dirty_n - 1 do
        let dst = src.dirty.(k) in
        let box = src.outboxes.(dst) in
        let cal = t.islands.(dst).cal in
        for i = 0 to box.o_n - 1 do
          Calendar.push cal ~time:box.o_times.(i) ~src:src.id
            ~seq:box.o_seqs.(i) box.o_acts.(i);
          box.o_acts.(i) <- noop_action
        done;
        box.o_n <- 0
      done;
      src.dirty_n <- 0)
    t.islands

(* Barrier-time capture snapshot: window bounds plus every island's PRNG
   fingerprint. Runs single-threaded after [deliver], so reading the
   island streams is race-free. *)
let record_barrier t ~from ~until =
  if t.cap_on then
    t.cap_barriers <-
      {
        b_window = t.windows;
        b_from = from;
        b_until = until;
        b_prng = Array.map (fun isl -> Prng.fingerprint isl.prng) t.islands;
      }
      :: t.cap_barriers

(* One lane's share of a window: islands [k], [k + d], [k + 2d], ... *)
let run_lane t ~d k ~window ~until =
  let i = ref k in
  while !i < Array.length t.islands do
    run_island_window t.islands.(!i) ~window ~until;
    i := !i + d
  done

(* Parallel lanes: [d - 1] persistent worker domains plus the calling
   domain as lane 0. Each window is handed to the workers under a
   mutex/condition barrier; the islands are disjoint, so lanes never
   contend on simulation state. Returns the per-window step, which
   re-raises the first lane failure once every lane has stopped, and
   the shutdown. *)
let parallel_lanes t d =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let round = ref 0 in
  let window = ref 0 in
  let until = ref 0.0 in
  let stop = ref false in
  let done_workers = ref 0 in
  let failure = ref None in
  let guarded k ~window ~until =
    try run_lane t ~d k ~window ~until
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock m;
      if !failure = None then failure := Some (exn, bt);
      Mutex.unlock m
  in
  let worker k () =
    let my_round = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock m;
      while !round = !my_round && not !stop do
        Condition.wait cv m
      done;
      if !stop then begin
        Mutex.unlock m;
        continue := false
      end
      else begin
        my_round := !round;
        let window = !window and until = !until in
        Mutex.unlock m;
        guarded k ~window ~until;
        Mutex.lock m;
        incr done_workers;
        Condition.broadcast cv;
        Mutex.unlock m
      end
    done
  in
  let workers = Array.init (d - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  let step ~window:w ~until:u =
    Mutex.lock m;
    window := w;
    until := u;
    done_workers := 0;
    incr round;
    Condition.broadcast cv;
    Mutex.unlock m;
    guarded 0 ~window:w ~until:u;
    Mutex.lock m;
    while !done_workers < d - 1 do
      Condition.wait cv m
    done;
    let failed = !failure in
    Mutex.unlock m;
    match failed with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  in
  let shutdown () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    Array.iter Domain.join workers
  in
  (step, shutdown)

(* The window loop, whatever the domain count: only the per-window lane
   step differs, and the sequential step (one lane, the calling domain)
   takes no lock. *)
let run ?(domains = 1) t =
  let d = min domains (Array.length t.islands) in
  let step, shutdown =
    if d <= 1 then (run_lane t ~d:1 0, ignore) else parallel_lanes t d
  in
  Fun.protect ~finally:shutdown @@ fun () ->
  let continue = ref true in
  while !continue do
    let next = next_time t in
    if next = Float.infinity then continue := false
    else begin
      let until = next +. t.lookahead in
      step ~window:t.windows ~until;
      deliver t;
      record_barrier t ~from:next ~until;
      t.windows <- t.windows + 1
    end
  done

let events_executed t =
  Array.fold_left (fun acc isl -> acc + isl.executed) 0 t.islands

let windows t = t.windows

(* Assemble the merged capture. Per-island exec logs are kept in TRUE
   execution order (not re-sorted): each island's execution is
   sequential and deterministic, so the order is reproducible, and
   re-sorting would erase exactly the out-of-order evidence the
   schedule checker exists to find. Posts are merged across islands on
   their globally-unique (send_time, seq, src) key so the merged list
   is deterministic whatever the domain count. *)
let capture t =
  if not t.cap_on then None
  else
    let posts =
      Array.fold_left
        (fun acc isl ->
          match isl.cap with
          | None -> acc
          | Some cap -> List.rev_append cap.k_posts acc)
        [] t.islands
    in
    let posts =
      List.sort
        (fun a b ->
          match Float.compare a.p_send_time b.p_send_time with
          | 0 -> begin
            match compare a.p_seq b.p_seq with
            | 0 -> compare a.p_src b.p_src
            | c -> c
          end
          | c -> c)
        posts
    in
    Some
      {
        c_islands = Array.length t.islands;
        c_lookahead = t.lookahead;
        c_edge = Array.map Array.copy t.edge;
        c_prng0 = Array.copy t.prng0;
        c_execs =
          Array.map
            (fun isl ->
              match isl.cap with
              | None -> []
              | Some cap -> List.rev cap.k_execs)
            t.islands;
        c_posts = posts;
        c_barriers = List.rev t.cap_barriers;
        c_calendar_violations =
          Array.fold_left
            (fun acc isl -> acc + Calendar.order_violations isl.cal)
            0 t.islands;
      }
