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
   in (time, seq, src) key order. Only the islands with such an event
   run: a window costs a scan of the islands' head times plus the work
   of the active islands and their messages. This is safe: an event
   executing at time [t >= next] can only post cross-island work
   arriving at [t + after >= next + lookahead = window_end], i.e.
   strictly outside the current window — no island can ever receive an
   event earlier than something it already executed. So a window that
   runs on one lane (every window at [domains:1], an inline window at
   [domains >= 2], and set-up code outside [run]) pushes each post
   straight into its destination's calendar: the event lies beyond the
   window's end, so no island runs it before the window closes. Only a
   window whose lanes run in parallel stages its posts, in one buffer
   per sending island, each post tagged with its destination, and
   pushes them into the destination calendars at the window barrier;
   because calendar keys are globally unique, push order is irrelevant
   to execution order.

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

type exec_rec = {
  x_isl : int;  (* executing island *)
  x_time : float;
  x_seq : int;
  x_src : int;  (* source island of the event's key *)
  x_clock_before : float;  (* island clock before this event ran *)
  x_window : int;
  x_prng_before : int64;  (* island PRNG fingerprint around the event *)
  x_prng_after : int64;
  x_touches : int list;  (* owners of the state it touched, program order *)
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
  mutable k_touches : int list;  (* current event's owners, reversed *)
}

type island = {
  id : int;
  rt : t;
  out_lookahead : float array;
      (* per-destination minimum post delay — the topology-aware post
         contract: this island's row of the edge matrix, or the one
         uniform row every island shares *)
  cal : (island -> unit) Calendar.t;
  clock : float array;
      (* one cell, as [Calendar.last_time]: a mutable float field of this
         record would box on every event *)
  mutable next_seq : int;
  prng : Prng.t;
  staged : staging;  (* a lane-parallel window's cross-island posts *)
  mutable executed : int;
  cap : island_cap option;
  mutable cur_window : int;  (* window index while executing *)
}

(* One lane-parallel window's cross-island posts from a single island,
   in post order, struct-of-arrays with a destination lane. The slots
   are recycled across windows (capacity grows by doubling, never
   shrinks), so a steady cross-island message rate stages and delivers
   whole epochs of traffic with zero allocation. The sender is the
   island that owns the buffer, so (time, seq, dst, act) is staged per
   message, and the memory is O(islands + traffic). *)
and staging = {
  mutable s_times : float array;
  mutable s_seqs : int array;
  mutable s_dsts : int array;
  mutable s_acts : (island -> unit) array;
  mutable s_n : int;
}

and t = {
  lookahead : float;  (* window lookahead: min over all edges *)
  edge : float array array;  (* [||] when uniform *)
  mutable islands : island array;  (* set once, right after [create] *)
  heads : float array;
      (* each island's earliest pending event time, [infinity] when its
         calendar is empty; exact at every window start (see [run]) *)
  active : int array;  (* the window's islands with work, ascending *)
  mutable n_active : int;
  mutable windows : int;
  mutable staging : bool;
      (* a window's lanes are running in parallel: posts stage until its
         barrier. Off everywhere else, so a post delivers in place. *)
  cap_on : bool;
  prng0 : int64 array;  (* per-island fingerprints at creation (capture) *)
  mutable cap_barriers : barrier_rec list;  (* reversed *)
}

let noop_action (_ : island) = ()

let empty_staging () =
  { s_times = [||]; s_seqs = [||]; s_dsts = [||]; s_acts = [||]; s_n = 0 }

let staging_grow st =
  let cap' = max 4 (Array.length st.s_times * 2) in
  let times' = Array.make cap' 0.0 in
  let seqs' = Array.make cap' 0 in
  let dsts' = Array.make cap' 0 in
  let acts' = Array.make cap' noop_action in
  Array.blit st.s_times 0 times' 0 st.s_n;
  Array.blit st.s_seqs 0 seqs' 0 st.s_n;
  Array.blit st.s_dsts 0 dsts' 0 st.s_n;
  Array.blit st.s_acts 0 acts' 0 st.s_n;
  st.s_times <- times';
  st.s_seqs <- seqs';
  st.s_dsts <- dsts';
  st.s_acts <- acts'

let create ?(capture = false) ?edge_lookahead ~islands:n
    ~lookahead ~seed () =
  if n < 1 then invalid_arg "Islands.create: need at least one island";
  if not (Float.is_finite lookahead) || lookahead <= 0.0 then
    invalid_arg "Islands.create: lookahead must be finite and positive";
  (* Per-edge minimum delays (topology-aware lookahead): entry (s, d) is
     the floor under posts from island s to island d. Every entry must
     be at least the scalar [lookahead]; the window advance then uses
     the matrix minimum, which is >= the scalar — windows can only grow
     wider, never unsafe (see DESIGN.md §7b). The matrix is kept as
     given, and the scans below allocate nothing, so set-up costs
     O(islands) memory whether or not a matrix is passed. *)
  let edge =
    match edge_lookahead with
    | None -> [||]
    | Some m ->
      let not_square () =
        invalid_arg "Islands.create: edge_lookahead must be islands x islands"
      in
      if Array.length m <> n then not_square ();
      for s = 0 to n - 1 do
        let row = m.(s) in
        if Array.length row <> n then not_square ();
        for d = 0 to n - 1 do
          let l = row.(d) in
          if s <> d && (not (Float.is_finite l) || l < lookahead) then
            invalid_arg
              (Printf.sprintf
                 "Islands.create: edge lookahead %d -> %d is %g, below the \
                  base lookahead %g"
                 s d l lookahead)
        done
      done;
      m
  in
  let window_lookahead =
    if edge = [||] then lookahead
    else begin
      (* Every off-diagonal entry is finite, so [<] is [Float.min]. *)
      let acc = ref Float.infinity in
      for s = 0 to n - 1 do
        let row = edge.(s) in
        for d = 0 to n - 1 do
          if s <> d && row.(d) < !acc then acc := row.(d)
        done
      done;
      if !acc = Float.infinity then lookahead else !acc
    end
  in
  let uniform = if edge = [||] then Array.make n lookahead else [||] in
  let master = Prng.create seed in
  let t =
    { lookahead = window_lookahead; edge; islands = [||];
      heads = Array.make n Float.infinity; active = Array.make n 0;
      n_active = 0; windows = 0; staging = false; cap_on = capture;
      prng0 = (if capture then Array.make n 0L else [||]); cap_barriers = [] }
  in
  t.islands <-
    Array.init n (fun id ->
        {
          id;
          rt = t;
          out_lookahead = (if edge = [||] then uniform else edge.(id));
          cal = Calendar.create ~check_order:capture ~dummy:noop_action ();
          clock = [| 0.0 |];
          next_seq = 0;
          prng = Prng.split master;
          staged = empty_staging ();
          executed = 0;
          cap =
            (if capture then
               Some { k_execs = []; k_posts = []; k_touches = [] }
             else None);
          cur_window = 0;
        });
  if capture then
    Array.iteri (fun i isl -> t.prng0.(i) <- Prng.fingerprint isl.prng) t.islands;
  t

let island t id = t.islands.(id)
let id isl = isl.id
let[@inline] now isl = isl.clock.(0)
let prng isl = isl.prng

let schedule isl ~at act =
  if at < now isl then
    invalid_arg
      (Printf.sprintf "Islands.schedule: at=%g is before island %d now=%g" at
         isl.id (now isl));
  Calendar.push isl.cal ~time:at ~src:isl.id ~seq:isl.next_seq act;
  isl.next_seq <- isl.next_seq + 1

let schedule_in isl ~after act = schedule isl ~at:(now isl +. after) act

let stage st ~time ~seq ~dst act =
  if st.s_n = Array.length st.s_times then staging_grow st;
  let i = st.s_n in
  st.s_times.(i) <- time;
  st.s_seqs.(i) <- seq;
  st.s_dsts.(i) <- dst;
  st.s_acts.(i) <- act;
  st.s_n <- i + 1

(* Push one cross-island event into its destination's calendar and lower
   the destination's head time to it: a post outside a lane-parallel
   window, and the barrier's delivery of a staged one. *)
let push_to t ~dst ~time ~src ~seq act =
  Calendar.push t.islands.(dst).cal ~time ~src ~seq act;
  if time < t.heads.(dst) then t.heads.(dst) <- time

let record_post cap isl ~dst ~after ~time =
  cap.k_posts <-
    {
      p_src = isl.id;
      p_dst = dst;
      p_send_time = now isl;
      p_after = after;
      p_deliver_time = time;
      p_seq = isl.next_seq;
      p_window = isl.cur_window;
    }
    :: cap.k_posts

let post isl ~dst ~after act =
  let rt = isl.rt in
  if dst < 0 || dst >= Array.length rt.islands then
    invalid_arg (Printf.sprintf "Islands.post: unknown island %d" dst);
  if after < isl.out_lookahead.(dst) then
    invalid_arg
      (Printf.sprintf
         "Islands.post: delay %g violates the lookahead %g (island %d -> %d)"
         after isl.out_lookahead.(dst) isl.id dst);
  if dst = isl.id then schedule_in isl ~after act
  else begin
    let time = now isl +. after and seq = isl.next_seq in
    if rt.staging then stage isl.staged ~time ~seq ~dst act
    else push_to rt ~dst ~time ~src:isl.id ~seq act;
    (match isl.cap with
    | None -> ()
    | Some cap -> record_post cap isl ~dst ~after ~time);
    isl.next_seq <- seq + 1
  end

(* Ownership observer hook for the audit layer: models (Sched.Cluster,
   Sched.Service) tag each touch of island-owned mutable state with the
   island that owns it. Touches are attached to the event being
   executed, in program order; outside a capture this is one branch.
   Touches made outside any event (setup code before {!run}) are
   dropped — setup is single-threaded by construction. *)
let touch isl ~owner =
  match isl.cap with
  | None -> ()
  | Some cap -> cap.k_touches <- owner :: cap.k_touches

(* Run one island up to (strictly before) [until]. Actions may push more
   local events inside the window; the loop drains them in key order
   with one [Calendar.pop_before] per event. Returns the number of
   events run. *)
let run_island_window isl ~window ~until =
  let cal = isl.cal in
  isl.cur_window <- window;
  let before = isl.executed in
  let continue = ref true in
  while !continue do
    let act = Calendar.pop_before cal until in
    if act == noop_action then continue := false
    else begin
      let clock_before = isl.clock.(0) in
      isl.clock.(0) <- Calendar.last_time cal;
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
  done;
  isl.executed - before

(* The next window's start: the earliest head time. *)
let next_time t =
  let heads = t.heads in
  let next = ref Float.infinity in
  for i = 0 to Array.length heads - 1 do
    if heads.(i) < !next then next := heads.(i)
  done;
  !next

(* The islands with an event before [until], in ascending id order:
   the only ones the window runs. *)
let collect_active t ~until =
  let heads = t.heads and active = t.active in
  let n = ref 0 in
  for i = 0 to Array.length heads - 1 do
    if heads.(i) < until then begin
      active.(!n) <- i;
      incr n
    end
  done;
  t.n_active <- !n

(* A lane-parallel window's barrier delivery, single-threaded: every
   message an active island staged goes to its destination's calendar.
   Only an island that ran can have staged, so the cost is one visit
   per active island plus one push per message. Calendar keys are
   unique, so the push order cannot change the pop order. Action slots
   are nulled out after the push so recycled buffers never retain
   closures across windows. *)
let deliver t =
  for k = 0 to t.n_active - 1 do
    let src = t.islands.(t.active.(k)) in
    let st = src.staged in
    for i = 0 to st.s_n - 1 do
      push_to t ~dst:st.s_dsts.(i) ~time:st.s_times.(i) ~src:src.id
        ~seq:st.s_seqs.(i) st.s_acts.(i);
      st.s_acts.(i) <- noop_action
    done;
    st.s_n <- 0
  done

(* Barrier-time capture snapshot: window bounds plus every island's PRNG
   fingerprint. Runs single-threaded after the window's lanes stopped,
   so reading the island streams is race-free. *)
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

(* One lane's share of a window: the active islands [k], [k + d],
   [k + 2d], ... Each refreshes its own head time after its window
   (lanes write disjoint slots). Returns the events the lane ran. *)
let run_lane t ~d k ~window ~until =
  let events = ref 0 in
  let j = ref k in
  while !j < t.n_active do
    let isl = t.islands.(t.active.(!j)) in
    events := !events + run_island_window isl ~window ~until;
    t.heads.(isl.id) <- Calendar.min_time isl.cal;
    j := !j + d
  done;
  !events

(* Parallel lanes: [d - 1] persistent worker domains plus the calling
   domain as lane 0. Each window is handed to the workers under a
   mutex/condition barrier; the islands are disjoint, so lanes never
   contend on simulation state. While they run, posts stage
   ([t.staging]); the mutex orders the flag's writes around the lanes'
   reads. Returns the per-window step, which delivers the staged posts
   once every lane has stopped, then re-raises the first lane failure
   or returns the events the window ran, and the shutdown. *)
let parallel_lanes t d =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let round = ref 0 in
  let window = ref 0 in
  let until = ref 0.0 in
  let stop = ref false in
  let done_workers = ref 0 in
  let failure = ref None in
  let events = Array.make d 0 in
  let guarded k ~window ~until =
    try events.(k) <- run_lane t ~d k ~window ~until
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
    t.staging <- true;
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
    t.staging <- false;
    Mutex.unlock m;
    deliver t;
    match failed with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> Array.fold_left ( + ) 0 events
  in
  let shutdown () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    Array.iter Domain.join workers
  in
  (step, shutdown)

(* With [d > 1], a window runs on the calling domain, without waking
   the other lanes, when it has a single active island or when the
   window before it ran fewer than this many events: the barrier's
   hand-off then costs more than the window's work. perfbench's traffic
   places the constant between serve-diurnal's 15.8 events per window
   and serve-burst's 229 (cluster: 722). No byte depends on which lane
   runs an island. *)
let thin_window_events = 64

(* The window loop, whatever the domain count: only the per-window lane
   step differs, and the inline step (one lane, the calling domain)
   takes no lock and stages nothing.

   Head times: [t.heads.(i)] equals island [i]'s earliest pending time
   at every window start. It is rebuilt from the calendars when [run]
   starts (set-up code may have scheduled from outside any action),
   each island refreshes its own entry after its window, and every push
   into another island's calendar lowers that island's entry: a post
   in place, or the barrier's delivery after a lane-parallel window. An
   idle island's calendar changes only through such pushes, so a window
   costs a scan of [heads] plus the active islands' work. *)
let run ?(domains = 1) t =
  let d = min domains (Array.length t.islands) in
  let inline = run_lane t ~d:1 0 in
  let step, shutdown =
    if d <= 1 then (inline, ignore) else parallel_lanes t d
  in
  Fun.protect ~finally:shutdown @@ fun () ->
  Array.iteri (fun i isl -> t.heads.(i) <- Calendar.min_time isl.cal) t.islands;
  let last_events = ref 0 in
  let continue = ref true in
  while !continue do
    let next = next_time t in
    if next = Float.infinity then continue := false
    else begin
      let until = next +. t.lookahead in
      collect_active t ~until;
      let window = t.windows in
      last_events :=
        if t.n_active <= 1 || !last_events < thin_window_events then
          inline ~window ~until
        else step ~window ~until;
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
