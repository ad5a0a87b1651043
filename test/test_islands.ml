(* The parallel event core: keyed calendars, the time-island runtime,
   and the cluster core built on it. The load-bearing property
   throughout is determinism — the (time, seq, src) total order makes a
   run a pure function of its configuration, never of the domain
   count. *)

let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

(* --- Calendar ---------------------------------------------------------- *)

let calendar_pop_order () =
  let keys =
    [ (2.0, 1, 0); (1.0, 0, 0); (1.0, 0, 1); (1.0, 1, 0); (3.0, 0, 2);
      (2.0, 0, 1) ]
  in
  let drain order =
    let cal = Sim.Calendar.create ~dummy:(-1) () in
    List.iteri
      (fun i (time, seq, src) -> Sim.Calendar.push cal ~time ~src ~seq i)
      order;
    List.init (List.length order) (fun _ ->
        let v = Sim.Calendar.pop cal in
        (Sim.Calendar.last_time cal, Sim.Calendar.last_seq cal,
         Sim.Calendar.last_src cal, v))
  in
  let popped = drain keys in
  let popped_keys = List.map (fun (t, q, s, _) -> (t, q, s)) popped in
  check
    (Alcotest.list (Alcotest.triple (Alcotest.float 0.0) Alcotest.int Alcotest.int))
    "(time, seq, src) total order"
    [ (1.0, 0, 0); (1.0, 0, 1); (1.0, 1, 0); (2.0, 0, 1); (2.0, 1, 0);
      (3.0, 0, 2) ]
    popped_keys;
  (* Push order is irrelevant: reversed input, same pop keys. *)
  let rev = List.map (fun (t, q, s, _) -> (t, q, s)) (drain (List.rev keys)) in
  checkb "push-order invariant" true (popped_keys = rev)

let calendar_empty () =
  let cal = Sim.Calendar.create ~dummy:0 () in
  checkb "empty" true (Sim.Calendar.is_empty cal);
  checkb "min_time infinity" true (Sim.Calendar.min_time cal = Float.infinity);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Calendar.pop: empty") (fun () ->
      ignore (Sim.Calendar.pop cal))

(* [pop_before] is [pop] guarded by a strict [time < until] test: it
   answers [dummy] (physically) on an empty calendar and on a head at
   or after [until], popping nothing, and otherwise pops exactly what
   [pop] would, with the same popped key. *)
let calendar_pop_before () =
  let dummy = ref (-1) in
  let cal = Sim.Calendar.create ~dummy () in
  checkb "empty: dummy" true (Sim.Calendar.pop_before cal 10.0 == dummy);
  let twin = Sim.Calendar.create ~dummy () in
  List.iter
    (fun (time, seq, src) ->
      let v = ref seq in
      Sim.Calendar.push cal ~time ~src ~seq v;
      Sim.Calendar.push twin ~time ~src ~seq v)
    [ (2.0, 4, 1); (1.0, 3, 0); (1.0, 2, 1) ];
  checkb "head exactly at until: dummy" true
    (Sim.Calendar.pop_before cal 1.0 == dummy);
  checki "head exactly at until: nothing popped" 3 (Sim.Calendar.size cal);
  let key c =
    (Sim.Calendar.last_time c, Sim.Calendar.last_seq c, Sim.Calendar.last_src c)
  in
  let same_pop () =
    let a = Sim.Calendar.pop_before cal 2.0 in
    let b = Sim.Calendar.pop twin in
    a == b && key cal = key twin
  in
  checkb "first pop as pop's, same key" true (same_pop ());
  checkb "second pop as pop's, same key" true (same_pop ());
  checkb "head at until again: dummy" true
    (Sim.Calendar.pop_before cal 2.0 == dummy);
  checkb "popped key kept" true (key cal = (1.0, 3, 0));
  checkb "later until pops the rest" true
    (Sim.Calendar.pop_before cal 2.5 != dummy && Sim.Calendar.is_empty cal)

(* QCheck: draining window by window with [pop_before] gives [pop]'s
   order, key by key, for any push sequence. Each window ends a random
   whole number of quarter steps past its head, so window ends often
   fall exactly on a pending key. *)
let qcheck_calendar_pop_before =
  QCheck.Test.make ~name:"calendar: pop_before drains in pop's order"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 200)
           (triple (int_bound 50) (int_bound 20) (int_bound 7)))
        (int_bound 10_000))
    (fun (keys, seed) ->
      let fill () =
        let cal = Sim.Calendar.create ~dummy:(-1) () in
        List.iteri
          (fun i (t, seq, src) ->
            Sim.Calendar.push cal ~time:(float_of_int t /. 4.0) ~src ~seq i)
          keys;
        cal
      in
      let key c v =
        (Sim.Calendar.last_time c, Sim.Calendar.last_seq c,
         Sim.Calendar.last_src c, v)
      in
      let by_pop =
        let cal = fill () in
        List.init (Sim.Calendar.size cal) (fun _ ->
            let v = Sim.Calendar.pop cal in
            key cal v)
      in
      let by_window =
        let cal = fill () and rng = Sim.Prng.create seed in
        let out = ref [] in
        while not (Sim.Calendar.is_empty cal) do
          let until =
            Sim.Calendar.min_time cal
            +. (0.25 *. float_of_int (1 + Sim.Prng.int rng 8))
          in
          let continue = ref true in
          while !continue do
            let v = Sim.Calendar.pop_before cal until in
            if v == -1 then continue := false else out := key cal v :: !out
          done
        done;
        List.rev !out
      in
      by_pop = by_window)

(* QCheck: random interleaved pushes and pops against a sorted-list
   model. Operations come in phases of 300: in even phases seven in
   eight are pushes, in odd phases seven in eight are pops. So the live
   count climbs past the 64-slot growth and the 128-slot one, falls
   back below 64, and climbs again on reused slots. Times and seqs come
   from small ranges, so keys often tie on both and only [src] (the
   push index, which keeps every key unique) orders them. Each pop must
   return the model's minimum key with the very payload pushed under
   it, and the calendar's size must follow the model's. *)
let qcheck_calendar_model =
  QCheck.Test.make ~name:"calendar: interleaved push/pop matches a sorted list"
    ~count:50
    QCheck.(
      list_of_size Gen.(600 -- 1200)
        (triple (int_bound 7) (int_bound 12) (int_bound 3)))
    (fun ops ->
      let cal = Sim.Calendar.create ~dummy:(ref (-1)) () in
      let model = ref [] in
      let pushes = ref 0 and peak = ref 0 in
      let pop_one () =
        match !model with
        | [] -> true
        | (key, payload) :: rest ->
          model := rest;
          let v = Sim.Calendar.pop cal in
          v == payload
          && ( Sim.Calendar.last_time cal,
               Sim.Calendar.last_seq cal,
               Sim.Calendar.last_src cal )
             = key
      in
      let push t seq =
        let time = float_of_int t /. 2.0 and src = !pushes in
        let payload = ref src in
        incr pushes;
        Sim.Calendar.push cal ~time ~src ~seq payload;
        model :=
          List.merge
            (fun (a, _) (b, _) -> compare a b)
            !model
            [ ((time, seq, src), payload) ]
      in
      let ok =
        List.for_all
          (fun (i, (op, t, seq)) ->
            let ok =
              if (op = 0) = (i / 300 mod 2 = 0) then pop_one ()
              else begin
                push t seq;
                true
              end
            in
            peak := max !peak (Sim.Calendar.size cal);
            ok && Sim.Calendar.size cal = List.length !model)
          (List.mapi (fun i op -> (i, op)) ops)
      in
      let rec drain () = !model = [] || (pop_one () && drain ()) in
      ok && drain () && Sim.Calendar.is_empty cal && !peak > 128)

(* A popped payload is not retained: the calendar resets the slot it
   frees to [dummy], so once the caller drops a popped value the GC
   reclaims it, while the payloads still pending stay reachable. *)
let calendar_releases_popped () =
  let n = 100 and popped = 10 in
  let cal = Sim.Calendar.create ~dummy:(ref (-1)) () in
  let watch = Weak.create n in
  let[@inline never] fill () =
    for i = 0 to n - 1 do
      let r = ref i in
      Weak.set watch i (Some r);
      Sim.Calendar.push cal ~time:(float_of_int (n - i)) ~src:0 ~seq:i r
    done
  in
  let[@inline never] pop_some k =
    for _ = 1 to k do
      ignore (Sim.Calendar.pop cal)
    done
  in
  fill ();
  pop_some popped;
  Gc.full_major ();
  (* Pushed at times n - i, so the ten pops took ids n - 10 .. n - 1. *)
  for i = 0 to n - 1 do
    checkb (Printf.sprintf "payload %d kept iff pending" i) (i < n - popped)
      (Weak.check watch i)
  done;
  pop_some (n - popped);
  Gc.full_major ();
  checkb "drained: nothing retained" false
    (List.exists (Weak.check watch) (List.init n Fun.id))

(* [src] shares a lane with the slot id, so a push accepts any src that
   fits in 32 signed bits, orders the extremes as ints and reads each
   back unchanged, and rejects one that does not fit. *)
let calendar_src_range () =
  let cal = Sim.Calendar.create ~dummy:0 () in
  let lo = -(1 lsl 31) and hi = (1 lsl 31) - 1 in
  List.iter
    (fun src -> Sim.Calendar.push cal ~time:1.0 ~src ~seq:0 src)
    [ hi; 0; lo; -1 ];
  let srcs =
    List.init 4 (fun _ ->
        let v = Sim.Calendar.pop cal in
        checki "payload follows its src" (Sim.Calendar.last_src cal) v;
        v)
  in
  check Alcotest.(list int) "src order" [ lo; -1; 0; hi ] srcs;
  List.iter
    (fun src ->
      Alcotest.check_raises "src outside 32 signed bits"
        (Invalid_argument "Calendar.push: src outside 32 signed bits")
        (fun () -> Sim.Calendar.push cal ~time:1.0 ~src ~seq:0 0))
    [ hi + 1; lo - 1 ];
  checkb "rejected pushes left it empty" true (Sim.Calendar.is_empty cal)

(* --- Islands: windows and the lookahead contract ----------------------- *)

let islands_validation () =
  Alcotest.check_raises "lookahead must be positive"
    (Invalid_argument "Islands.create: lookahead must be finite and positive")
    (fun () ->
      ignore (Sim.Islands.create ~islands:2 ~lookahead:0.0 ~seed:1 ()));
  let rt = Sim.Islands.create ~islands:2 ~lookahead:1.0 ~seed:1 () in
  let isl = Sim.Islands.island rt 0 in
  checkb "post below lookahead rejected" true
    (try
       Sim.Islands.post isl ~dst:1 ~after:0.5 ignore;
       false
     with Invalid_argument _ -> true);
  checkb "post to unknown island rejected" true
    (try
       Sim.Islands.post isl ~dst:7 ~after:1.0 ignore;
       false
     with Invalid_argument _ -> true);
  checkb "schedule in the past rejected" true
    (try
       Sim.Islands.schedule isl ~at:(-1.0) ignore;
       false
     with Invalid_argument _ -> true)

(* The audit capture of a run; every test below reads or compares it. *)
let capture_of rt = Option.get (Sim.Islands.capture rt)

(* A post with delay exactly the lookahead lands exactly on the window
   boundary (window_end = next + lookahead) and must execute in a LATER
   window — the strict [time < window_end] rule. With a local event
   already scheduled at the same instant, the (time, seq, src) order
   decides: equal time, then the smaller seq, then the smaller source
   island id goes first. *)
let islands_window_boundary () =
  let rt = Sim.Islands.create ~capture:true ~islands:2 ~lookahead:1.0 ~seed:3 () in
  let i0 = Sim.Islands.island rt 0 and i1 = Sim.Islands.island rt 1 in
  let order = ref [] in
  (* Island 1's local event at t=1.0: src=1, seq=0. *)
  Sim.Islands.schedule i1 ~at:1.0 (fun _ -> order := "local" :: !order);
  (* Island 0 at t=0 posts to island 1 with after = lookahead, arriving
     at exactly t=1.0 = the first window's end: src=0, seq=1. *)
  Sim.Islands.schedule i0 ~at:0.0 (fun isl ->
      Sim.Islands.post isl ~dst:1 ~after:1.0 (fun _ ->
          order := "posted" :: !order));
  Sim.Islands.run rt;
  check (Alcotest.list Alcotest.string) "both executed, seq order at the tie"
    [ "posted"; "local" ] !order;
  (* The capture pins the boundary down: window 0 is [0, 1) and holds
     island 0's event and post; island 1 runs (1.0, 0, 1) local, then
     (1.0, 1, 0) posted, both in window 1. *)
  let cap = capture_of rt in
  let execs isl =
    List.map
      (fun (x : Sim.Islands.exec_rec) -> (x.x_window, x.x_time, x.x_seq, x.x_src))
      cap.Sim.Islands.c_execs.(isl)
  in
  checkb "window bounds" true
    (List.map
       (fun (b : Sim.Islands.barrier_rec) -> (b.b_from, b.b_until))
       cap.Sim.Islands.c_barriers
    = [ (0.0, 1.0); (1.0, 2.0) ]);
  checkb "island 0 posted in window 0" true
    (execs 0 = [ (0, 0.0, 0, 0) ]
    && List.map (fun (p : Sim.Islands.post_rec) -> p.p_window)
         cap.Sim.Islands.c_posts
       = [ 0 ]);
  checkb "island 1 ran both in window 1, in key order" true
    (execs 1 = [ (1, 1.0, 0, 1); (1, 1.0, 1, 0) ])

let islands_seq_equals_parallel_simple () =
  (* A deterministic ping-pong across three islands, run at 1 and 3
     domains: identical captures, so identical events and windows. *)
  let build () =
    let rt = Sim.Islands.create ~capture:true ~islands:3 ~lookahead:0.5 ~seed:9 () in
    let rec ping hops isl =
      if hops > 0 then begin
        let dst = (Sim.Islands.id isl + 1) mod 3 in
        let jitter = Sim.Prng.float (Sim.Islands.prng isl) 0.25 in
        Sim.Islands.post isl ~dst ~after:(0.5 +. jitter) (ping (hops - 1));
        Sim.Islands.schedule_in isl ~after:0.1 (fun _ -> ())
      end
    in
    for i = 0 to 2 do
      Sim.Islands.schedule (Sim.Islands.island rt i)
        ~at:(0.05 *. float_of_int i)
        (ping 20)
    done;
    rt
  in
  let a = build () and b = build () in
  Sim.Islands.run ~domains:1 a;
  Sim.Islands.run ~domains:3 b;
  checkb "captures identical" true (capture_of a = capture_of b)

(* QCheck: random little simulations — random fan-out and delays —
   always produce domain-count-independent captures. *)
let qcheck_islands_deterministic =
  QCheck.Test.make ~name:"island log independent of domain count" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let build () =
        let rt =
          Sim.Islands.create ~capture:true ~islands:4 ~lookahead:1.0 ~seed ()
        in
        let rec act depth isl =
          let rng = Sim.Islands.prng isl in
          if depth > 0 then begin
            let fanout = 1 + Sim.Prng.int rng 2 in
            for _ = 1 to fanout do
              let dst = Sim.Prng.int rng 4 in
              let after = 1.0 +. Sim.Prng.float rng 2.0 in
              Sim.Islands.post isl ~dst ~after (act (depth - 1))
            done;
            if Sim.Prng.float rng 1.0 < 0.5 then
              Sim.Islands.schedule_in isl ~after:(Sim.Prng.float rng 0.9)
                (fun _ -> ())
          end
        in
        for i = 0 to 3 do
          Sim.Islands.schedule (Sim.Islands.island rt i)
            ~at:(0.1 *. float_of_int i) (act 4)
        done;
        rt
      in
      let a = build () and b = build () in
      Sim.Islands.run ~domains:1 a;
      Sim.Islands.run ~domains:4 b;
      capture_of a = capture_of b)

(* --- Per-edge lookahead: topology-aware windows ------------------------- *)

let islands_edge_lookahead_contract () =
  (* A per-edge matrix tightens the post floor edge by edge while the
     window still advances by the matrix minimum (= the scalar floor). *)
  let edge =
    [| [| 0.0; 1.5; 2.0 |]; [| 1.0; 0.0; 3.0 |]; [| 2.5; 1.25; 0.0 |] |]
  in
  let rt =
    Sim.Islands.create ~edge_lookahead:edge ~islands:3 ~lookahead:1.0 ~seed:2 ()
  in
  let i0 = Sim.Islands.island rt 0 and i1 = Sim.Islands.island rt 1 in
  checkb "post at the edge floor accepted" true
    (Sim.Islands.post i1 ~dst:0 ~after:1.0 ignore;
     true);
  checkb "post below its edge floor rejected" true
    (try
       Sim.Islands.post i0 ~dst:2 ~after:1.5 ignore;
       false
     with Invalid_argument _ -> true);
  checkb "even though the scalar floor would allow it" true
    (Sim.Islands.post i0 ~dst:2 ~after:2.0 ignore;
     true)

let islands_edge_lookahead_validation () =
  checkb "ragged matrix rejected" true
    (try
       ignore
         (Sim.Islands.create ~edge_lookahead:[| [| 0.0; 1.0 |] |] ~islands:2
            ~lookahead:1.0 ~seed:2 ());
       false
     with Invalid_argument _ -> true);
  checkb "edge below the scalar lookahead rejected" true
    (try
       ignore
         (Sim.Islands.create
            ~edge_lookahead:[| [| 0.0; 0.5 |]; [| 1.0; 0.0 |] |]
            ~islands:2 ~lookahead:1.0 ~seed:2 ());
       false
     with Invalid_argument _ -> true)

let islands_edge_seq_equals_parallel () =
  (* Heterogeneous edge floors (a fast pair and a slow pair) must keep
     the run a pure function of the configuration. *)
  let edge =
    [| [| 0.0; 0.5; 2.0 |]; [| 0.5; 0.0; 2.0 |]; [| 2.0; 2.0; 0.0 |] |]
  in
  let build () =
    let rt =
      Sim.Islands.create ~capture:true ~edge_lookahead:edge ~islands:3
        ~lookahead:0.5 ~seed:11 ()
    in
    let rec ping hops isl =
      if hops > 0 then begin
        let id = Sim.Islands.id isl in
        let dst = (id + 1) mod 3 in
        let floor = edge.(id).(dst) in
        let jitter = Sim.Prng.float (Sim.Islands.prng isl) 0.25 in
        Sim.Islands.post isl ~dst ~after:(floor +. jitter) (ping (hops - 1))
      end
    in
    for i = 0 to 2 do
      Sim.Islands.schedule (Sim.Islands.island rt i)
        ~at:(0.05 *. float_of_int i)
        (ping 15)
    done;
    rt
  in
  let a = build () and b = build () in
  Sim.Islands.run ~domains:1 a;
  Sim.Islands.run ~domains:3 b;
  checkb "captures identical under per-edge floors" true
    (capture_of a = capture_of b)

(* --- Staging: memory and delivery at fleet scale ------------------------- *)

(* Set-up is linear in the island count: [create] allocates a bounded
   number of bytes per island, with a uniform lookahead and with a
   per-edge matrix (kept as given, not copied). One word per island
   pair is 1025 words, over 8 KiB, per island at this size, so any
   islands x islands structure breaks the budget. *)
let islands_create_linear () =
  let n = 1025 in
  let budget = 8192.0 in
  let per_island create =
    let before = Gc.allocated_bytes () in
    let rt = create () in
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity rt);
    (after -. before) /. float_of_int n
  in
  let edge =
    Array.init n (fun s ->
        Array.init n (fun d ->
            if s = d then 0.0 else 1.0 +. (0.001 *. float_of_int (abs (s - d)))))
  in
  let uniform =
    per_island (fun () -> Sim.Islands.create ~islands:n ~lookahead:1.0 ~seed:1 ())
  in
  let edged =
    per_island (fun () ->
        Sim.Islands.create ~edge_lookahead:edge ~islands:n ~lookahead:1.0
          ~seed:1 ())
  in
  checkb
    (Printf.sprintf "uniform lookahead: %.0f B per island, under %.0f" uniform
       budget)
    true (uniform < budget);
  checkb
    (Printf.sprintf "edge matrix: %.0f B per island, under %.0f" edged budget)
    true (edged < budget)

(* One window of fan-out: island 0 posts to every other island at a
   distinct delay, in an order that is neither the destination order
   nor the delivery order, and every recipient answers island 0 one
   lookahead later. Each post runs once, at its own time, on its own
   island; the answers run on island 0 in time order; and the run does
   not depend on the domain count. *)
let islands_fan_out () =
  let n = 257 in
  let delay d = 1.0 +. (0.001 *. float_of_int (d * 37 mod n)) in
  let build () =
    let rt =
      Sim.Islands.create ~capture:true ~islands:n ~lookahead:1.0 ~seed:5 ()
    in
    let ran = Array.make n [] in
    let answers = ref [] in
    Sim.Islands.schedule (Sim.Islands.island rt 0) ~at:0.0 (fun isl ->
        for d = n - 1 downto 1 do
          Sim.Islands.post isl ~dst:d ~after:(delay d) (fun isl ->
              ran.(d) <- (Sim.Islands.id isl, Sim.Islands.now isl) :: ran.(d);
              Sim.Islands.post isl ~dst:0 ~after:1.0 (fun isl ->
                  answers := (d, Sim.Islands.now isl) :: !answers))
        done);
    (rt, ran, answers)
  in
  let a, ran_a, answers_a = build () and b, ran_b, answers_b = build () in
  Sim.Islands.run ~domains:1 a;
  Sim.Islands.run ~domains:4 b;
  for d = 1 to n - 1 do
    checkb
      (Printf.sprintf "post to island %d ran once, there, at its time" d)
      true
      (ran_a.(d) = [ (d, delay d) ])
  done;
  let in_time_order =
    List.sort
      (fun (d, _) (d', _) -> Float.compare (delay d) (delay d'))
      (List.init (n - 1) (fun k -> (k + 1, delay (k + 1) +. 1.0)))
  in
  checkb "answers ran on island 0 in time order" true
    (List.rev !answers_a = in_time_order);
  checkb "same runs at 4 domains" true
    (ran_a = ran_b && !answers_a = !answers_b);
  checkb "captures identical at 1 and 4 domains" true
    (capture_of a = capture_of b)

(* --- Thin windows: only active islands run -------------------------------- *)

(* Mostly idle runtimes: island 0 wakes one to three random islands per
   step; most wakes run a few events, one in four a burst of 80-200
   events, so window sizes cross the 64-event inline threshold in both
   directions while most islands sit idle in most windows. Every event
   made runs, the schedule checker finds nothing in the capture, and
   captures, window and event counts are the same at 1, 2 and 4
   domains. *)
let qcheck_islands_thin_windows =
  QCheck.Test.make
    ~name:"islands: mostly idle runs independent of domain count" ~count:20
    QCheck.(pair (int_range 8 64) (int_bound 100_000))
    (fun (n, seed) ->
      let build () =
        let rt =
          Sim.Islands.create ~capture:true ~islands:n ~lookahead:1.0 ~seed ()
        in
        (* Events made, per making island (each lane writes its own). *)
        let made = Array.make n 0 in
        let made_one isl =
          let i = Sim.Islands.id isl in
          made.(i) <- made.(i) + 1
        in
        let rec work k isl =
          if k > 0 then begin
            made_one isl;
            Sim.Islands.schedule_in isl ~after:0.004 (work (k - 1))
          end
        in
        let wake isl =
          let rng = Sim.Islands.prng isl in
          if Sim.Prng.int rng 4 = 0 then work (80 + Sim.Prng.int rng 121) isl
          else work (Sim.Prng.int rng 4) isl;
          if Sim.Prng.bool rng then begin
            made_one isl;
            Sim.Islands.post isl ~dst:0 ~after:1.0 (fun _ -> ())
          end
        in
        let rec drive steps isl =
          if steps > 0 then begin
            let rng = Sim.Islands.prng isl in
            for _ = 0 to Sim.Prng.int rng 3 do
              made_one isl;
              Sim.Islands.post isl
                ~dst:(1 + Sim.Prng.int rng (n - 1))
                ~after:(1.0 +. Sim.Prng.float rng 0.5)
                wake
            done;
            made_one isl;
            Sim.Islands.schedule_in isl ~after:1.5 (drive (steps - 1))
          end
        in
        Sim.Islands.schedule (Sim.Islands.island rt 0) ~at:0.0 (drive 60);
        (rt, made)
      in
      let runs =
        List.map
          (fun domains ->
            let rt, made = build () in
            Sim.Islands.run ~domains rt;
            let cap = capture_of rt in
            let executed = Sim.Islands.events_executed rt in
            ( executed = 1 + Array.fold_left ( + ) 0 made
              && Analysis.Islands_check.check ~label:"thin" cap = [],
              (cap, Sim.Islands.windows rt, executed) ))
          [ 1; 2; 4 ]
      in
      List.for_all fst runs
      && List.for_all (fun (_, r) -> r = snd (List.hd runs)) runs)

(* --- Lane-parallel windows: staged vs in-place delivery ------------------ *)

(* The windows of a capture that met the lane rule: at least two active
   islands, after a window that ran 64 events or more. At [domains >= 2]
   exactly these run on the lanes and stage their posts until the
   barrier; every other window, and every window at [domains:1],
   delivers its posts in place. *)
let lane_windows (cap : Sim.Islands.capture) =
  let nw = List.length cap.c_barriers in
  let events = Array.make nw 0 and active = Array.make nw 0 in
  Array.iter
    (fun execs ->
      let last = ref (-1) in
      List.iter
        (fun (x : Sim.Islands.exec_rec) ->
          events.(x.x_window) <- events.(x.x_window) + 1;
          if x.x_window <> !last then begin
            active.(x.x_window) <- active.(x.x_window) + 1;
            last := x.x_window
          end)
        execs)
    cap.c_execs;
  List.filter (fun w -> active.(w) >= 2 && events.(w - 1) >= 64)
    (List.init (max 0 (nw - 1)) (fun w -> w + 1))

(* Busy runtimes: two to four islands each run a local chain of events
   0.01 apart, so a window, 1.0 wide, runs about 100 events on each of
   them. One event in four posts to a random island, where it starts a
   burst of up to two local events. The thin-window property above
   rarely reaches the lanes; here most windows do at two and four
   domains, so their posts stage until the barrier, while at one domain
   every post goes straight into its destination's calendar. The
   captures, window and event counts are the same at 1, 2 and 4
   domains, the schedule checker finds nothing, and some window met the
   lane rule. *)
let qcheck_islands_lane_windows =
  QCheck.Test.make
    ~name:"islands: lane-parallel windows deliver as in-place ones" ~count:10
    QCheck.(triple (int_range 2 12) (int_range 2 4) (int_bound 100_000))
    (fun (n, busy, seed) ->
      let build () =
        let rt =
          Sim.Islands.create ~capture:true ~islands:n ~lookahead:1.0 ~seed ()
        in
        let rec burst k isl =
          if k > 0 then Sim.Islands.schedule_in isl ~after:0.003 (burst (k - 1))
        in
        let rec chain steps isl =
          if steps > 0 then begin
            let rng = Sim.Islands.prng isl in
            if Sim.Prng.int rng 4 = 0 then
              Sim.Islands.post isl ~dst:(Sim.Prng.int rng n)
                ~after:(1.0 +. Sim.Prng.float rng 0.5)
                (fun isl -> burst (Sim.Prng.int (Sim.Islands.prng isl) 3) isl);
            Sim.Islands.schedule_in isl ~after:0.01 (chain (steps - 1))
          end
        in
        for i = 0 to min busy n - 1 do
          Sim.Islands.schedule (Sim.Islands.island rt i) ~at:0.0 (chain 400)
        done;
        rt
      in
      let runs =
        List.map
          (fun domains ->
            let rt = build () in
            Sim.Islands.run ~domains rt;
            let cap = capture_of rt in
            ( cap,
              Sim.Islands.windows rt,
              Sim.Islands.events_executed rt ))
          [ 1; 2; 4 ]
      in
      let cap, _, _ = List.hd runs in
      List.for_all (fun r -> r = List.hd runs) runs
      && Analysis.Islands_check.check ~label:"lanes" cap = []
      && lane_windows cap <> [])

(* Events given to an idle island from outside any action run at their
   time: scheduled or posted before the first [run] while another
   island is busy, and scheduled between two [run] calls, after every
   calendar drained. *)
let islands_setup_events () =
  let rt = Sim.Islands.create ~islands:8 ~lookahead:1.0 ~seed:4 () in
  let ran = ref [] in
  let note tag isl =
    ran := (tag, Sim.Islands.id isl, Sim.Islands.now isl) :: !ran
  in
  let rec tick k isl =
    if k > 0 then Sim.Islands.schedule_in isl ~after:0.5 (tick (k - 1))
  in
  Sim.Islands.schedule (Sim.Islands.island rt 0) ~at:0.0 (tick 10);
  Sim.Islands.schedule (Sim.Islands.island rt 5) ~at:2.25 (note "scheduled");
  Sim.Islands.post (Sim.Islands.island rt 1) ~dst:6 ~after:1.0 (note "posted");
  Sim.Islands.run rt;
  Sim.Islands.schedule (Sim.Islands.island rt 3) ~at:7.0 (note "between");
  Sim.Islands.run ~domains:2 rt;
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.string Alcotest.int (Alcotest.float 0.0)))
    "each ran once, on its island, at its time"
    [ ("posted", 6, 1.0); ("scheduled", 5, 2.25); ("between", 3, 7.0) ]
    (List.rev !ran);
  checki "every event executed" 14 (Sim.Islands.events_executed rt)

(* --- Cluster: the island-scheduler core, end to end --------------------- *)

let fleet_render_stable () =
  let cfg = Sched.Cluster.fleet ~nodes:4 ~jobs:15 ~seed:21 in
  let a = Sched.Cluster.run ~domains:1 cfg in
  let b = Sched.Cluster.run ~domains:3 cfg in
  check Alcotest.string "render byte-identical across domain counts"
    (Sched.Cluster.render cfg a) (Sched.Cluster.render cfg b);
  checki "all jobs accounted" 15
    (a.Sched.Cluster.completed + a.Sched.Cluster.failed);
  checkb "positive makespan" true (a.Sched.Cluster.makespan > 0.0);
  checkb "both ISAs burned energy" true
    (a.Sched.Cluster.energy_x86_j > 0.0 && a.Sched.Cluster.energy_arm_j > 0.0)

(* The fleet preset: its two placements, with and without faults and
   rebalance, print the same fleet report at one and two domains. *)
let qcheck_fleet_deterministic =
  QCheck.Test.make
    ~name:"fleet report independent of domain count (seeds x faults x policy)"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun raw ->
      let seed = raw mod 1000 in
      let fail_rate = if raw mod 2 = 0 then 0.0 else 0.05 in
      let policy =
        if raw mod 4 < 2 then Sched.Cluster.Least_loaded
        else Sched.Cluster.Round_robin
      in
      let migration = raw mod 3 <> 0 in
      let cfg =
        { (Sched.Cluster.fleet ~nodes:3 ~jobs:8 ~seed) with
          Sched.Cluster.fail_rate;
          policy;
          migration;
        }
      in
      let a = Sched.Cluster.run ~domains:1 cfg in
      let b = Sched.Cluster.run ~domains:2 cfg in
      Sched.Cluster.render cfg a = Sched.Cluster.render cfg b)

let qcheck_cluster_deterministic =
  QCheck.Test.make
    ~name:
      "cluster report independent of domain count, every job completes or \
       fails (seeds x policy x fail rate x migration x topology)"
    ~count:16
    QCheck.(int_bound 100_000)
    (fun raw ->
      let pick l k = List.nth l (k mod List.length l) in
      let policy =
        pick
          Sched.Cluster.
            [ Pack_power_cap; Edp_migrate; Work_steal; Least_loaded;
              Round_robin ]
          raw
      in
      let fail_rate = pick [ 0.0; 0.05; 0.3 ] (raw / 5) in
      let migration = raw / 15 mod 2 = 0 in
      let mix =
        pick Machine.Topology.[ Alternate; Isa_racks ] (raw / 30)
      in
      let topology =
        match raw / 60 mod 5 with
        | 0 -> Machine.Topology.make ~racks:1 ~nodes_per_rack:3 ()
        | shape ->
          let racks, nodes_per_rack =
            pick [ (1, 6); (2, 4); (3, 4); (4, 2) ] shape
          in
          Machine.Topology.make ~mix ~racks ~nodes_per_rack ()
      in
      let cfg =
        { (Sched.Cluster.default ~topology ~jobs:40 ~seed:(raw mod 1000)) with
          Sched.Cluster.policy;
          fail_rate;
          migration;
        }
      in
      let a = Sched.Cluster.run ~domains:1 cfg in
      let b = Sched.Cluster.run ~domains:2 cfg in
      Sched.Cluster.render cfg a = Sched.Cluster.render cfg b
      && a.Sched.Cluster.completed + a.Sched.Cluster.failed = 40)

(* The acceptance scenario: 256 mixed-ISA nodes in 8 racks, run
   sequentially and across 8 domains, byte-identical reports. *)
let cluster_256_nodes_byte_identical () =
  let topo = Machine.Topology.make ~racks:8 ~nodes_per_rack:32 () in
  let cfg = Sched.Cluster.default ~topology:topo ~jobs:2000 ~seed:42 in
  let a = Sched.Cluster.run ~domains:1 cfg in
  let b = Sched.Cluster.run ~domains:8 cfg in
  check Alcotest.string "256-node render byte-identical seq vs 8 domains"
    (Sched.Cluster.render cfg a) (Sched.Cluster.render cfg b);
  checki "all jobs complete" 2000 a.Sched.Cluster.completed;
  checkb "the EDP policy migrated work across the fabric" true
    (a.Sched.Cluster.migrations > 0);
  checkb "both ISAs burned energy" true
    (a.Sched.Cluster.energy_x86_j > 0.0 && a.Sched.Cluster.energy_arm_j > 0.0)

(* Below the admission floor the widest job never fits, so the run
   would re-arm its epoch tick forever; it must refuse to start. At the
   floor it completes, and its widest admissions land exactly on the
   cap. On the x86-only shapes the floor is not a round number, and the
   same terms summed in another order can round above it: on the
   16-node one, an admission check that trusted such a sum instead of
   the in-order one would never admit the widest job, and the run would
   not end. *)
let cluster_power_cap_floor () =
  let cfg topology w =
    { (Sched.Cluster.default ~topology ~jobs:40 ~seed:42) with
      Sched.Cluster.policy = Sched.Cluster.Pack_power_cap;
      power_cap_w = w;
    }
  in
  let rack4 = Machine.Topology.make ~racks:1 ~nodes_per_rack:4 () in
  Alcotest.check_raises "cap below the floor rejected"
    (Invalid_argument
       (Printf.sprintf
          "Cluster.run: power cap %gW is below the admission floor %gW" 190.0
          (Sched.Cluster.power_floor rack4)))
    (fun () -> ignore (Sched.Cluster.run (cfg rack4 190.0)));
  let grid mix racks nodes_per_rack =
    Machine.Topology.make ~mix ~racks ~nodes_per_rack ()
  in
  let shapes =
    [ ("4-node rack", rack4);
      ("x86-only 2x3", grid Machine.Topology.X86_only 2 3);
      ("arm-only 1x6", grid Machine.Topology.Arm_only 1 6);
      ("isa-racks 2x4", grid Machine.Topology.Isa_racks 2 4);
      ("flat 5", Machine.Topology.make ~racks:1 ~nodes_per_rack:5 ());
      ("x86-only 2x8", grid Machine.Topology.X86_only 2 8) ]
  in
  List.iter
    (fun (name, topology) ->
      let floor = Sched.Cluster.power_floor topology in
      let r = Sched.Cluster.run (cfg topology floor) in
      checki (name ^ ": at the floor every job completes") 40
        r.Sched.Cluster.completed;
      checkb (name ^ ": peak power is the floor, bit for bit") true
        (Int64.equal
           (Int64.bits_of_float r.Sched.Cluster.peak_power_w)
           (Int64.bits_of_float floor)))
    shapes

(* --- Popcorn-ensemble scheduler: repeat runs ------------------------------ *)

(* A fig12-scale sustained run from cold memos, then again on the warm
   process-wide memos (phase expansion, transform latency) the first
   run filled: a memo that leaks state between runs forks the report. *)
let scheduler_repeat_run_byte_identical () =
  let jobs = Sched.Arrival.sustained ~seed:3 ~jobs:40 in
  let render () =
    Format.asprintf "%a" Sched.Scheduler.pp_result
      (Sched.Scheduler.run Sched.Policy.Dynamic_unbalanced jobs)
  in
  Workload.Spec.phase_memo_clear ();
  Kernel.Popcorn.latency_cache_clear ();
  let first = render () in
  check Alcotest.string "fig12-scale repeat run byte-identical" first
    (render ())

(* --- Workload phase memoization ----------------------------------------- *)

let phase_memo_shares () =
  Workload.Spec.phase_memo_clear ();
  let spec = Workload.Spec.spec Workload.Spec.CG Workload.Spec.A in
  let pages = [ { Memsys.Page.first = 100; count = 64 } ] in
  let a =
    Workload.Spec.phases_for_process spec ~threads:2
      ~quantum_instructions:1e8 ~data_pages:pages
  in
  let b =
    Workload.Spec.phases_for_process spec ~threads:2
      ~quantum_instructions:1e8 ~data_pages:pages
  in
  checkb "second call shares the first expansion" true (a == b);
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "one hit, one miss" (1, 1)
    (Workload.Spec.phase_memo_stats ());
  (* A different key misses and yields a different expansion. *)
  let c =
    Workload.Spec.phases_for_process spec ~threads:4
      ~quantum_instructions:1e8 ~data_pages:pages
  in
  checkb "different thread count is a different entry" true (c != a);
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "two misses now" (1, 2)
    (Workload.Spec.phase_memo_stats ());
  Workload.Spec.phase_memo_clear ();
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "cleared" (0, 0)
    (Workload.Spec.phase_memo_stats ())

let suite =
  [
    Alcotest.test_case "calendar: pop order" `Quick calendar_pop_order;
    Alcotest.test_case "calendar: empty" `Quick calendar_empty;
    Alcotest.test_case "islands: validation" `Quick islands_validation;
    Alcotest.test_case "islands: window boundary tie-break" `Quick
      islands_window_boundary;
    Alcotest.test_case "islands: seq = parallel (ping-pong)" `Quick
      islands_seq_equals_parallel_simple;
    QCheck_alcotest.to_alcotest qcheck_islands_deterministic;
    Alcotest.test_case "islands: per-edge lookahead contract" `Quick
      islands_edge_lookahead_contract;
    Alcotest.test_case "islands: per-edge matrix validation" `Quick
      islands_edge_lookahead_validation;
    Alcotest.test_case "islands: seq = parallel under edge floors" `Quick
      islands_edge_seq_equals_parallel;
    Alcotest.test_case "fleet: render stable across domains" `Quick
      fleet_render_stable;
    QCheck_alcotest.to_alcotest qcheck_fleet_deterministic;
    Alcotest.test_case "cluster: 256 nodes byte-identical" `Slow
      cluster_256_nodes_byte_identical;
    QCheck_alcotest.to_alcotest qcheck_cluster_deterministic;
    Alcotest.test_case "scheduler: fig12-scale repeat run" `Quick
      scheduler_repeat_run_byte_identical;
    Alcotest.test_case "workload: phase expansion memoized" `Quick
      phase_memo_shares;
    Alcotest.test_case "cluster: power cap below the admission floor" `Quick
      cluster_power_cap_floor;
    Alcotest.test_case "islands: set-up linear in islands" `Quick
      islands_create_linear;
    Alcotest.test_case "islands: fan-out to every island" `Quick
      islands_fan_out;
    Alcotest.test_case "calendar: pop_before" `Quick calendar_pop_before;
    QCheck_alcotest.to_alcotest qcheck_calendar_pop_before;
    QCheck_alcotest.to_alcotest qcheck_islands_thin_windows;
    QCheck_alcotest.to_alcotest qcheck_islands_lane_windows;
    Alcotest.test_case "islands: set-up events on idle islands" `Quick
      islands_setup_events;
    QCheck_alcotest.to_alcotest qcheck_calendar_model;
    Alcotest.test_case "calendar: popped payload not retained" `Quick
      calendar_releases_popped;
    Alcotest.test_case "calendar: src range" `Quick calendar_src_range;
  ]
