(* Event-core benchmark (non-paper): the discrete-event engine, the
   keyed calendar underneath the time-island runtime, and the island
   runtime itself.

   Part 1 drains one million self-scheduling events through
   {!Sim.Engine} — a one-island view over the pooled {!Sim.Calendar},
   the hot path every simulation run sits on — and checks the count, clock monotonicity, and that the
   pool really recycles (heap capacity stays far below the event
   count). Host-time throughput is printed on excludable "host time"
   lines; the shape checks themselves are deterministic.

   Part 2 checks the {!Sim.Calendar} determinism contract: the same
   event set pushed in opposite orders pops in the identical
   (time, seq, src) total order — the property that makes the island
   barrier merge order-invariant.

   Part 3 runs a small {!Sched.Cluster.fleet} scenario sequentially and on two
   domains and byte-compares the rendered reports — the island
   determinism guarantee, end to end. *)

let n_events = 1_000_000

let part1 ppf =
  let t0 = Sys.time () in
  let e = Sim.Engine.create () in
  let executed = ref 0 in
  let last_time = ref (-1.0) in
  let monotone = ref true in
  (* 64 concurrent self-rescheduling chains: the heap stays small while
     a million events flow through it. *)
  let rec step at () =
    incr executed;
    let now = Sim.Engine.now e in
    if now < !last_time then monotone := false;
    last_time := now;
    if !executed + Sim.Engine.pending e < n_events then
      Sim.Engine.schedule e ~at:(at +. 1.0) (step (at +. 1.0))
  in
  for i = 0 to 63 do
    Sim.Engine.schedule e ~at:(float_of_int i *. 0.01) (step (float_of_int i *. 0.01))
  done;
  Sim.Engine.run e;
  let dt = Sys.time () -. t0 in
  Shape.check ppf
    (Printf.sprintf "engine drained all %d events" n_events)
    (!executed = n_events);
  Shape.check ppf "engine clock monotone over the drain" !monotone;
  Shape.check ppf
    (Printf.sprintf "the pooled heap stays small (capacity %d << %d events)"
       (Sim.Engine.capacity e) n_events)
    (Sim.Engine.capacity e < 1024);
  Format.fprintf ppf
    "  (%d events in %.2fs of host time, %.2gM events/s host time)@." n_events
    dt
    (float_of_int n_events /. Float.max dt 1e-9 /. 1e6)

let part2 ppf =
  let n = 10_000 in
  let keys =
    (* A deterministic mix of ties in time, seq and src. *)
    List.init n (fun i ->
        (float_of_int (i mod 97) /. 7.0, (i * 31) mod 89, i mod 13))
  in
  let drain order =
    let cal = Sim.Calendar.create ~dummy:(-1) () in
    List.iteri
      (fun i (time, seq, src) ->
        ignore i;
        Sim.Calendar.push cal ~time ~src ~seq (seq lxor src))
      order;
    let out = ref [] in
    while not (Sim.Calendar.is_empty cal) do
      let v = Sim.Calendar.pop cal in
      out :=
        (Sim.Calendar.last_time cal, Sim.Calendar.last_seq cal,
         Sim.Calendar.last_src cal, v)
        :: !out
    done;
    List.rev !out
  in
  let fwd = drain keys and bwd = drain (List.rev keys) in
  Shape.check ppf
    (Printf.sprintf
       "calendar pop order is push-order invariant (%d keys, ties included)" n)
    (fwd = bwd);
  let sorted = ref true in
  let rec walk = function
    | (t1, q1, s1, _) :: ((t2, q2, s2, _) :: _ as rest) ->
      if compare (t1, q1, s1) (t2, q2, s2) > 0 then sorted := false;
      walk rest
    | _ -> ()
  in
  walk fwd;
  Shape.check ppf "calendar drains in (time, seq, src) total order" !sorted

let part3 ppf =
  let cfg = Sched.Cluster.fleet ~nodes:4 ~jobs:12 ~seed:11 in
  let t0 = Sys.time () in
  let seq = Sched.Cluster.run ~domains:1 cfg in
  let t1 = Sys.time () in
  let par = Sched.Cluster.run ~domains:2 cfg in
  let t2 = Sys.time () in
  Shape.check ppf "islanded fleet run byte-identical to sequential"
    (Sched.Cluster.render cfg seq = Sched.Cluster.render cfg par);
  Shape.check ppf "fleet run executed events over multiple windows"
    (seq.Sched.Cluster.events > 0 && seq.Sched.Cluster.windows > 1);
  Shape.check ppf "fleet run completed every job"
    (seq.Sched.Cluster.completed = 12 && seq.Sched.Cluster.failed = 0);
  Format.fprintf ppf
    "  (fleet seq %.2fs, 2 domains %.2fs of host time; %d events, %d windows)@."
    (t1 -. t0) (t2 -. t1) seq.Sched.Cluster.events seq.Sched.Cluster.windows

let run ppf =
  Shape.section ppf
    "Event core: engine throughput, calendar order, islands";
  part1 ppf;
  part2 ppf;
  part3 ppf
