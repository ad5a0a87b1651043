(* A one-island view over `Calendar`: every event comes from source 0 and
   carries the engine's own sequence number, so the calendar's
   (time, seq, src) order fires simultaneous events in insertion order.
   The calendar's pooled lanes are the engine's heap: in steady state the
   run loop allocates nothing per event beyond the caller's action
   closure. *)

type t = {
  cal : (unit -> unit) Calendar.t;
  mutable clock : float;
  mutable next_seq : int;
}

let create () =
  { cal = Calendar.create ~dummy:ignore (); clock = 0.0; next_seq = 0 }

let now t = t.clock
let pending t = Calendar.size t.cal
let capacity t = Calendar.capacity t.cal

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%g is before now=%g" at t.clock);
  Calendar.push t.cal ~time:at ~src:0 ~seq:t.next_seq action;
  t.next_seq <- t.next_seq + 1

let schedule_in t ~after action = schedule t ~at:(t.clock +. after) action

let step t =
  let action = Calendar.pop t.cal in
  t.clock <- Calendar.last_time t.cal;
  action ()

let run t = while not (Calendar.is_empty t.cal) do step t done

let run_until t limit =
  while (not (Calendar.is_empty t.cal)) && Calendar.min_time t.cal <= limit do
    step t
  done;
  if t.clock < limit then t.clock <- limit

(* Reset for reuse. A pooled engine that once ran a warehouse-scale
   scenario would otherwise retain its peak-size calendar lanes forever
   (they only ever double); shrinking here returns the engine to a
   bounded footprint between runs. *)
let clear t =
  Calendar.clear t.cal;
  t.clock <- 0.0;
  t.next_seq <- 0
