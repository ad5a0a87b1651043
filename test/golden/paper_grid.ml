(* The paper's Fig. 12/13 grid, printed exactly: the 60 cells (Fig. 12
   sets 1000-1009 and Fig. 13 sets 2000-2009, each under the static x86
   pair and the two dynamic policies), the 20 dynamic Fig. 12 cells again
   with coalesced hDSM transfers and the migration prefetch, and the four
   headline averages. Every float prints as a hex float, so any change
   to Scheduler, Popcorn or hDSM arithmetic shows up as a byte diff. *)

let policies =
  Sched.Policy.[ Static_x86_pair; Dynamic_balanced; Dynamic_unbalanced ]

let sets = 10

let fig12 i = Sched.Arrival.sustained ~seed:(1000 + i) ~jobs:40
let fig13 i = Sched.Arrival.periodic ~seed:(2000 + i) ~waves:5 ~max_per_wave:14

let print label (r : Sched.Scheduler.result) =
  Printf.printf
    "%s %s makespan=%h energy=%s total_energy=%h edp=%h migrations=%d \
     completed=%d rejected=%d failed=%d retried=%d migration_aborts=%d \
     downtime_s=%h remote_fetches=%d drain_time_s=%h\n"
    label (Sched.Policy.name r.policy) r.makespan
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") r.energy)))
    r.total_energy r.edp r.migrations r.completed r.rejected r.failed
    r.retried r.migration_aborts r.downtime_s r.remote_fetches r.drain_time_s

(* One (static, balanced, unbalanced) triple per set. *)
let grid fig jobs_of =
  List.init sets (fun i ->
      let jobs = jobs_of i in
      let rs = List.map (fun p -> Sched.Scheduler.run p jobs) policies in
      List.iter (print (Printf.sprintf "%s/set-%d" fig i)) rs;
      match rs with
      | [ s; b; u ] -> (s, b, u)
      | _ -> assert false)

let saving base other =
  (base.Sched.Scheduler.total_energy -. other.Sched.Scheduler.total_energy)
  /. base.Sched.Scheduler.total_energy *. 100.0

let edp_saving base other =
  (base.Sched.Scheduler.edp -. other.Sched.Scheduler.edp)
  /. base.Sched.Scheduler.edp *. 100.0

let () =
  let f12 = grid "fig12" fig12 in
  let f13 = grid "fig13" fig13 in
  List.iter
    (fun i ->
      let jobs = fig12 i in
      List.iter
        (fun p ->
          print
            (Printf.sprintf "fig12/set-%d/dsm-batch+prefetch" i)
            (Sched.Scheduler.run ~dsm_batch:true ~prefetch:true p jobs))
        Sched.Policy.[ Dynamic_balanced; Dynamic_unbalanced ])
    (List.init sets Fun.id);
  let avg cells f = Sim.Stats.mean (List.map f cells) in
  List.iter
    (fun (name, v) -> Printf.printf "%s = %h (%.2f)\n" name v v)
    [ ("fig12 balanced energy saved %", avg f12 (fun (s, b, _) -> saving s b));
      ("fig12 unbalanced energy saved %", avg f12 (fun (s, _, u) -> saving s u));
      ("fig13 energy reduction %", avg f13 (fun (s, b, _) -> saving s b));
      ("fig13 EDP reduction %", avg f13 (fun (s, b, _) -> edp_saving s b)) ]
