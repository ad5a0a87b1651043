(* Failure injection: corrupted metadata, invalid requests, and
   unschedulable work must fail loudly and gracefully — never silently
   migrate wrong state. *)

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let binary = lazy (Hetmig.Het.compile_benchmark Workload.Spec.EP Workload.Spec.A)

(* Rebuild a toolchain output with tampered destination stackmaps. *)
let tamper_stackmaps (tc : Compiler.Toolchain.t) ~victim_arch ~drop_var =
  let isas =
    List.map
      (fun (per : Compiler.Toolchain.per_isa) ->
        if per.Compiler.Toolchain.arch <> victim_arch then per
        else
          {
            per with
            Compiler.Toolchain.stackmaps =
              List.map
                (fun (e : Compiler.Stackmap.entry) ->
                  {
                    e with
                    Compiler.Stackmap.live =
                      List.filter
                        (fun (name, _) -> name <> drop_var)
                        e.Compiler.Stackmap.live;
                  })
                per.Compiler.Toolchain.stackmaps;
          })
      tc.Compiler.Toolchain.isas
  in
  { tc with Compiler.Toolchain.isas }

let pick_live_var tc =
  (* Any variable live at some reachable migration point. *)
  let sites = Runtime.Interp.reachable_mig_sites tc in
  List.find_map
    (fun (fname, mig_id) ->
      match Runtime.Interp.state_at tc Isa.Arch.X86_64 ~fname ~mig_id with
      | None -> None
      | Some st ->
        let inner = Runtime.Thread_state.innermost st in
        (match Runtime.Interp.live_values tc st inner with
        | (name, _) :: _ -> Some (name, fname, mig_id)
        | [] -> None))
    sites

let corrupted_dest_stackmap_rejected () =
  let tc = Lazy.force binary in
  match pick_live_var tc with
  | None -> Alcotest.fail "no live variable found"
  | Some (var, fname, mig_id) ->
    let bad = tamper_stackmaps tc ~victim_arch:Isa.Arch.Arm64 ~drop_var:var in
    (match Runtime.Interp.state_at bad Isa.Arch.X86_64 ~fname ~mig_id with
    | None -> Alcotest.fail "unreached"
    | Some st -> begin
      (* Transformation consults the (corrupted) ARM metadata as the
         destination: it must refuse, not silently drop the value. *)
      match Runtime.Transform.transform bad st with
      | Error _ -> ()
      | Ok (dst, _) ->
        (* If it succeeded despite the tampering, verification must catch
           the lost value. *)
        checkb "verification catches the corruption" true
          (Runtime.Transform.verify bad st dst <> Ok ())
    end)

let corrupted_source_stackmap_rejected () =
  let tc = Lazy.force binary in
  match pick_live_var tc with
  | None -> Alcotest.fail "no live variable found"
  | Some (var, fname, mig_id) ->
    let bad = tamper_stackmaps tc ~victim_arch:Isa.Arch.X86_64 ~drop_var:var in
    (match Runtime.Interp.state_at bad Isa.Arch.X86_64 ~fname ~mig_id with
    | None -> Alcotest.fail "unreached"
    | Some st -> begin
      match Runtime.Transform.transform bad st with
      | Error _ -> ()
      | Ok (dst, _) ->
        checkb "verification catches the corruption" true
          (Runtime.Transform.verify bad st dst <> Ok ())
    end)

let migrate_to_unknown_node_rejected () =
  let cluster = Hetmig.Het.make_cluster () in
  let spec = Workload.Spec.spec Workload.Spec.EP Workload.Spec.A in
  let proc =
    Hetmig.Het.deploy cluster (Lazy.force binary) ~spec ~threads:1 ~node:0 ()
  in
  checkb "unknown node raises" true
    (try
       Hetmig.Het.migrate cluster proc ~to_node:7;
       false
     with Invalid_argument _ -> true)

let oversized_job_never_admitted () =
  (* A job wider than any machine cannot be placed; the scheduler must
     terminate and report the shortfall rather than hang or lie. *)
  let fat =
    Sched.Job.make ~jid:0
      ~spec:(Workload.Spec.spec Workload.Spec.EP Workload.Spec.A)
      ~threads:64 ~arrival:0.0
  in
  let ok =
    Sched.Job.make ~jid:1
      ~spec:(Workload.Spec.spec Workload.Spec.EP Workload.Spec.A)
      ~threads:1 ~arrival:0.0
  in
  let r = Sched.Scheduler.run Sched.Policy.Static_x86_pair [ fat; ok ] in
  checki "only the feasible job completes" 1 r.Sched.Scheduler.completed

let invalid_job_parameters_rejected () =
  checkb "zero threads" true
    (try
       ignore
         (Sched.Job.make ~jid:0
            ~spec:(Workload.Spec.spec Workload.Spec.EP Workload.Spec.A)
            ~threads:0 ~arrival:0.0);
       false
     with Invalid_argument _ -> true);
  checkb "negative arrival" true
    (try
       ignore
         (Sched.Job.make ~jid:0
            ~spec:(Workload.Spec.spec Workload.Spec.EP Workload.Spec.A)
            ~threads:1 ~arrival:(-1.0));
       false
     with Invalid_argument _ -> true)

let negative_message_rejected () =
  let engine = Sim.Engine.create () in
  let bus = Kernel.Message.create engine Machine.Interconnect.dolphin_pxh810 in
  checkb "negative size rejected" true
    (try
       Kernel.Message.send bus Kernel.Message.Page_request ~bytes:(-1)
         ~on_delivery:(fun () -> ())
         ();
       false
     with Invalid_argument _ -> true)

let zero_budget_rejected () =
  checkb "instrument with budget 0" true
    (try
       ignore
         (Compiler.Migration_points.instrument ~budget:0
            (Workload.Programs.program Workload.Spec.EP Workload.Spec.A));
       false
     with Invalid_argument _ -> true)

(* --- fault plans: invalid plans fail loudly ------------------------------- *)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let invalid_plan_rejected () =
  checkb "drop probability above 1" true
    (raises_invalid (fun () ->
         ignore (Faults.Plan.uniform ~drop:1.5 ())));
  checkb "negative delay latency" true
    (raises_invalid (fun () ->
         ignore
           (Faults.Plan.make
              ~messages:
                [ { Faults.Plan.kind = "*"; drop = 0.0; delay = 0.1;
                    delay_s = -1.0 } ]
              ())));
  checkb "duplicate message kind" true
    (raises_invalid (fun () ->
         let entry =
           { Faults.Plan.kind = "*"; drop = 0.1; delay = 0.0; delay_s = 0.0 }
         in
         ignore (Faults.Plan.make ~messages:[ entry; entry ] ())));
  checkb "negative crash time" true
    (raises_invalid (fun () ->
         ignore
           (Faults.Plan.make ~crashes:[ { Faults.Plan.at = -5.0; node = 0 } ] ())))

let zero_retry_budget_rejected () =
  checkb "retry budget 0 raises (would mean never even try)" true
    (raises_invalid (fun () ->
         ignore (Faults.Plan.make ~retry_budget:0 ())))

let unknown_message_kind_rejected () =
  let plan =
    Faults.Plan.make
      ~messages:
        [ { Faults.Plan.kind = "no_such_kind"; drop = 0.5; delay = 0.0;
            delay_s = 0.0 } ]
      ()
  in
  checkb "booting an ensemble under the plan raises" true
    (raises_invalid (fun () ->
         ignore (Hetmig.Het.make_cluster ~faults:plan ())))

let crash_unknown_node_rejected () =
  let plan =
    Faults.Plan.make ~crashes:[ { Faults.Plan.at = 1.0; node = 5 } ] ()
  in
  checkb "plan crashing node 5 of a 2-node cluster raises" true
    (raises_invalid (fun () ->
         ignore (Hetmig.Het.make_cluster ~faults:plan ())));
  let cluster = Hetmig.Het.make_cluster () in
  checkb "direct crash of an unknown node raises" true
    (raises_invalid (fun () ->
         ignore (Kernel.Popcorn.crash cluster.Hetmig.Het.pop ~node:7)))

(* --- message retry discipline ---------------------------------------------- *)

let thread_migration_kind =
  Kernel.Message.kind_to_string Kernel.Message.Thread_migration

let message_retry_exhaustion () =
  (* Drop every attempt: the send burns its whole budget, then fails. *)
  let plan =
    Faults.Plan.make ~seed:7
      ~messages:
        [ { Faults.Plan.kind = "*"; drop = 1.0; delay = 0.0; delay_s = 0.0 } ]
      ~retry_budget:3 ()
  in
  let engine = Sim.Engine.create () in
  let inj =
    Faults.Injector.create plan ~kinds:[ thread_migration_kind ]
  in
  let bus =
    Kernel.Message.create ~faults:inj engine Machine.Interconnect.dolphin_pxh810
  in
  let delivered = ref 0 and failed = ref 0 in
  Kernel.Message.send bus Kernel.Message.Thread_migration ~bytes:4096
    ~on_failure:(fun () -> incr failed)
    ~on_delivery:(fun () -> incr delivered)
    ();
  Sim.Engine.run engine;
  checki "on_failure fired once" 1 !failed;
  checki "never delivered" 0 !delivered;
  let stats =
    Kernel.Message.retry_stats bus Kernel.Message.Thread_migration
  in
  checki "three physical attempts" 3 stats.Kernel.Message.attempts;
  checki "all attempts dropped" 3 stats.Kernel.Message.dropped;
  checki "two retransmissions" 2 stats.Kernel.Message.retried;
  checki "one message abandoned" 1 stats.Kernel.Message.failed;
  checki "injector agrees" 3 (Faults.Injector.drops_injected inj)

(* --- migration abort and rollback ------------------------------------------ *)

let migration_abort_rolls_back () =
  (* Lose every thread-migration handoff: the migration must abort and
     the thread must finish on its source node with its pre-transform
     continuation, as if it had never tried. *)
  let plan =
    Faults.Plan.make ~seed:11
      ~messages:
        [ { Faults.Plan.kind = thread_migration_kind; drop = 1.0;
            delay = 0.0; delay_s = 0.0 } ]
      ~retry_budget:2 ()
  in
  let cluster = Hetmig.Het.make_cluster ~faults:plan () in
  let spec = Workload.Spec.spec Workload.Spec.EP Workload.Spec.A in
  let proc =
    Hetmig.Het.deploy cluster (Lazy.force binary) ~spec ~threads:1 ~node:0 ()
  in
  let aborts = ref 0 in
  Kernel.Popcorn.on_migration_abort cluster.Hetmig.Het.pop
    (fun _proc _th ~dest -> if dest = 1 then incr aborts);
  Hetmig.Het.start cluster proc;
  Hetmig.Het.migrate cluster proc ~to_node:1;
  Hetmig.Het.run cluster;
  let th = List.hd proc.Kernel.Process.threads in
  checkb "thread completed" true (th.Kernel.Process.status = Kernel.Process.Done);
  checkb "process exited" true (proc.Kernel.Process.finished_at <> None);
  checki "still on the source node" 0 th.Kernel.Process.node;
  checki "no successful migration" 0 th.Kernel.Process.migrations;
  checkb "at least one rolled-back migration" true
    (th.Kernel.Process.aborted_migrations >= 1);
  checki "abort hook saw them all" th.Kernel.Process.aborted_migrations !aborts;
  checkb "continuation carries no destination stacks" true
    (List.for_all
       (fun (k : Kernel.Continuation.kernel_stack) ->
         k.Kernel.Continuation.node <> 1)
       (Kernel.Continuation.stacks th.Kernel.Process.continuation))

(* --- scheduler under faults ------------------------------------------------- *)

let sustained_jobs ~seed n = Sched.Arrival.sustained ~seed ~jobs:n

let zero_plan_byte_identical () =
  (* The zero plan must take the exact fault-free code path: same event
     stream, same floats, same everything. *)
  List.iter
    (fun policy ->
      let jobs = sustained_jobs ~seed:3 8 in
      let plain = Sched.Scheduler.run policy jobs in
      let zeroed = Sched.Scheduler.run ~faults:Faults.Plan.zero policy jobs in
      checkb
        (Printf.sprintf "%s: zero plan result identical"
           (Sched.Policy.name policy))
        true (plain = zeroed))
    Sched.Policy.all

let plan_free_run_is_zero_plan_run () =
  (* A run given no plan runs under the zero plan, message statistics
     and trace included. *)
  let run ?faults () =
    let obs = Obs.create () in
    let r =
      Sched.Scheduler.run ?faults ~obs Sched.Policy.Dynamic_unbalanced
        (sustained_jobs ~seed:5 12)
    in
    ( Format.asprintf "%a" Sched.Scheduler.pp_result r,
      Obs.chrome_json obs,
      Obs.metrics_text obs )
  in
  let r0, trace0, metrics0 = run () in
  let r1, trace1, metrics1 = run ~faults:Faults.Plan.zero () in
  Alcotest.(check string) "pp_result" r1 r0;
  Alcotest.(check string) "chrome_json" trace1 trace0;
  Alcotest.(check string) "metrics_text" metrics1 metrics0;
  let attempts =
    List.find
      (fun l -> String.starts_with ~prefix:"msg.thread_migration.attempts " l)
      (String.split_on_char '\n' metrics0)
  in
  checkb "migrations counted their attempts" true
    (int_of_string (List.hd (List.rev (String.split_on_char ' ' attempts)))
    > 0)

let faulty_run_deterministic () =
  let plan = Faults.Plan.uniform ~seed:5 ~drop:0.2 () in
  let jobs = sustained_jobs ~seed:4 8 in
  let a = Sched.Scheduler.run ~faults:plan Sched.Policy.Dynamic_balanced jobs in
  let b = Sched.Scheduler.run ~faults:plan Sched.Policy.Dynamic_balanced jobs in
  checkb "same plan + seed, bit-identical results" true (a = b)

let crash_reclaims_orphans () =
  (* Crash the second node mid-run under every policy: jobs must be
     re-admitted or failed, never lost, and the books must balance. *)
  let plan =
    Faults.Plan.make ~seed:9 ~crashes:[ { Faults.Plan.at = 30.0; node = 1 } ] ()
  in
  List.iter
    (fun policy ->
      let jobs = sustained_jobs ~seed:6 6 in
      let r = Sched.Scheduler.run ~faults:plan policy jobs in
      checki
        (Printf.sprintf "%s: completed + rejected + failed = submitted"
           (Sched.Policy.name policy))
        (List.length jobs)
        (r.Sched.Scheduler.completed + r.Sched.Scheduler.rejected
        + r.Sched.Scheduler.failed))
    Sched.Policy.all

(* --- property: migration retry is semantics-preserving ---------------------- *)

let retry_roundtrip_prop =
  QCheck.Test.make
    ~name:
      "random programs: an aborted-then-retried migration equals a fault-free one"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = Gen.random_program seed in
      let tc = Compiler.Toolchain.compile ~budget:1_000_000 prog in
      List.for_all
        (fun (fname, mig_id) ->
          match Runtime.Interp.state_at tc Isa.Arch.X86_64 ~fname ~mig_id with
          | None -> true
          | Some src -> begin
            (* First attempt: transformed, then the handoff is lost and
               the result discarded (rollback leaves [src] untouched). *)
            match Runtime.Transform.transform tc src with
            | Error _ -> false
            | Ok (aborted, _) -> begin
              (* Retry from the rolled-back state. *)
              match Runtime.Transform.transform tc src with
              | Error _ -> false
              | Ok (retried, _) ->
                Runtime.Thread_state.depth aborted
                = Runtime.Thread_state.depth retried
                && Runtime.Transform.verify tc src retried = Ok ()
                && (match Runtime.Transform.transform tc retried with
                   | Error _ -> false
                   | Ok (back, _) ->
                     Runtime.Transform.verify tc src back = Ok ())
            end
          end)
        (Runtime.Interp.reachable_mig_sites tc))

(* --- property: job accounting balances under any fault rate ----------------- *)

let accounting_prop =
  QCheck.Test.make
    ~name:"job accounting: completed + rejected + failed = submitted"
    ~count:10
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, severity) ->
      let rate = [| 0.0; 0.05; 0.2 |].(severity) in
      let faults =
        if rate = 0.0 then None
        else
          Some
            (Faults.Plan.make ~seed
               ~messages:
                 [ { Faults.Plan.kind = "*"; drop = rate; delay = rate;
                     delay_s = 100e-6 } ]
               ~page_timeout_rate:(rate /. 2.0)
               ~crashes:
                 (if severity = 2 then [ { Faults.Plan.at = 30.0; node = 1 } ]
                  else [])
               ())
      in
      let jobs = sustained_jobs ~seed 6 in
      List.for_all
        (fun policy ->
          let r = Sched.Scheduler.run ?faults policy jobs in
          r.Sched.Scheduler.completed + r.Sched.Scheduler.rejected
          + r.Sched.Scheduler.failed
          = List.length jobs)
        Sched.Policy.all)

let suite =
  [
    ("corrupted destination stackmap rejected", `Quick,
     corrupted_dest_stackmap_rejected);
    ("corrupted source stackmap rejected", `Quick,
     corrupted_source_stackmap_rejected);
    ("migration to unknown node rejected", `Quick,
     migrate_to_unknown_node_rejected);
    ("oversized job never admitted", `Quick, oversized_job_never_admitted);
    ("invalid job parameters rejected", `Quick, invalid_job_parameters_rejected);
    ("negative message size rejected", `Quick, negative_message_rejected);
    ("zero instrumentation budget rejected", `Quick, zero_budget_rejected);
    ("invalid fault plans rejected", `Quick, invalid_plan_rejected);
    ("zero retry budget rejected", `Quick, zero_retry_budget_rejected);
    ("unknown message kind in plan rejected", `Quick,
     unknown_message_kind_rejected);
    ("crash targeting unknown node rejected", `Quick,
     crash_unknown_node_rejected);
    ("message retry budget exhaustion", `Quick, message_retry_exhaustion);
    ("migration abort rolls back to source", `Quick, migration_abort_rolls_back);
    ("zero fault plan is byte-identical", `Quick, zero_plan_byte_identical);
    ("plan-free run equals zero-plan run", `Quick,
     plan_free_run_is_zero_plan_run);
    ("faulty runs are deterministic", `Quick, faulty_run_deterministic);
    ("node crash re-admits or fails orphans", `Quick, crash_reclaims_orphans);
    QCheck_alcotest.to_alcotest retry_roundtrip_prop;
    QCheck_alcotest.to_alcotest accounting_prop;
  ]
