(* The hetmig audit subsystem: the schedule verifier, the island
   ownership check, and the determinism certifier — plus the seeded-corruption
   corpus proving every rule can actually fail, and the clean-corpus
   runs proving the committed scenarios pass.

   The seeded captures are built by hand from one small well-formed
   execution (two islands, two windows, one cross-island post) and then
   corrupted one field at a time. Each corruption must trip exactly the
   rule whose invariant it breaks and nothing else — that is the
   rule-locality contract the passes are written to (each rule reads
   only the fields its clause is about). *)

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let checks msg = Alcotest.check Alcotest.string msg

module D = Analysis.Diagnostic
module I = Sim.Islands
module Det = Analysis.Determinism_check

let count_rule rule ds =
  List.length (List.filter (fun (d : D.t) -> d.D.rule = rule) ds)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* [only rule ds] — the corruption tripped its rule exactly once and
   produced no other diagnostic at all. *)
let only rule ds =
  checki (rule ^ " fires once") 1 (count_rule rule ds);
  checki (rule ^ " is the only finding") 1 (List.length ds)

let verify cap =
  Analysis.Islands_check.check ~label:"seeded" cap
  @ Analysis.Island_race.check ~label:"seeded" cap

(* --- the well-formed baseline capture ----------------------------------- *)

let exec ~isl ~time ~seq ~src ~clock ~window ~before ~after ~touches =
  {
    I.x_isl = isl;
    x_time = time;
    x_seq = seq;
    x_src = src;
    x_clock_before = clock;
    x_window = window;
    x_prng_before = before;
    x_prng_after = after;
    x_touches = touches;
  }

(* Two islands, lookahead 1.0. Window 0 spans [0, 1): island 0 runs
   (0.0, 0, 0) and posts to island 1 with delay 1.5; island 1 runs
   (0.5, 1, 1). Window 1 spans [1.5, 2.5): island 1 runs the delivered
   (1.5, 2, 0); island 0 runs (1.8, 3, 0). Each island touches only its
   own state. *)
let exec_a =
  exec ~isl:0 ~time:0.0 ~seq:0 ~src:0 ~clock:0.0 ~window:0 ~before:10L
    ~after:11L
    ~touches:[ 0 ]

let exec_b =
  exec ~isl:1 ~time:0.5 ~seq:1 ~src:1 ~clock:0.0 ~window:0 ~before:20L
    ~after:20L
    ~touches:[ 1 ]

let exec_c =
  exec ~isl:1 ~time:1.5 ~seq:2 ~src:0 ~clock:0.5 ~window:1 ~before:20L
    ~after:22L
    ~touches:[ 1 ]

let exec_d =
  exec ~isl:0 ~time:1.8 ~seq:3 ~src:0 ~clock:0.0 ~window:1 ~before:11L
    ~after:11L
    ~touches:[ 0 ]

let base_post =
  {
    I.p_src = 0;
    p_dst = 1;
    p_send_time = 0.0;
    p_after = 1.5;
    p_deliver_time = 1.5;
    p_seq = 2;
    p_window = 0;
  }

let barrier ~window ~from ~until ~prng =
  { I.b_window = window; b_from = from; b_until = until; b_prng = prng }

let base_cap =
  {
    I.c_islands = 2;
    c_lookahead = 1.0;
    c_edge = [||];
    c_prng0 = [| 10L; 20L |];
    c_execs = [| [ exec_a; exec_d ]; [ exec_b; exec_c ] |];
    c_posts = [ base_post ];
    c_barriers =
      [
        barrier ~window:0 ~from:0.0 ~until:1.0 ~prng:[| 11L; 20L |];
        barrier ~window:1 ~from:1.5 ~until:2.5 ~prng:[| 11L; 22L |];
      ];
    c_calendar_violations = 0;
  }

let baseline_is_clean () =
  checki "hand-built capture certifies clean" 0 (List.length (verify base_cap))

(* --- seeded corruptions: one field, one rule ---------------------------- *)

let seeded_post_lookahead () =
  (* A post whose delay undercuts the lookahead: the one contract that
     makes window execution safe at all. *)
  let cap = { base_cap with I.c_posts = [ { base_post with I.p_after = 0.5 } ] } in
  only "island-post-lookahead" (verify cap)

let seeded_exec_before_clock () =
  (* The delivered event now claims to run with island 1's clock already
     past it — time travel within an island. *)
  let cap =
    {
      base_cap with
      I.c_execs = [| [ exec_a; exec_d ]; [ exec_b; { exec_c with I.x_clock_before = 2.0 } ] |];
    }
  in
  only "island-exec-before-clock" (verify cap)

let seeded_exec_outside_window () =
  (* Island 0's window-1 event escapes the window's [1.5, 2.5) bounds.
     The key (3.0, 3, 0) still sorts after its predecessor, so the
     order rules stay silent — this is purely a window violation. *)
  let cap =
    {
      base_cap with
      I.c_execs = [| [ exec_a; { exec_d with I.x_time = 3.0 } ]; [ exec_b; exec_c ] |];
    }
  in
  only "island-exec-outside-window" (verify cap)

let seeded_order () =
  (* Island 1 executes its two events in reversed key order. The PRNG
     fingerprints are re-threaded to match the new order so the stream
     stays locally accounted — order is the only broken invariant. *)
  let b' = { exec_b with I.x_prng_before = 22L; x_prng_after = 22L } in
  let c' = { exec_c with I.x_prng_before = 20L; x_prng_after = 22L } in
  let cap =
    {
      base_cap with
      I.c_execs = [| [ exec_a; exec_d ]; [ c'; b' ] |];
      c_barriers =
        [
          barrier ~window:0 ~from:0.0 ~until:1.0 ~prng:[| 11L; 20L |];
          barrier ~window:1 ~from:1.5 ~until:2.5 ~prng:[| 11L; 22L |];
        ];
    }
  in
  only "island-order" (verify cap)

let seeded_order_ambiguous () =
  (* Island 0's second event is rewritten to island 1's window-0 key:
     a duplicate (time, seq, src) makes the merge order ambiguous.
     Locally both islands are still strictly increasing. *)
  let dup =
    { exec_d with I.x_time = 0.5; x_seq = 1; x_src = 1; x_window = 0 }
  in
  let cap = { base_cap with I.c_execs = [| [ exec_a; dup ]; [ exec_b; exec_c ] |] } in
  only "island-order-ambiguous" (verify cap)

let seeded_window_regress () =
  (* Window 1 starts before window 0 ended: the global clock ran
     backwards. Its [b_until] still covers both events, so the
     per-event window rule stays silent. *)
  let cap =
    {
      base_cap with
      I.c_barriers =
        [
          barrier ~window:0 ~from:0.0 ~until:1.0 ~prng:[| 11L; 20L |];
          barrier ~window:1 ~from:0.5 ~until:2.5 ~prng:[| 11L; 22L |];
        ];
      (* keep execs inside the widened window-1 bounds *)
      c_execs = base_cap.I.c_execs;
    }
  in
  only "island-window-regress" (verify cap)

let seeded_prng_nonlocal () =
  (* Island 1's delivered event starts from a fingerprint its own chain
     never produced: a draw happened on its stream from outside its
     events. The chain resyncs after the gap, so one corruption is one
     diagnostic. *)
  let cap =
    {
      base_cap with
      I.c_execs = [| [ exec_a; exec_d ]; [ exec_b; { exec_c with I.x_prng_before = 21L } ] |];
    }
  in
  only "island-prng-nonlocal" (verify cap)

let seeded_calendar_order () =
  let cap = { base_cap with I.c_calendar_violations = 3 } in
  only "island-calendar-order" (verify cap)

let seeded_empty_capture () =
  let cap =
    {
      base_cap with
      I.c_execs = [| []; [] |];
      c_posts = [];
      c_barriers = [];
    }
  in
  let ds = verify cap in
  checki "island-empty-capture fires once" 1 (count_rule "island-empty-capture" ds);
  checki "and it is the only finding" 1 (List.length ds);
  checki "as info, not error" 0 (D.errors ds)

let seeded_island_race () =
  (* Island 0's window-1 event touches island 1's state: the ownership
     contract breach, in the same window as island 1's own touch. *)
  let d' = { exec_d with I.x_touches = [ 1 ] } in
  let cap = { base_cap with I.c_execs = [| [ exec_a; d' ]; [ exec_b; exec_c ] |] } in
  let ds = verify cap in
  only "island-race" ds;
  checkb "verdict names the owner" true
    (List.exists
       (fun (d : D.t) ->
         d.D.rule = "island-race" && contains d.D.message "owned by island 1")
       ds)

(* The cross-window version of the same touch is the same breach: no
   other island touches island 1's state in window 0, and the owner's
   own touch comes a window later, but the toucher is still not the
   owner. *)
let cross_window_touch_is_flagged () =
  let a' = { exec_a with I.x_touches = [ 1 ] } in
  let b' = { exec_b with I.x_touches = [] } in
  let cap = { base_cap with I.c_execs = [| [ a'; exec_d ]; [ b'; exec_c ] |] } in
  only "island-race" (verify cap)

(* One diagnostic per (executing island, owner) pair, in island order. *)
let race_report_cap () =
  let a' = { exec_a with I.x_touches = [ 1; 1 ] } in
  let d' = { exec_d with I.x_touches = [ 1 ] } in
  let same_pair =
    { base_cap with I.c_execs = [| [ a'; d' ]; [ exec_b; exec_c ] |] }
  in
  only "island-race" (verify same_pair);
  let c' = { exec_c with I.x_touches = [ 0 ] } in
  let two_pairs =
    { base_cap with I.c_execs = [| [ a'; d' ]; [ exec_b; c' ] |] }
  in
  let ds = verify two_pairs in
  checki "two pairs, two diagnostics" 2 (count_rule "island-race" ds);
  Alcotest.(check (list (option string)))
    "island order" [ Some "island-0"; Some "island-1" ]
    (List.map (fun (d : D.t) -> d.D.loc.D.func) ds)

(* --- determinism certifier ---------------------------------------------- *)

let obs ?capture label render =
  { Det.r_label = label; r_render = render; r_capture = capture }

let certify_identical_is_silent () =
  let a = obs ~capture:base_cap "domains=1" "report\nbody\n" in
  let b = obs ~capture:base_cap "domains=4" "report\nbody\n" in
  checki "identical runs certify clean" 0
    (List.length (Det.certify ~label:"t" ~reference:a ~candidate:b))

let certify_log_divergence () =
  (* Same render, one executed key differs: the capture layer catches
     what the report diff cannot see. *)
  let forked =
    {
      base_cap with
      I.c_execs = [| [ exec_a; exec_d ]; [ exec_b; { exec_c with I.x_seq = 9 } ] |];
    }
  in
  let a = obs ~capture:base_cap "domains=1" "same\n" in
  let b = obs ~capture:forked "domains=4" "same\n" in
  let ds = Det.certify ~label:"t" ~reference:a ~candidate:b in
  checki "log divergence fires once" 1 (count_rule "det-log-divergence" ds);
  checki "render rule stays silent" 0 (count_rule "det-render-divergence" ds);
  checkb "divergence names the island" true
    (List.exists (fun (d : D.t) -> d.D.loc.D.func = Some "island-1") ds)

let certify_render_divergence () =
  let a = obs "domains=1" "line1\nline2\n" in
  let b = obs "domains=4" "line1\nline2 CHANGED\n" in
  let ds = Det.certify ~label:"t" ~reference:a ~candidate:b in
  checki "render divergence fires once" 1 (count_rule "det-render-divergence" ds);
  checkb "diagnostic pins the line" true
    (List.exists (fun (d : D.t) -> d.D.loc.D.site = Some "line 2") ds)

let seed_sensitivity () =
  let base = obs "base" "r\n" in
  checki "identical renders under a perturbed seed warn" 1
    (count_rule "det-seed-insensitive"
       (Det.check_seed_sensitivity ~label:"t" ~base
          ~perturbed:(obs "seed+1" "r\n")));
  checki "differing renders are what we want" 0
    (List.length
       (Det.check_seed_sensitivity ~label:"t" ~base
          ~perturbed:(obs "seed+1" "r'\n")))

(* --- clean corpus: real captured runs certify clean --------------------- *)

let small_fleet = Sched.Cluster.fleet ~nodes:8 ~jobs:60 ~seed:42

let small_cluster =
  Sched.Cluster.default
    ~topology:(Machine.Topology.make ~racks:2 ~nodes_per_rack:4 ())
    ~jobs:60 ~seed:42

let small_serve ?(crashes = []) () =
  {
    (Sched.Service.default ~nodes:4 ~seed:42
       ~source:
         (Sched.Arrival.bursty_source ~seed:42 ~services:2 ~duration_s:10.0 ()))
    with
    Sched.Service.crashes;
  }

let fleet_capture_is_clean () =
  let _, cap = Sched.Cluster.run_audited ~domains:2 small_fleet in
  let ds = verify cap in
  checki "fleet capture certifies clean" 0 (List.length ds);
  checkb "and is not vacuously empty" true
    (Array.exists (fun l -> l <> []) cap.I.c_execs);
  checkb "with cross-island posts recorded" true (cap.I.c_posts <> [])

let cluster_capture_is_clean () =
  let _, cap = Sched.Cluster.run_audited ~domains:2 small_cluster in
  let ds = verify cap in
  checki "cluster capture certifies clean" 0 (List.length ds);
  checkb "and is not vacuously empty" true
    (Array.exists (fun l -> l <> []) cap.I.c_execs);
  checkb "with cross-island posts recorded" true (cap.I.c_posts <> []);
  checkb "under a per-edge lookahead matrix" true (cap.I.c_edge <> [||])

let serve_capture_is_clean () =
  let _, cap = Sched.Service.run_audited ~domains:2 (small_serve ()) in
  let ds = verify cap in
  checki "serve capture certifies clean" 0 (List.length ds);
  checkb "and is not vacuously empty" true
    (Array.exists (fun l -> l <> []) cap.I.c_execs)

let crashy_serve_capture_is_clean () =
  (* Fault injection exercises the drain/crash paths, whose ownership
     touches must still all be island-local. *)
  let cfg = small_serve ~crashes:[ { Faults.Plan.node = 1; at = 2.0 } ] () in
  let _, cap = Sched.Service.run_audited ~domains:2 cfg in
  checki "crashy serve capture certifies clean" 0 (List.length (verify cap))

let fleet_non_owner_touch () =
  (* One node-island event of a real capture rewritten to touch the
     scheduler island's state: exactly one diagnostic, naming both. *)
  let _, cap = Sched.Cluster.run_audited ~domains:2 small_fleet in
  let rewritten = ref false in
  let node1 =
    List.map
      (fun (x : I.exec_rec) ->
        if (not !rewritten) && x.I.x_touches <> [] then begin
          rewritten := true;
          { x with I.x_touches = [ 0 ] }
        end
        else x)
      cap.I.c_execs.(1)
  in
  checkb "node island 1 touched its state" true !rewritten;
  let execs = Array.copy cap.I.c_execs in
  execs.(1) <- node1;
  let ds = verify { cap with I.c_execs = execs } in
  only "island-race" ds;
  checkb "names the executing island and the owner" true
    (List.exists
       (fun (d : D.t) ->
         contains d.D.message "on island 1 touched state owned by island 0")
       ds)

let audited_run_matches_plain () =
  (* Capture is pure observation: the audited run's render must be
     byte-identical to the plain run's. *)
  let plain =
    Sched.Cluster.render small_fleet (Sched.Cluster.run ~domains:1 small_fleet)
  in
  let r, _ = Sched.Cluster.run_audited ~domains:1 small_fleet in
  checks "capture does not perturb the schedule" plain
    (Sched.Cluster.render small_fleet r)

(* --- the audit driver ---------------------------------------------------- *)

let audit_small_corpus_clean () =
  let ds =
    Analysis.Audit.run ~domains:2 ~jobs:1 ~fleet:small_fleet
      ~cluster:small_cluster ~serve:(small_serve ()) ()
  in
  checki "zero errors over fleet+cluster+serve+scheduler" 0 (D.errors ds);
  checki "zero warnings either" 0 (D.warnings ds)

let audit_json_stable_across_jobs () =
  let run jobs =
    Analysis.Audit.run ~domains:2 ~jobs ~fleet:small_fleet
      ~cluster:small_cluster ~serve:(small_serve ()) ()
  in
  checks "byte-identical report" (D.report_to_json (run 1))
    (D.report_to_json (run 4))

let audit_rule_filter () =
  let ds =
    Analysis.Audit.run ~rules:[ "island-race" ] ~scenarios:[ Analysis.Audit.Fleet ]
      ~domains:2 ~jobs:1 ~fleet:small_fleet ()
  in
  checki "clean corpus, filtered" 0 (List.length ds);
  Alcotest.check_raises "unknown rule rejected"
    (Invalid_argument "Audit: unknown rule no-such-rule") (fun () ->
      ignore (Analysis.Audit.run ~rules:[ "no-such-rule" ] ()));
  checkb "scenario names round-trip" true
    (List.for_all
       (fun s ->
         Analysis.Audit.scenario_of_name (Analysis.Audit.scenario_name s)
         = Some s)
       Analysis.Audit.all_scenarios);
  checkb "registry covers all three passes" true
    (Analysis.Audit.is_rule "island-post-lookahead"
    && Analysis.Audit.is_rule "island-race"
    && Analysis.Audit.is_rule "det-log-divergence")

let suite =
  [
    ("baseline capture is clean", `Quick, baseline_is_clean);
    ("seeded: post below lookahead", `Quick, seeded_post_lookahead);
    ("seeded: exec before clock", `Quick, seeded_exec_before_clock);
    ("seeded: exec outside window", `Quick, seeded_exec_outside_window);
    ("seeded: out-of-order execution", `Quick, seeded_order);
    ("seeded: ambiguous key tie", `Quick, seeded_order_ambiguous);
    ("seeded: window regression", `Quick, seeded_window_regress);
    ("seeded: non-local prng draw", `Quick, seeded_prng_nonlocal);
    ("seeded: calendar tripwire", `Quick, seeded_calendar_order);
    ("seeded: empty capture", `Quick, seeded_empty_capture);
    ("seeded: non-owner race", `Quick, seeded_island_race);
    ("cross-window touch is flagged", `Quick, cross_window_touch_is_flagged);
    ("seeded: one race per island pair", `Quick, race_report_cap);
    ("certify: identical runs", `Quick, certify_identical_is_silent);
    ("certify: log divergence", `Quick, certify_log_divergence);
    ("certify: render divergence", `Quick, certify_render_divergence);
    ("certify: seed sensitivity", `Quick, seed_sensitivity);
    ("corpus: fleet capture clean", `Quick, fleet_capture_is_clean);
    ("corpus: cluster capture clean", `Quick, cluster_capture_is_clean);
    ("corpus: serve capture clean", `Quick, serve_capture_is_clean);
    ("corpus: crashy serve clean", `Quick, crashy_serve_capture_is_clean);
    ("corpus: fleet non-owner touch", `Quick, fleet_non_owner_touch);
    ("corpus: capture is pure observation", `Quick, audited_run_matches_plain);
    ("audit: small corpus clean", `Slow, audit_small_corpus_clean);
    ("audit: json stable across jobs", `Quick, audit_json_stable_across_jobs);
    ("audit: rule filtering", `Quick, audit_rule_filter);
  ]
