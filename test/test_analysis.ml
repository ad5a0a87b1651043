(* The hetmig lint subsystem: diagnostics, the five analysis passes, the
   vector-clock race detector, and the seeded-corruption proofs that each
   pass can actually fail. *)

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let checks msg = Alcotest.check Alcotest.string msg

module D = Analysis.Diagnostic

let has_rule rule ds = List.exists (fun (d : D.t) -> d.D.rule = rule) ds
let count_rule rule ds =
  List.length (List.filter (fun (d : D.t) -> d.D.rule = rule) ds)

(* --- diagnostics core --------------------------------------------------- *)

let diagnostic_render () =
  let d =
    D.make ~rule:"stackmap-missing-entry" ~severity:D.Error ~prog:"cg.A"
      ~func:"conj_grad" ~site:"call:0" "no entry"
  in
  checks "human line" "error stackmap-missing-entry cg.A/conj_grad@call:0: no entry"
    (Format.asprintf "%a" D.pp d);
  checks "json object"
    "{\"rule\":\"stackmap-missing-entry\",\"severity\":\"error\",\"prog\":\"cg.A\",\"func\":\"conj_grad\",\"site\":\"call:0\",\"message\":\"no entry\"}"
    (D.to_json d);
  let bare = D.make ~rule:"r" ~severity:D.Info ~prog:"p" "m \"q\"\n" in
  checks "null fields and escaping"
    "{\"rule\":\"r\",\"severity\":\"info\",\"prog\":\"p\",\"func\":null,\"site\":null,\"message\":\"m \\\"q\\\"\\n\"}"
    (D.to_json bare);
  (* Tab, CR and other control bytes go through Obs's encoder as
     \u00XX escapes. *)
  let ctl = D.make ~rule:"r" ~severity:D.Info ~prog:"p" "a\tb\rc\001" in
  checks "null fields and escaping: control bytes"
    "{\"rule\":\"r\",\"severity\":\"info\",\"prog\":\"p\",\"func\":null,\"site\":null,\"message\":\"a\\u0009b\\u000dc\\u0001\"}"
    (D.to_json ctl)

let diagnostic_report_deterministic () =
  let d1 = D.make ~rule:"b" ~severity:D.Error ~prog:"z" "late" in
  let d2 = D.make ~rule:"a" ~severity:D.Warning ~prog:"a" "early" in
  checks "order independent" (D.report_to_json [ d1; d2 ])
    (D.report_to_json [ d2; d1 ]);
  checki "errors counted" 1 (D.errors [ d1; d2 ]);
  checki "warnings counted" 1 (D.warnings [ d1; d2 ])

(* --- race detector ------------------------------------------------------ *)

let acc node page write = Dsm.Hdsm.Obs_access { node; page; write }
let sync src dst = Dsm.Hdsm.Obs_sync { src; dst }
let detect = Analysis.Race.detect

let race_basic () =
  checki "write/write unordered" 1
    (List.length (detect ~units:2 [ acc 0 7 true; acc 1 7 true ]));
  checki "read/read never races" 0
    (List.length (detect ~units:2 [ acc 0 7 false; acc 1 7 false ]));
  checki "distinct pages don't race" 0
    (List.length (detect ~units:2 [ acc 0 7 true; acc 1 8 true ]));
  checki "same unit is program-ordered" 0
    (List.length (detect ~units:2 [ acc 0 7 true; acc 0 7 true ]))

let race_sync_edges () =
  checki "message orders the pair" 0
    (List.length (detect ~units:2 [ acc 0 7 true; sync 0 1; acc 1 7 true ]));
  checki "transitive through a middleman" 0
    (List.length
       (detect ~units:3
          [ acc 0 7 true; sync 0 1; sync 1 2; acc 2 7 true ]));
  checki "edge in the wrong direction doesn't order" 1
    (List.length (detect ~units:2 [ acc 0 7 true; sync 1 0; acc 1 7 true ]));
  (* The sender keeps running after the send: its later accesses are NOT
     ordered before the receiver's. *)
  checki "post-send write still races" 1
    (List.length (detect ~units:2 [ sync 0 1; acc 0 7 true; acc 1 7 true ]))

let race_read_write () =
  checki "unordered read then write races" 1
    (List.length (detect ~units:2 [ acc 0 7 false; acc 1 7 true ]));
  checki "unordered write then read races" 1
    (List.length (detect ~units:2 [ acc 0 7 true; acc 1 7 false ]));
  let r =
    List.hd (detect ~units:2 [ acc 0 7 false; acc 1 7 true ])
  in
  checki "prior access index" 0 r.Analysis.Race.first_index;
  checki "racing access index" 1 r.Analysis.Race.second_index;
  checkb "prior was a read" true (not r.Analysis.Race.first_write)

let race_report_once_per_page () =
  let log =
    [ acc 0 7 true; acc 1 7 true; acc 0 7 true; acc 1 7 true; acc 1 9 true;
      acc 0 9 true ]
  in
  checki "one report per racy page" 2 (List.length (detect ~units:2 log))

let race_rejects_bad_units () =
  Alcotest.check_raises "unit out of range"
    (Invalid_argument "Race.detect: unit 5 out of range") (fun () ->
      ignore (detect ~units:2 [ acc 5 0 true ]))

(* --- pass 1: IR well-formedness ---------------------------------------- *)

(* Build IR records directly so ill-formed shapes the safe constructors
   reject still reach the linter. *)
let raw_func ?(params = []) ?(is_library = false) name body =
  { Ir.Prog.fname = name; params; body; is_leaf = false; is_library }

let raw_prog ?(globals = []) name funcs entry =
  {
    Ir.Prog.name;
    funcs = List.map (fun (f : Ir.Prog.func) -> (f.Ir.Prog.fname, f)) funcs;
    globals;
    entry;
  }

let v ?(init = Ir.Prog.Scalar) vname ty = { Ir.Prog.vname; ty; init }

let ir_detects_corruptions () =
  let callee =
    raw_func "helper" ~params:[ v "x" Ir.Ty.I64 ] [ Ir.Prog.Use "x" ]
  in
  let bad_body =
    [
      Ir.Prog.Use "ghost";
      Ir.Prog.Def (v "a" Ir.Ty.I64);
      Ir.Prog.Def (v "p" ~init:(Ir.Prog.Ptr_to_global "nosuch") Ir.Ty.I32);
      Ir.Prog.Call { site_id = 0; callee = "helper"; args = [ "a"; "a" ] };
      Ir.Prog.Call { site_id = 0; callee = "missing"; args = [] };
      Ir.Prog.Loop { trips = 0; body = [ Ir.Prog.Use "a" ] };
    ]
  in
  let prog = raw_prog "bad" [ raw_func "main" bad_body; callee ] "main" in
  let ds = Analysis.Ir_check.check prog in
  checkb "use before def" true (has_rule "ir-undefined-use" ds);
  checkb "pointer typed non-Ptr" true (has_rule "ir-pointer-type" ds);
  checkb "unknown global" true (has_rule "ir-unknown-global" ds);
  checkb "arity mismatch" true (has_rule "ir-call-arity" ds);
  checkb "unknown callee" true (has_rule "ir-unknown-callee" ds);
  checkb "duplicate site id" true (has_rule "ir-duplicate-site" ds);
  checkb "non-positive loop" true (has_rule "ir-loop-trips" ds);
  let no_entry = raw_prog "noent" [ callee ] "main" in
  checkb "missing entry" true
    (has_rule "ir-missing-entry" (Analysis.Ir_check.check no_entry))

let ir_arg_types_and_reachability () =
  let callee =
    raw_func "helper" ~params:[ v "x" Ir.Ty.F64 ] [ Ir.Prog.Use "x" ]
  in
  let orphan = raw_func "orphan" [ Ir.Prog.Work { instructions = 1; category = Isa.Cost_model.Mixed; memory_touched = 0 } ] in
  let main =
    raw_func "main"
      [
        Ir.Prog.Def (v "i" Ir.Ty.I64);
        Ir.Prog.Call { site_id = 0; callee = "helper"; args = [ "i" ] };
      ]
  in
  let ds = Analysis.Ir_check.check (raw_prog "p" [ main; callee; orphan ] "main") in
  checkb "arg/param type clash" true (has_rule "ir-call-arg-type" ds);
  checkb "orphan flagged unreachable" true (has_rule "ir-unreachable-function" ds);
  let unreachable =
    List.find (fun (d : D.t) -> d.D.rule = "ir-unreachable-function") ds
  in
  checkb "unreachable is a warning, not an error" true
    (unreachable.D.severity = D.Warning)

(* --- passes 2-4: seeded corruption of a compiled binary ----------------- *)

let cg_binary = lazy (Hetmig.Het.compile_benchmark Workload.Spec.CG Workload.Spec.A)

let first_isa (b : Compiler.Toolchain.t) = List.hd b.Compiler.Toolchain.isas
let second_isa (b : Compiler.Toolchain.t) =
  List.nth b.Compiler.Toolchain.isas 1

let stackmap_drop_entry_detected () =
  let b = Lazy.force cg_binary in
  let per = first_isa b in
  let corrupted =
    { per with Compiler.Toolchain.stackmaps = List.tl per.Compiler.Toolchain.stackmaps }
  in
  let clean =
    Analysis.Stackmap_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog per
  in
  checki "clean binary has no stackmap diagnostics" 0 (List.length clean);
  let ds =
    Analysis.Stackmap_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog
      corrupted
  in
  checkb "dropped entry detected" true (has_rule "stackmap-missing-entry" ds);
  let cross = Analysis.Stackmap_check.check_pair ~label:"cg.A" corrupted (second_isa b) in
  checkb "cross-ISA site mismatch reported" true
    (has_rule "stackmap-site-mismatch" cross)

let stackmap_bad_location_detected () =
  let b = Lazy.force cg_binary in
  let per = first_isa b in
  let arch = per.Compiler.Toolchain.arch in
  (* Re-home the first slot-resident value 4 bytes off: misaligned and in
     disagreement with the backend's frame layout. *)
  let tampered = ref false in
  let stackmaps =
    List.map
      (fun (e : Compiler.Stackmap.entry) ->
        if !tampered then e
        else
          let live =
            List.map
              (fun (name, (tl : Compiler.Stackmap.ty_loc)) ->
                match tl.Compiler.Stackmap.loc with
                | Compiler.Backend.In_slot k when not !tampered ->
                    tampered := true;
                    (name, { tl with Compiler.Stackmap.loc = Compiler.Backend.In_slot (k + 4) })
                | _ -> (name, tl))
              e.Compiler.Stackmap.live
          in
          { e with Compiler.Stackmap.live })
      per.Compiler.Toolchain.stackmaps
  in
  checkb "found a slot to corrupt" true !tampered;
  let ds =
    Analysis.Stackmap_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog
      { per with Compiler.Toolchain.stackmaps }
  in
  checkb "misaligned slot detected" true (has_rule "stackmap-slot-misaligned" ds);
  checkb "frame disagreement detected" true (has_rule "stackmap-frame-disagree" ds);
  (* A caller-saved register is never a legal home for a live value. *)
  let scratch = List.hd (Isa.Register.caller_saved arch) in
  let tampered = ref false in
  let stackmaps =
    List.map
      (fun (e : Compiler.Stackmap.entry) ->
        match e.Compiler.Stackmap.live with
        | (name, tl) :: rest when not !tampered ->
            tampered := true;
            { e with
              Compiler.Stackmap.live =
                (name, { tl with Compiler.Stackmap.loc = Compiler.Backend.In_register scratch })
                :: rest }
        | _ -> e)
      per.Compiler.Toolchain.stackmaps
  in
  checkb "found an entry to corrupt" true !tampered;
  let ds =
    Analysis.Stackmap_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog
      { per with Compiler.Toolchain.stackmaps }
  in
  checkb "caller-saved home detected" true
    (has_rule "stackmap-caller-saved-register" ds)

let unwind_corruptions_detected () =
  let b = Lazy.force cg_binary in
  let per = first_isa b in
  let clean =
    Analysis.Unwind_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog per
  in
  checki "clean binary has no unwind errors" 0 (D.errors clean);
  (* Breaking 16-byte frame alignment breaks CFA-chain monotonicity. *)
  let unwind =
    match per.Compiler.Toolchain.unwind with
    | (r : Compiler.Unwind.rule) :: rest ->
        { r with Compiler.Unwind.frame_bytes = r.Compiler.Unwind.frame_bytes + 8 } :: rest
    | [] -> Alcotest.fail "no unwind rules"
  in
  let ds =
    Analysis.Unwind_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog
      { per with Compiler.Toolchain.unwind }
  in
  checkb "misaligned frame detected" true (has_rule "unwind-frame-align" ds);
  checkb "rule/layout size disagreement detected" true
    (has_rule "unwind-frame-size-disagree" ds);
  (* Swap a callee-save slot onto a live-value slot: the restored register
     would clobber the value mid-transformation. *)
  let victim =
    List.find_map
      (fun (fname, (f : Compiler.Backend.frame)) ->
        match
          ( f.Compiler.Backend.save_offsets,
            List.find_map
              (fun (_, loc) ->
                match loc with
                | Compiler.Backend.In_slot k -> Some k
                | Compiler.Backend.In_register _ -> None)
              f.Compiler.Backend.locations )
        with
        | _ :: _, Some slot -> Some (fname, slot)
        | _ -> None)
      per.Compiler.Toolchain.frames
  in
  match victim with
  | None -> Alcotest.fail "no function with both saves and spilled locals"
  | Some (fname, slot) ->
      let unwind =
        List.map
          (fun (r : Compiler.Unwind.rule) ->
            if r.Compiler.Unwind.fname <> fname then r
            else
              match r.Compiler.Unwind.saved_registers with
              | (reg, _) :: rest ->
                  { r with Compiler.Unwind.saved_registers = (reg, slot) :: rest }
              | [] -> r)
          per.Compiler.Toolchain.unwind
      in
      let ds =
        Analysis.Unwind_check.check_isa ~label:"cg.A" ~prog:b.Compiler.Toolchain.prog
          { per with Compiler.Toolchain.unwind }
      in
      checkb "save slot over live value detected" true
        (has_rule "unwind-save-overlaps-local" ds)

let unwind_recursive_is_info () =
  let f =
    raw_func "f"
      [ Ir.Prog.Call { site_id = 0; callee = "g"; args = [] } ]
  in
  let g =
    raw_func "g"
      [ Ir.Prog.Call { site_id = 0; callee = "f"; args = [] } ]
  in
  let prog = raw_prog "rec" [ f; g ] "f" in
  let binary = Compiler.Toolchain.compile prog in
  let ds = Analysis.Unwind_check.check binary in
  checkb "recursion reported" true (has_rule "unwind-recursive" ds);
  checki "but not as an error" 0 (D.errors ds)

let layout_skew_detected () =
  let b = Lazy.force cg_binary in
  let aligned = b.Compiler.Toolchain.aligned in
  checki "clean binary has an aligned layout" 0
    (List.length (Analysis.Layout_check.check_aligned ~label:"cg.A" aligned));
  (* Skew one symbol's address on one ISA only. *)
  let skew (l : Binary.Layout.t) =
    match l.Binary.Layout.placed with
    | (p : Binary.Layout.placed) :: rest ->
        { l with Binary.Layout.placed = { p with Binary.Layout.addr = p.Binary.Layout.addr + 4096 } :: rest }
    | [] -> l
  in
  let layouts =
    match aligned.Binary.Align.layouts with
    | (arch, l) :: rest -> (arch, skew l) :: rest
    | [] -> []
  in
  let ds =
    Analysis.Layout_check.check_aligned ~label:"cg.A"
      { aligned with Binary.Align.layouts }
  in
  checkb "skewed address detected" true (has_rule "layout-address-mismatch" ds);
  (* Shrink a data symbol on one ISA: common-format data must agree. *)
  let shrink (l : Binary.Layout.t) =
    let done_ = ref false in
    let placed =
      List.map
        (fun (p : Binary.Layout.placed) ->
          let sym = p.Binary.Layout.symbol in
          if (not !done_) && not (Memsys.Symbol.is_function sym) then begin
            done_ := true;
            { p with
              Binary.Layout.symbol = { sym with Memsys.Symbol.size = sym.Memsys.Symbol.size / 2 } }
          end
          else p)
        l.Binary.Layout.placed
    in
    { l with Binary.Layout.placed }
  in
  let layouts =
    match aligned.Binary.Align.layouts with
    | (arch, l) :: rest -> (arch, shrink l) :: rest
    | [] -> []
  in
  let ds =
    Analysis.Layout_check.check_aligned ~label:"cg.A"
      { aligned with Binary.Align.layouts }
  in
  checkb "data size skew detected" true (has_rule "layout-size-mismatch" ds)

(* --- pass 5: DSM race detection over captured logs ---------------------- *)

let captured_log =
  lazy
    (let binary = Hetmig.Het.compile_benchmark Workload.Spec.IS Workload.Spec.A in
     let spec = Workload.Spec.spec Workload.Spec.IS Workload.Spec.A in
     Analysis.Dsm_check.capture ~binary ~spec)

let capture_is_clean_and_nonempty () =
  let events, units = Lazy.force captured_log in
  checkb "log has accesses" true
    (List.exists
       (function Dsm.Hdsm.Obs_access _ -> true | _ -> false)
       events);
  checkb "log has sync edges" true
    (List.exists (function Dsm.Hdsm.Obs_sync _ -> true | _ -> false) events);
  checkb "both nodes accessed pages" true
    (List.exists
       (function Dsm.Hdsm.Obs_access { node; _ } -> node = 1 | _ -> false)
       events);
  checki "coherent run is race-free" 0
    (List.length (Analysis.Race.detect ~units events))

let stripped_log_is_racy () =
  (* Remove the coherence messages from a real captured log: the same
     accesses, now unordered, must race — proving the HB edges (not the
     detector being trivially happy) make the clean verdict. *)
  let events, units = Lazy.force captured_log in
  let stripped =
    List.filter
      (function Dsm.Hdsm.Obs_access _ -> true | _ -> false)
      events
  in
  checkb "stripped log races" true
    (Analysis.Race.detect ~units stripped <> []);
  let ds = Analysis.Dsm_check.check_log ~label:"is.A" ~units stripped in
  checkb "reported as dsm-race errors" true (has_rule "dsm-race" ds);
  checkb "all race diagnostics are errors" true
    (D.errors ds = List.length ds)

let empty_log_is_flagged () =
  let ds = Analysis.Dsm_check.check_log ~label:"x" ~units:2 [] in
  checkb "empty log noted" true (has_rule "dsm-empty-log" ds);
  checki "but no errors" 0 (D.errors ds)

(* --- the driver: corpus, filtering, determinism ------------------------- *)

let builtin_corpus_clean () =
  let ds = Analysis.Lint.run () in
  checki "zero errors over every benchmark and class" 0 (D.errors ds);
  checki "zero warnings either" 0 (D.warnings ds)

let json_stable_across_jobs () =
  let targets =
    List.filter
      (fun (t : Analysis.Lint.target) -> t.Analysis.Lint.cls = Workload.Spec.A)
      Analysis.Lint.all_targets
  in
  let seq = Analysis.Lint.run ~targets ~jobs:1 () in
  let par = Analysis.Lint.run ~targets ~jobs:4 () in
  checks "byte-identical report" (D.report_to_json seq) (D.report_to_json par)

let rule_filter () =
  let target = { Analysis.Lint.bench = Workload.Spec.CG; cls = Workload.Spec.A } in
  let ds = Analysis.Lint.lint_target ~rules:[ "layout-address-mismatch" ] target in
  checki "clean target, filtered" 0 (List.length ds);
  Alcotest.check_raises "unknown rule rejected"
    (Invalid_argument "Lint: unknown rule no-such-rule") (fun () ->
      ignore (Analysis.Lint.lint_target ~rules:[ "no-such-rule" ] target));
  checkb "target name round-trips" true
    (Analysis.Lint.target_of_name "cg.A" = Some target);
  checkb "registry covers the dsm pass" true (Analysis.Lint.is_rule "dsm-race")

(* --- stackmap diff (satellite 1) ---------------------------------------- *)

let sm_entry fname kind site_id live =
  { Compiler.Stackmap.fname; kind; site_id; live }

let tl ty k = { Compiler.Stackmap.ty; loc = Compiler.Backend.In_slot k }

let diff_sites_exhaustive () =
  let a =
    [
      sm_entry "f" Ir.Liveness.At_call 0 [ ("x", tl Ir.Ty.I64 8) ];
      sm_entry "f" Ir.Liveness.At_mig_point 1 [ ("y", tl Ir.Ty.F64 16) ];
      sm_entry "g" Ir.Liveness.At_call 0 [];
    ]
  in
  let b =
    [
      sm_entry "f" Ir.Liveness.At_call 0 [ ("z", tl Ir.Ty.I64 8) ];
      sm_entry "g" Ir.Liveness.At_call 0 [];
    ]
  in
  let mismatches = Compiler.Stackmap.diff_sites a b in
  (* A live-set disagreement, a missing site, AND the order shift the
     missing site causes on g: all three reported, not just the first. *)
  checki "every disagreement reported" 3 (List.length mismatches);
  checkb "live-set diff present" true
    (List.exists
       (function Compiler.Stackmap.Live_set _ -> true | _ -> false)
       mismatches);
  checkb "missing site present" true
    (List.exists
       (function
         | Compiler.Stackmap.Site_missing { missing_in = `Second; _ } -> true
         | _ -> false)
       mismatches);
  let pairs, report = Compiler.Stackmap.join_sites a b in
  checki "agreeing sites still paired" 1 (List.length pairs);
  checki "join carries the full report" (List.length mismatches)
    (List.length report)

(* --- QCheck: mutation-style over random programs ------------------------ *)

let qcheck_ir_mutations =
  QCheck.Test.make ~name:"random-program mutations trip the IR pass" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prog = Gen.random_program seed in
      (* Gen programs are well-formed apart from call-argument types (the
         generator picks arguments by arity only). *)
      let baseline = Analysis.Ir_check.check prog in
      let only_types =
        List.for_all
          (fun (d : D.t) ->
            d.D.severity <> D.Error || d.D.rule = "ir-call-arg-type")
          baseline
      in
      let entry = Ir.Prog.find_func prog prog.Ir.Prog.entry in
      let with_body body =
        let funcs =
          List.map
            (fun (name, f) ->
              if name = prog.Ir.Prog.entry then (name, { f with Ir.Prog.body })
              else (name, f))
            prog.Ir.Prog.funcs
        in
        { prog with Ir.Prog.funcs }
      in
      let use_undef =
        with_body (entry.Ir.Prog.body @ [ Ir.Prog.Use "__nowhere" ])
      in
      let bad_call =
        with_body
          (entry.Ir.Prog.body
          @ [ Ir.Prog.Call { site_id = 9999; callee = "__missing"; args = [] } ])
      in
      only_types
      && has_rule "ir-undefined-use" (Analysis.Ir_check.check use_undef)
      && has_rule "ir-unknown-callee" (Analysis.Ir_check.check bad_call))

let qcheck_stackmap_mutations =
  QCheck.Test.make ~name:"dropping any stackmap entry is always caught"
    ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let prog = Gen.random_program seed in
      let binary = Compiler.Toolchain.compile prog in
      let per = List.hd binary.Compiler.Toolchain.isas in
      match per.Compiler.Toolchain.stackmaps with
      | [] -> true
      | entries ->
          let drop = seed mod List.length entries in
          let stackmaps = List.filteri (fun i _ -> i <> drop) entries in
          let ds =
            Analysis.Stackmap_check.check_isa ~label:prog.Ir.Prog.name
              ~prog:binary.Compiler.Toolchain.prog
              { per with Compiler.Toolchain.stackmaps }
          in
          count_rule "stackmap-missing-entry" ds = 1)

let suite =
  [
    ("diagnostic rendering", `Quick, diagnostic_render);
    ("diagnostic report determinism", `Quick, diagnostic_report_deterministic);
    ("race: conflicting access basics", `Quick, race_basic);
    ("race: sync edges order", `Quick, race_sync_edges);
    ("race: read/write conflicts", `Quick, race_read_write);
    ("race: one report per page", `Quick, race_report_once_per_page);
    ("race: bad unit rejected", `Quick, race_rejects_bad_units);
    ("ir pass detects corruptions", `Quick, ir_detects_corruptions);
    ("ir pass: arg types and reachability", `Quick, ir_arg_types_and_reachability);
    ("stackmap pass: dropped entry", `Quick, stackmap_drop_entry_detected);
    ("stackmap pass: bad locations", `Quick, stackmap_bad_location_detected);
    ("unwind pass: frame corruptions", `Quick, unwind_corruptions_detected);
    ("unwind pass: recursion is info", `Quick, unwind_recursive_is_info);
    ("layout pass: skewed symbols", `Quick, layout_skew_detected);
    ("dsm pass: coherent capture is clean", `Quick, capture_is_clean_and_nonempty);
    ("dsm pass: stripped log races", `Quick, stripped_log_is_racy);
    ("dsm pass: empty log flagged", `Quick, empty_log_is_flagged);
    ("lint: built-in corpus is clean", `Slow, builtin_corpus_clean);
    ("lint: json stable across jobs", `Quick, json_stable_across_jobs);
    ("lint: rule filtering", `Quick, rule_filter);
    ("stackmap diff is exhaustive", `Quick, diff_sites_exhaustive);
    QCheck_alcotest.to_alcotest qcheck_ir_mutations;
    QCheck_alcotest.to_alcotest qcheck_stackmap_mutations;
  ]
