let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

module Astring_contains = struct
  let contains haystack needle =
    let n = String.length haystack and m = String.length needle in
    let rec go i =
      if i + m > n then false
      else if String.sub haystack i m = needle then true
      else go (i + 1)
    in
    go 0
end

open Ir.Prog

let v ?(init = Scalar) vname ty = { vname; ty; init }

let w ?(n = 1000) () =
  Work { instructions = n; category = Isa.Cost_model.Mixed; memory_touched = 0 }

let sample_func =
  make_func ~name:"sample"
    ~params:[ v "p0" Ir.Ty.I64; v "p1" Ir.Ty.F64 ]
    ~body:
      [
        Def (v "a" Ir.Ty.I64);
        Def (v "buf" Ir.Ty.I64);
        Def (v ~init:(Ptr_to_local "buf") "bp" Ir.Ty.Ptr);
        w ();
        Call { site_id = 0; callee = "sample_leaf"; args = [ "a" ] };
        Use "bp"; Use "buf"; Use "p0"; Use "p1";
      ]

let sample_leaf =
  make_func ~name:"sample_leaf" ~params:[ v "x" Ir.Ty.I64 ]
    ~body:[ w (); Use "x" ]

let sample_prog =
  make ~name:"sample" ~funcs:[ sample_func; sample_leaf ]
    ~globals:
      [ Memsys.Symbol.make ~name:"g" ~section:Memsys.Symbol.Data ~size:64
          ~alignment:8 ]
    ~entry:"sample"

(* --- backend ------------------------------------------------------------- *)

let backend_code_sizes_differ () =
  let a = Compiler.Backend.code_size Isa.Arch.Arm64 sample_func in
  let x = Compiler.Backend.code_size Isa.Arch.X86_64 sample_func in
  checkb "positive" true (a > 0 && x > 0);
  checkb "16-aligned" true (a mod 16 = 0 && x mod 16 = 0);
  (* A register-hungry function spills far more on x86, so the code sizes
     must structurally diverge. *)
  let hungry =
    make_func ~name:"hungry" ~params:[]
      ~body:
        (List.init 14 (fun i -> Def (v (Printf.sprintf "h%d" i) Ir.Ty.I64))
        @ List.init 14 (fun i -> Use (Printf.sprintf "h%d" i)))
  in
  checkb "differ across ISAs" true
    (Compiler.Backend.code_size Isa.Arch.Arm64 hungry
    <> Compiler.Backend.code_size Isa.Arch.X86_64 hungry)

let backend_frame_covers_all_locals () =
  List.iter
    (fun arch ->
      let f = Compiler.Backend.frame_layout arch sample_func in
      List.iter
        (fun lv ->
          checkb (lv.vname ^ " located") true
            (List.mem_assoc lv.vname f.Compiler.Backend.locations))
        (locals sample_func))
    Isa.Arch.all

let backend_address_taken_in_slot () =
  (* buf's address is taken: it must live in memory on every ISA. *)
  List.iter
    (fun arch ->
      let f = Compiler.Backend.frame_layout arch sample_func in
      match Compiler.Backend.location_of f "buf" with
      | Compiler.Backend.In_slot _ -> ()
      | Compiler.Backend.In_register _ ->
        Alcotest.fail "address-taken local allocated to a register")
    Isa.Arch.all

let backend_register_homes_are_callee_saved () =
  List.iter
    (fun arch ->
      let f = Compiler.Backend.frame_layout arch sample_func in
      List.iter
        (fun (_, loc) ->
          match loc with
          | Compiler.Backend.In_register r ->
            checkb "callee-saved" true (Isa.Register.is_callee_saved r)
          | Compiler.Backend.In_slot off -> checkb "positive offset" true (off > 0))
        f.Compiler.Backend.locations)
    Isa.Arch.all

let backend_slots_disjoint () =
  List.iter
    (fun arch ->
      let f = Compiler.Backend.frame_layout arch sample_func in
      let slots =
        List.filter_map
          (fun (_, loc) ->
            match loc with
            | Compiler.Backend.In_slot off -> Some off
            | Compiler.Backend.In_register _ -> None)
          f.Compiler.Backend.locations
      in
      checki "slots unique"
        (List.length slots)
        (List.length (List.sort_uniq compare slots));
      (* Slots must not collide with the callee-save area. *)
      let saves = List.length f.Compiler.Backend.callee_saved_used in
      List.iter
        (fun off -> checkb "below save area" true (off > saves * 8))
        slots)
    Isa.Arch.all

let backend_frame_fits () =
  List.iter
    (fun arch ->
      let f = Compiler.Backend.frame_layout arch sample_func in
      let max_off =
        List.fold_left
          (fun acc (_, loc) ->
            match loc with
            | Compiler.Backend.In_slot off -> max acc off
            | Compiler.Backend.In_register _ -> acc)
          0 f.Compiler.Backend.locations
      in
      checkb "frame contains deepest slot" true
        (f.Compiler.Backend.frame_bytes >= max_off);
      checki "frame 16-aligned" 0 (f.Compiler.Backend.frame_bytes mod 16))
    Isa.Arch.all

let backend_x86_fewer_registers () =
  (* Many locals: ARM64's 10 allocatable callee-saved registers vs x86's 5
     must produce more spills on x86. *)
  let many =
    make_func ~name:"many" ~params:[]
      ~body:
        (List.init 12 (fun i -> Def (v (Printf.sprintf "l%d" i) Ir.Ty.I64))
        @ List.init 12 (fun i -> Use (Printf.sprintf "l%d" i)))
  in
  let count_spills arch =
    let f = Compiler.Backend.frame_layout arch many in
    List.length
      (List.filter
         (fun (_, l) ->
           match l with
           | Compiler.Backend.In_slot _ -> true
           | Compiler.Backend.In_register _ -> false)
         f.Compiler.Backend.locations)
  in
  checkb "x86 spills more" true
    (count_spills Isa.Arch.X86_64 > count_spills Isa.Arch.Arm64)

(* --- stackmaps ------------------------------------------------------------ *)

let stackmap_entries_per_site () =
  let frame = Compiler.Backend.frame_layout Isa.Arch.Arm64 sample_func in
  let entries = Compiler.Stackmap.generate sample_func frame in
  checki "one entry per equivalence point" 1 (List.length entries);
  let e = List.hd entries in
  checkb "live sorted" true
    (let names = List.map fst e.Compiler.Stackmap.live in
     names = List.sort compare names)

let stackmap_sites_agree () =
  let fa = Compiler.Backend.frame_layout Isa.Arch.Arm64 sample_func in
  let fx = Compiler.Backend.frame_layout Isa.Arch.X86_64 sample_func in
  let ea = Compiler.Stackmap.generate sample_func fa in
  let ex = Compiler.Stackmap.generate sample_func fx in
  let pairs, report = Compiler.Stackmap.join_sites ea ex in
  checki "no mismatch" 0 (List.length report);
  checki "paired" (List.length ea) (List.length pairs);
  List.iter
    (fun ((a : Compiler.Stackmap.entry), (b : Compiler.Stackmap.entry)) ->
      Alcotest.check
        Alcotest.(list string)
        "same live names"
        (List.map fst a.Compiler.Stackmap.live)
        (List.map fst b.Compiler.Stackmap.live))
    pairs

(* --- unwind ----------------------------------------------------------------- *)

let unwind_rules () =
  List.iter
    (fun arch ->
      let frame = Compiler.Backend.frame_layout arch sample_func in
      let rule = Compiler.Unwind.of_frame frame in
      checkb "RA at FP+8 once spilled" true
        (rule.Compiler.Unwind.ra = Compiler.Unwind.Ra_at_offset 8);
      checki "one save slot per used callee-saved register"
        (List.length frame.Compiler.Backend.callee_saved_used)
        (List.length rule.Compiler.Unwind.saved_registers);
      (* Save slots are distinct and positive. *)
      let offs = List.map snd rule.Compiler.Unwind.saved_registers in
      checki "distinct" (List.length offs)
        (List.length (List.sort_uniq compare offs)))
    Isa.Arch.all

let unwind_saved_offset_lookup () =
  let frame = Compiler.Backend.frame_layout Isa.Arch.Arm64 sample_func in
  let rule = Compiler.Unwind.of_frame frame in
  match frame.Compiler.Backend.callee_saved_used with
  | [] -> ()
  | r :: _ ->
    checkb "found" true (Compiler.Unwind.saved_offset rule r <> None);
    let unused = Isa.Register.by_name Isa.Arch.Arm64 "x28" in
    if
      not
        (List.exists
           (Isa.Register.equal unused)
           frame.Compiler.Backend.callee_saved_used)
    then checkb "absent for unused" true (Compiler.Unwind.saved_offset rule unused = None)

(* --- DWARF CFI ------------------------------------------------------------ *)

let dwarf_cie_per_isa () =
  let arm = Compiler.Dwarf.render_cie Isa.Arch.Arm64 in
  let x86 = Compiler.Dwarf.render_cie Isa.Arch.X86_64 in
  checkb "arm RA column 30 (x30)" true
    (String.length arm > 0
    && Astring_contains.contains arm "Return address column: 30");
  checkb "x86 RA column 16" true
    (Astring_contains.contains x86 "Return address column: 16")

let dwarf_fde_roundtrip () =
  List.iter
    (fun arch ->
      let frame = Compiler.Backend.frame_layout arch sample_func in
      let rule = Compiler.Unwind.of_frame frame in
      let fde = Compiler.Dwarf.render_fde rule ~code_base:0x401000 ~code_size:256 in
      let parsed = Compiler.Dwarf.parse_fde_offsets fde in
      (* Every callee-saved register's save slot must round-trip. *)
      List.iter
        (fun ((r : Isa.Register.t), off) ->
          Alcotest.check
            Alcotest.(option int)
            (r.Isa.Register.name ^ " offset parses back")
            (Some off)
            (List.assoc_opt r.Isa.Register.name parsed))
        rule.Compiler.Unwind.saved_registers)
    Isa.Arch.all

let dwarf_debug_frame_full () =
  let tc = Compiler.Toolchain.compile sample_prog in
  List.iter
    (fun arch ->
      let text = Hetmig.Het.debug_frame tc arch in
      checkb "has CIE" true (Astring_contains.contains text "CIE");
      checkb "one FDE per function" true
        (Astring_contains.contains text "FDE sample "
        && Astring_contains.contains text "FDE sample_leaf "))
    Isa.Arch.all

(* --- profiler ----------------------------------------------------------------- *)

let profiler_straight_line () =
  let f =
    make_func ~name:"f" ~params:[]
      ~body:[ w ~n:100 (); Call { site_id = 0; callee = "g"; args = [] }; w ~n:50 () ]
  in
  Alcotest.check
    Alcotest.(list (float 1e-9))
    "two gaps" [ 100.0; 50.0 ] (Compiler.Profiler.gaps f)

let profiler_loop_no_ep_melts () =
  let f =
    make_func ~name:"f" ~params:[]
      ~body:
        [ w ~n:10 (); Loop { trips = 5; body = [ w ~n:100 () ] }; w ~n:10 () ]
  in
  Alcotest.check
    Alcotest.(list (float 1e-9))
    "single melted gap" [ 520.0 ] (Compiler.Profiler.gaps f)

let profiler_loop_with_ep () =
  let f =
    make_func ~name:"f" ~params:[]
      ~body:
        [
          w ~n:10 ();
          Loop
            {
              trips = 3;
              body = [ w ~n:5 (); Mig_point 0; w ~n:7 () ];
            };
          w ~n:11 ();
        ]
  in
  (* entry->first ep: 10+5; per-iteration wrap: 7+5; exit: 7+11. *)
  Alcotest.check
    Alcotest.(list (float 1e-9))
    "prefix, wrap, suffix" [ 15.0; 12.0; 18.0 ] (Compiler.Profiler.gaps f)

let profiler_dynamic_checks () =
  let f =
    make_func ~name:"f" ~params:[]
      ~body:
        [ Mig_point 0; Loop { trips = 4; body = [ Mig_point 1 ] } ]
  in
  checki "loop multiplies checks" 5 (Compiler.Profiler.dynamic_checks f)

(* --- migration point insertion -------------------------------------------------- *)

let instrument_bounds_gaps () =
  let budget = 10_000 in
  let f =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          w ~n:50_000 ();
          Loop { trips = 100; body = [ w ~n:500 () ] };
          Loop
            {
              trips = 7;
              body = [ w ~n:3_000 (); Call { site_id = 0; callee = "leaf"; args = [] } ];
            };
        ]
  in
  let leaf = make_func ~name:"leaf" ~params:[] ~body:[ w ~n:200 () ] in
  let prog = make ~name:"p" ~funcs:[ f; leaf ] ~globals:[] ~entry:"main" in
  let inst = Compiler.Migration_points.instrument ~budget prog in
  checkb "gaps bounded" true
    (Compiler.Migration_points.check_instrumented ~budget inst = Ok ());
  checkb "points added" true (Compiler.Migration_points.count_points inst > 0)

let instrument_preserves_work () =
  let budget = 10_000 in
  let prog = Gen.random_program 1234 in
  let inst = Compiler.Migration_points.instrument ~budget prog in
  (* Dynamic totals may grow slightly from loop-chunk rounding, never
     shrink below the original. *)
  let before = Workload.Programs.total_dynamic prog in
  let after = Workload.Programs.total_dynamic inst in
  checkb "work preserved within rounding" true
    (after >= before *. 0.999 && after <= before *. 1.10)

let instrument_entry_exit_points () =
  let prog = Gen.random_program 77 in
  let inst = Compiler.Migration_points.instrument prog in
  List.iter
    (fun (_, func) ->
      (match func.body with
      | Mig_point _ :: _ -> ()
      | _ -> Alcotest.fail "no entry migration point");
      match List.rev func.body with
      | Mig_point _ :: _ -> ()
      | _ -> Alcotest.fail "no exit migration point")
    inst.funcs

let instrument_idempotent_effect () =
  let budget = 50_000 in
  let prog = Gen.random_program 4242 in
  let once = Compiler.Migration_points.instrument ~budget prog in
  let twice = Compiler.Migration_points.instrument ~budget once in
  checki "no growth on re-instrumentation"
    (Compiler.Migration_points.count_points once)
    (Compiler.Migration_points.count_points twice)

let library_functions_not_instrumented () =
  (* Paper Section 5.4: no migration during library code. *)
  let lib =
    as_library
      (make_func ~name:"lib_memcpy" ~params:[]
         ~body:[ w ~n:100_000 () ])
  in
  let main_f =
    make_func ~name:"main" ~params:[]
      ~body:[ Call { site_id = 0; callee = "lib_memcpy"; args = [] } ]
  in
  let prog = make ~name:"p" ~funcs:[ main_f; lib ] ~globals:[] ~entry:"main" in
  let inst = Compiler.Migration_points.instrument ~budget:1_000 prog in
  checki "library untouched" 0
    (List.length (Ir.Prog.mig_points (find_func inst "lib_memcpy")));
  checkb "user code instrumented" true
    (List.length (Ir.Prog.mig_points (find_func inst "main")) > 0);
  (* The gap bound holds for user code even though the library's long
     body is exempt. *)
  checkb "bound check exempts the library" true
    (Compiler.Migration_points.check_instrumented ~budget:1_000 inst = Ok ());
  checkb "library gap visible when included" true
    (Compiler.Profiler.max_gap ~include_library:true inst > 1_000.0)

let is_model_uses_libc () =
  let prog = Workload.Programs.program Workload.Spec.IS Workload.Spec.A in
  let memcpy = find_func prog "memcpy" in
  checkb "memcpy is library code" true memcpy.is_library;
  let inst = Compiler.Migration_points.instrument prog in
  checki "no points in memcpy" 0
    (List.length (Ir.Prog.mig_points (find_func inst "memcpy")))

let instrument_random_props =
  QCheck.Test.make ~name:"instrumentation bounds every gap" ~count:120
    QCheck.(int_bound 50_000)
    (fun seed ->
      let budget = 5_000 in
      let prog = Gen.random_program seed in
      let inst = Compiler.Migration_points.instrument ~budget prog in
      Compiler.Migration_points.check_instrumented ~budget inst = Ok ())

let tracer_random_props =
  QCheck.Test.make
    ~name:"tracer agrees with static accounting on random programs" ~count:120
    QCheck.(int_bound 60_000)
    (fun seed ->
      let budget = 5_000 in
      let prog = Gen.random_program seed in
      let inst = Compiler.Migration_points.instrument ~budget prog in
      let s = Compiler.Tracer.trace inst in
      let total = Workload.Programs.total_dynamic inst in
      let checks = Workload.Programs.total_checks inst in
      Float.abs (s.Compiler.Tracer.total_instructions -. total)
      <= Float.max 1.0 (total *. 1e-9)
      && Float.abs (s.Compiler.Tracer.checks_executed -. checks) < 0.5
      (* The dynamic worst interval respects the static bound (random
         programs have no library functions). *)
      && s.Compiler.Tracer.max_interval <= float_of_int budget)

(* --- dynamic tracer ---------------------------------------------------------- *)

let tracer_matches_static_totals () =
  List.iter
    (fun bench ->
      let prog = Workload.Programs.program bench Workload.Spec.A in
      let inst = Compiler.Migration_points.instrument prog in
      let s = Compiler.Tracer.trace inst in
      let expected = Workload.Programs.total_dynamic inst in
      checkb "dynamic totals agree" true
        (Float.abs (s.Compiler.Tracer.total_instructions -. expected)
        < expected *. 1e-9);
      checkb "check counts agree" true
        (Float.abs
           (s.Compiler.Tracer.checks_executed
           -. Workload.Programs.total_checks inst)
        < 0.5))
    [ Workload.Spec.CG; Workload.Spec.IS; Workload.Spec.FT; Workload.Spec.LU ]

let tracer_bounds_response_time () =
  (* After instrumentation, the *dynamic* worst interval between executed
     checks is within the budget — the end-to-end response-time claim. *)
  List.iter
    (fun bench ->
      let prog = Workload.Programs.program bench Workload.Spec.B in
      let inst = Compiler.Migration_points.instrument prog in
      let s = Compiler.Tracer.trace inst in
      (* Library code is never instrumented, so time spent inside it
         legitimately extends the interval (the Section 5.4 limitation);
         the bound is budget + the largest library call. *)
      let library_slack =
        List.fold_left
          (fun acc (_, f) ->
            if f.is_library then
              Float.max acc (float_of_int (Ir.Prog.dynamic_instructions f))
            else acc)
          0.0 inst.funcs
      in
      checkb
        (Workload.Spec.bench_to_string bench ^ " dynamic interval bounded")
        true
        (s.Compiler.Tracer.max_interval
        <= float_of_int Compiler.Migration_points.default_budget
           +. library_slack);
      (* ~50M instructions plus one library call is tens of milliseconds
         on either machine. *)
      let rt =
        Compiler.Tracer.worst_response_time_s inst
          (Isa.Cost_model.of_arch Isa.Arch.Arm64)
      in
      checkb "response under 100ms even on the ARM" true (rt < 0.1))
    Workload.Spec.npb

let tracer_rejects_recursion () =
  let f =
    make_func ~name:"main" ~params:[]
      ~body:[ Call { site_id = 0; callee = "main"; args = [] } ]
  in
  let p = make ~name:"rec" ~funcs:[ f ] ~globals:[] ~entry:"main" in
  checkb "recursive rejected" true
    (try
       ignore (Compiler.Tracer.trace p);
       false
     with Invalid_argument _ -> true)

(* --- toolchain -------------------------------------------------------------------- *)

let toolchain_end_to_end () =
  let tc = Compiler.Toolchain.compile sample_prog in
  checkb "aligned" true
    (Binary.Align.check_aligned tc.Compiler.Toolchain.aligned = Ok ());
  checki "two ISAs" 2 (List.length tc.Compiler.Toolchain.isas);
  checkb "has migration points" true (tc.Compiler.Toolchain.migration_points > 0);
  List.iter
    (fun arch ->
      let per = Compiler.Toolchain.for_arch tc arch in
      checkb "elf entry in text" true
        (match
           Binary.Elf.segment_at per.Compiler.Toolchain.elf
             per.Compiler.Toolchain.elf.Binary.Elf.entry
         with
        | Some s -> s.Binary.Elf.name = ".text"
        | None -> false))
    Isa.Arch.all

let toolchain_tls_unified () =
  let tc = Compiler.Toolchain.compile sample_prog in
  let layouts =
    List.map (fun p -> p.Compiler.Toolchain.tls) tc.Compiler.Toolchain.isas
  in
  match layouts with
  | a :: rest ->
    List.iter
      (fun b -> checkb "TLS layouts compatible" true (Memsys.Tls.compatible a b))
      rest
  | [] -> Alcotest.fail "no layouts"

let toolchain_rejects_illformed () =
  let bad_func =
    make_func ~name:"main" ~params:[] ~body:[ Use "ghost" ]
  in
  let bad = make ~name:"bad" ~funcs:[ bad_func ] ~globals:[] ~entry:"main" in
  checkb "rejected" true
    (try
       ignore (Compiler.Toolchain.compile bad);
       false
     with Invalid_argument _ -> true)

let toolchain_natural_vs_aligned () =
  let naturals = Compiler.Toolchain.natural_layouts sample_prog in
  checki "two natural layouts" 2 (List.length naturals);
  List.iter
    (fun (_, l) -> checkb "valid" true (Binary.Layout.check_no_overlap l = Ok ()))
    naturals

let toolchain_stackmaps_consistent_across_isas () =
  let tc = Compiler.Toolchain.compile sample_prog in
  let maps =
    List.map (fun p -> p.Compiler.Toolchain.stackmaps) tc.Compiler.Toolchain.isas
  in
  match maps with
  | [ a; b ] ->
    let pairs, report = Compiler.Stackmap.join_sites a b in
    checki "no mismatch" 0 (List.length report);
    checki "pairs up" (List.length a) (List.length pairs)
  | _ -> Alcotest.fail "expected two metadata sets"

let suite =
  [
    ("backend code sizes differ per ISA", `Quick, backend_code_sizes_differ);
    ("backend locates every local", `Quick, backend_frame_covers_all_locals);
    ("backend spills address-taken locals", `Quick, backend_address_taken_in_slot);
    ("backend register homes callee-saved", `Quick,
     backend_register_homes_are_callee_saved);
    ("backend slots disjoint from save area", `Quick, backend_slots_disjoint);
    ("backend frame size sufficient", `Quick, backend_frame_fits);
    ("backend x86 spills more than arm", `Quick, backend_x86_fewer_registers);
    ("stackmap per-site entries", `Quick, stackmap_entries_per_site);
    ("stackmap cross-ISA agreement", `Quick, stackmap_sites_agree);
    ("unwind rules", `Quick, unwind_rules);
    ("unwind save-slot lookup", `Quick, unwind_saved_offset_lookup);
    ("profiler straight-line gaps", `Quick, profiler_straight_line);
    ("profiler melts call-free loops", `Quick, profiler_loop_no_ep_melts);
    ("profiler loop prefix/wrap/suffix", `Quick, profiler_loop_with_ep);
    ("profiler dynamic check count", `Quick, profiler_dynamic_checks);
    ("instrumentation bounds gaps", `Quick, instrument_bounds_gaps);
    ("instrumentation preserves work", `Quick, instrument_preserves_work);
    ("instrumentation adds entry/exit points", `Quick, instrument_entry_exit_points);
    ("instrumentation idempotent in effect", `Quick, instrument_idempotent_effect);
    ("dwarf CIE per ISA", `Quick, dwarf_cie_per_isa);
    ("dwarf FDE offsets round-trip", `Quick, dwarf_fde_roundtrip);
    ("dwarf full debug_frame", `Quick, dwarf_debug_frame_full);
    ("library functions exempt from instrumentation", `Quick,
     library_functions_not_instrumented);
    ("IS model routes through libc", `Quick, is_model_uses_libc);
    QCheck_alcotest.to_alcotest instrument_random_props;
    QCheck_alcotest.to_alcotest tracer_random_props;
    ("tracer matches static totals", `Quick, tracer_matches_static_totals);
    ("tracer bounds dynamic response time", `Quick, tracer_bounds_response_time);
    ("tracer rejects recursion", `Quick, tracer_rejects_recursion);
    ("toolchain end to end", `Quick, toolchain_end_to_end);
    ("toolchain unified TLS", `Quick, toolchain_tls_unified);
    ("toolchain rejects ill-formed programs", `Quick, toolchain_rejects_illformed);
    ("toolchain natural layouts", `Quick, toolchain_natural_vs_aligned);
    ("toolchain stackmaps consistent", `Quick,
     toolchain_stackmaps_consistent_across_isas);
  ]
