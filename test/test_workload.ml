let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let specs_scale_with_class () =
  List.iter
    (fun bench ->
      let a = Workload.Spec.spec bench Workload.Spec.A in
      let b = Workload.Spec.spec bench Workload.Spec.B in
      let c = Workload.Spec.spec bench Workload.Spec.C in
      checkb "instructions grow" true
        (a.Workload.Spec.total_instructions < b.Workload.Spec.total_instructions
        && b.Workload.Spec.total_instructions < c.Workload.Spec.total_instructions);
      checkb "footprint monotone" true
        (a.Workload.Spec.footprint_bytes <= b.Workload.Spec.footprint_bytes
        && b.Workload.Spec.footprint_bytes <= c.Workload.Spec.footprint_bytes))
    Workload.Spec.all_benches

let spec_names () =
  let s = Workload.Spec.spec Workload.Spec.CG Workload.Spec.B in
  Alcotest.check Alcotest.string "name" "cg.B" s.Workload.Spec.name

let spec_mix_covers_categories () =
  (* The paper's pool mixes memory-, compute-, and branch-intensive jobs. *)
  let cats =
    List.sort_uniq compare
      (List.map
         (fun b ->
           (Workload.Spec.spec b Workload.Spec.A).Workload.Spec.category)
         Workload.Spec.all_benches)
  in
  checkb "at least 3 distinct categories" true (List.length cats >= 3)

let phases_partition_work () =
  let spec = Workload.Spec.spec Workload.Spec.CG Workload.Spec.A in
  List.iter
    (fun threads ->
      let per_thread =
        Workload.Spec.phases spec ~threads ~quantum_instructions:5e7
      in
      checki "one sequence per thread" threads (List.length per_thread);
      let total =
        List.fold_left
          (fun acc phases ->
            Seq.fold_left
              (fun a (p : Kernel.Process.phase) ->
                a +. p.Kernel.Process.instructions)
              acc phases)
          0.0 per_thread
      in
      checkb "work conserved" true
        (Float.abs (total -. spec.Workload.Spec.total_instructions)
        < spec.Workload.Spec.total_instructions *. 1e-6);
      List.iter
        (fun phases ->
          Seq.iter
            (fun (p : Kernel.Process.phase) ->
              checkb "phase within quantum" true
                (p.Kernel.Process.instructions <= 5e7 +. 1.0))
            phases)
        per_thread)
    [ 1; 2; 4; 8 ]

let phases_touch_pages () =
  let spec = Workload.Spec.spec Workload.Spec.IS Workload.Spec.A in
  let ranges = [ { Memsys.Page.first = 1000; count = 100 } ] in
  let pages = Memsys.Page.ranges_pages ranges in
  let per_thread =
    Workload.Spec.phases_for_process spec ~threads:2 ~quantum_instructions:1e8
      ~data_pages:ranges
  in
  List.iter
    (fun phases ->
      Seq.iter
        (fun (p : Kernel.Process.phase) ->
          checkb "pages from the process" true
            (List.for_all
               (fun pg -> List.mem pg pages)
               (Memsys.Page.ranges_pages p.Kernel.Process.pages));
          checkb "memory-bound phases write" true p.Kernel.Process.writes)
        phases)
    per_thread

(* The phase expansion as it was when every phase carried its page list:
   the flat sample window [start, start+16) mod n, expanded page by
   page through [nth]. The lazy runs must reproduce it exactly. *)
let reference_phases (t : Workload.Spec.t) ~threads ~quantum_instructions ~n
    ~nth =
  let sample_pages ~phase_index ~per_phase =
    if n = 0 then []
    else
      let start = phase_index * per_phase mod n in
      List.init (min per_phase n) (fun i -> nth ((start + i) mod n))
  in
  let per_thread = t.Workload.Spec.total_instructions /. float_of_int threads in
  let n_phases =
    max 1 (int_of_float (Float.ceil (per_thread /. quantum_instructions)))
  in
  let phase_instr = per_thread /. float_of_int n_phases in
  let writes = t.Workload.Spec.category <> Isa.Cost_model.Compute in
  List.init threads (fun tid ->
      List.init n_phases (fun i ->
          ( phase_instr,
            t.Workload.Spec.category,
            sample_pages ~phase_index:((tid * n_phases) + i) ~per_phase:16,
            writes )))

(* Random process page layouts: up to five ranges, some empty, joined,
   overlapping by the shared boundary page, or jumping back, so runs
   join across ranges and across the wrap, and [n] is often below 16. *)
let gen_data_pages =
  let open QCheck.Gen in
  let range_after stop =
    map2
      (fun gap count -> { Memsys.Page.first = max 0 (stop + gap); count })
      (frequency
         [ (3, return 0); (1, return (-1)); (2, int_range 1 20);
           (1, int_range (-200) (-2)) ])
      (frequency [ (1, return 0); (3, int_range 1 12); (2, int_range 13 60) ])
  in
  int_range 1 5 >>= fun k ->
  int_range 0 500 >>= fun first ->
  let rec go k stop acc =
    if k = 0 then return (List.rev acc)
    else
      range_after stop >>= fun r ->
      go (k - 1) (r.Memsys.Page.first + r.Memsys.Page.count) (r :: acc)
  in
  go k first []

let phases_match_reference =
  let gen =
    QCheck.Gen.(
      quad
        (pair (oneofl Workload.Spec.all_benches) (oneofl Workload.Spec.classes))
        (int_range 1 8) (float_range 0.5 200.0) gen_data_pages)
  in
  let print ((bench, cls), threads, k, data_pages) =
    Printf.sprintf "%s threads=%d phases/thread~%g pages=[%s]"
      (Workload.Spec.spec bench cls).Workload.Spec.name threads k
      (String.concat "; "
         (List.map
            (fun r ->
              Printf.sprintf "%d+%d" r.Memsys.Page.first r.Memsys.Page.count)
            data_pages))
  in
  QCheck.Test.make ~count:200
    ~name:"lazy phase runs expand to the page-list sample windows"
    (QCheck.make gen ~print)
    (fun ((bench, cls), threads, k, data_pages) ->
      let spec = Workload.Spec.spec bench cls in
      let quantum_instructions =
        spec.Workload.Spec.total_instructions /. float_of_int threads /. k
      in
      let same got want =
        List.length got = List.length want
        && List.for_all2
             (fun seq want ->
               let got = List.of_seq seq in
               List.length got = List.length want
               && List.for_all2
                    (fun (p : Kernel.Process.phase) (instr, cat, pages, writes) ->
                      let runs = p.Kernel.Process.pages in
                      let rec maximal = function
                        | (a : Memsys.Page.range) :: (b :: _ as rest) ->
                          a.Memsys.Page.count > 0
                          && a.Memsys.Page.first + a.Memsys.Page.count
                             <> b.Memsys.Page.first
                          && maximal rest
                        | [ a ] -> a.Memsys.Page.count > 0
                        | [] -> true
                      in
                      Int64.equal
                        (Int64.bits_of_float p.Kernel.Process.instructions)
                        (Int64.bits_of_float instr)
                      && p.Kernel.Process.category = cat
                      && p.Kernel.Process.writes = writes
                      && Memsys.Page.ranges_pages runs = pages
                      && maximal runs)
                    got want)
             got want
      in
      let flat = Array.of_list (Memsys.Page.ranges_pages data_pages) in
      same
        (Workload.Spec.phases_for_process spec ~threads ~quantum_instructions
           ~data_pages)
        (reference_phases spec ~threads ~quantum_instructions
           ~n:(Array.length flat) ~nth:(Array.get flat))
      &&
      let n_pages = Memsys.Page.count ~bytes:spec.Workload.Spec.footprint_bytes in
      same
        (Workload.Spec.phases spec ~threads ~quantum_instructions)
        (reference_phases spec ~threads ~quantum_instructions
           ~n:(min n_pages 65536) ~nth:Fun.id))

let phases_validation () =
  let spec = Workload.Spec.spec Workload.Spec.EP Workload.Spec.A in
  checkb "zero threads rejected" true
    (try
       ignore (Workload.Spec.phases spec ~threads:0 ~quantum_instructions:1e8);
       false
     with Invalid_argument _ -> true)

let programs_wellformed () =
  List.iter
    (fun bench ->
      List.iter
        (fun cls ->
          let prog = Workload.Programs.program bench cls in
          List.iter
            (fun (_, func) ->
              match Ir.Liveness.check_uses_defined func with
              | Ok _ -> ()
              | Error v ->
                Alcotest.fail
                  (Printf.sprintf "%s: undefined %s" prog.Ir.Prog.name v))
            prog.Ir.Prog.funcs)
        Workload.Spec.classes)
    Workload.Spec.all_benches

let programs_match_spec_totals () =
  List.iter
    (fun bench ->
      List.iter
        (fun cls ->
          let spec = Workload.Spec.spec bench cls in
          let prog = Workload.Programs.program bench cls in
          let ratio =
            Workload.Programs.total_dynamic prog
            /. spec.Workload.Spec.total_instructions
          in
          checkb
            (Printf.sprintf "%s within 25%% of spec (%.2f)"
               spec.Workload.Spec.name ratio)
            true
            (ratio > 0.75 && ratio < 1.25))
        Workload.Spec.classes)
    Workload.Spec.all_benches

let programs_not_recursive () =
  List.iter
    (fun bench ->
      let prog = Workload.Programs.program bench Workload.Spec.A in
      checkb "acyclic" false (Ir.Callgraph.is_recursive (Ir.Callgraph.build prog)))
    Workload.Spec.all_benches

let ft_deep_call_chain () =
  (* The paper's FT fftz2 example: 7-frame stacks. *)
  let prog = Workload.Programs.program Workload.Spec.FT Workload.Spec.A in
  checki "depth 7" 7 (Workload.Programs.deepest_chain prog)

let programs_have_pointer_state () =
  (* Every benchmark must exercise the pointer-fixup path. *)
  List.iter
    (fun bench ->
      let prog = Workload.Programs.program bench Workload.Spec.A in
      let rec has_ptr body =
        List.exists
          (function
            | Ir.Prog.Def { init = Ir.Prog.Ptr_to_local _ | Ir.Prog.Ptr_to_global _; _ } ->
              true
            | Ir.Prog.Loop l -> has_ptr l.Ir.Prog.body
            | Ir.Prog.Def _ | Ir.Prog.Work _ | Ir.Prog.Use _ | Ir.Prog.Call _
            | Ir.Prog.Mig_point _ -> false)
          body
      in
      checkb
        (Workload.Spec.bench_to_string bench ^ " has pointer locals")
        true
        (List.exists (fun (_, f) -> has_ptr f.Ir.Prog.body) prog.Ir.Prog.funcs))
    [ Workload.Spec.CG; Workload.Spec.IS; Workload.Spec.FT; Workload.Spec.BT;
      Workload.Spec.SP; Workload.Spec.MG; Workload.Spec.Bzip2smp;
      Workload.Spec.Verus; Workload.Spec.Redis ]

let programs_have_tls () =
  List.iter
    (fun bench ->
      let prog = Workload.Programs.program bench Workload.Spec.A in
      checkb "has a TLS symbol" true
        (List.exists
           (fun s ->
             s.Memsys.Symbol.section = Memsys.Symbol.Tdata
             || s.Memsys.Symbol.section = Memsys.Symbol.Tbss)
           prog.Ir.Prog.globals))
    Workload.Spec.all_benches

let is_has_full_verify () =
  (* Figure 11 offloads IS's full_verify(); the model must name it. *)
  let prog = Workload.Programs.program Workload.Spec.IS Workload.Spec.B in
  checkb "full_verify exists" true
    (match Ir.Prog.find_func prog "full_verify" with
    | _ -> true
    | exception Not_found -> false)

let all_programs_compile_and_migrate () =
  (* End-to-end: every benchmark compiles and survives migration at its
     first reachable site in both directions. *)
  List.iter
    (fun bench ->
      let tc =
        Compiler.Toolchain.compile (Workload.Programs.program bench Workload.Spec.A)
      in
      match Runtime.Interp.reachable_mig_sites tc with
      | [] -> Alcotest.fail "no migration points"
      | (fname, mig_id) :: _ ->
        List.iter
          (fun arch ->
            match Runtime.Interp.state_at tc arch ~fname ~mig_id with
            | None -> Alcotest.fail "unreached"
            | Some st -> begin
              match Runtime.Transform.transform tc st with
              | Error e -> Alcotest.fail e
              | Ok (dst, _) -> begin
                match Runtime.Transform.verify tc st dst with
                | Ok () -> ()
                | Error e -> Alcotest.fail e
              end
            end)
          Isa.Arch.all)
    Workload.Spec.all_benches

let suite =
  [
    ("specs scale with class", `Quick, specs_scale_with_class);
    ("spec names", `Quick, spec_names);
    ("benchmark pool covers categories", `Quick, spec_mix_covers_categories);
    ("phases partition the work", `Quick, phases_partition_work);
    ("phases touch process pages", `Quick, phases_touch_pages);
    ("phases validation", `Quick, phases_validation);
    QCheck_alcotest.to_alcotest phases_match_reference;
    ("programs well-formed", `Quick, programs_wellformed);
    ("program totals match specs", `Quick, programs_match_spec_totals);
    ("programs not recursive", `Quick, programs_not_recursive);
    ("FT has the paper's 7-deep chain", `Quick, ft_deep_call_chain);
    ("programs exercise pointers", `Quick, programs_have_pointer_state);
    ("programs declare TLS", `Quick, programs_have_tls);
    ("IS models full_verify", `Quick, is_has_full_verify);
    ("all benchmarks compile and migrate", `Slow, all_programs_compile_and_migrate);
  ]
