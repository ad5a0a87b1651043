module D = Diagnostic

let rules =
  [
    ("unwind-missing-rule", D.Error, "a function has no unwind rule");
    ("unwind-frame-align", D.Error, "a frame size is non-positive or violates stack alignment");
    ("unwind-ra-rule", D.Error, "the return-address rule is invalid for the ISA");
    ("unwind-frame-size-disagree", D.Error, "unwind rule and frame layout disagree on the frame size");
    ("unwind-save-outside-frame", D.Error, "a callee-save slot lies outside the frame");
    ("unwind-save-slot-overlap", D.Error, "two callee-save slots overlap");
    ("unwind-save-overlaps-local", D.Error, "a callee-save slot overlaps a live-value slot");
    ("unwind-not-callee-saved", D.Error, "the prologue saves a register the ABI does not require preserved");
    ("unwind-stack-depth", D.Warning, "the deepest call chain exceeds the half-stack transformation budget");
    ("unwind-recursive", D.Info, "the call graph is recursive; chain depth is simulator-capped");
  ]

(* The transformation runtime splits a thread's stack in half — the
   thread runs on one half while rewritten frames are built in the other
   (Stack_mem.halves). *)
let half_stack_bytes = Runtime.Thread_state.stack_bytes / 2

let slot_width r = if Isa.Register.is_vector r then 16 else 8

(* [off] is the byte offset below FP of the slot's lowest address; the
   slot occupies [FP-off, FP-off+width). *)
let overlap (off_a, width_a) (off_b, width_b) =
  let lo_a = -off_a and hi_a = -off_a + width_a in
  let lo_b = -off_b and hi_b = -off_b + width_b in
  lo_a < hi_b && lo_b < hi_a

let check_rule ~emit ~arch ~local_width (frame : Compiler.Backend.frame option)
    (rule : Compiler.Unwind.rule) =
  let abi = Isa.Abi.of_arch arch in
  if
    rule.Compiler.Unwind.frame_bytes <= 0
    || rule.Compiler.Unwind.frame_bytes mod abi.Isa.Abi.stack_alignment <> 0
  then
    emit ~rule:"unwind-frame-align" ~severity:D.Error
      (Printf.sprintf
         "frame size %d is not a positive multiple of the %d-byte stack \
          alignment — the CFA chain would not be monotone"
         rule.Compiler.Unwind.frame_bytes abi.Isa.Abi.stack_alignment);
  (match rule.Compiler.Unwind.ra with
  | Compiler.Unwind.Ra_in_link_register ->
      if arch <> Isa.Arch.Arm64 then
        emit ~rule:"unwind-ra-rule" ~severity:D.Error
          (Printf.sprintf "%s has no link register" (Isa.Arch.to_string arch))
  | Compiler.Unwind.Ra_at_offset off ->
      if off < 0 || off + 8 > abi.Isa.Abi.frame_record_size then
        emit ~rule:"unwind-ra-rule" ~severity:D.Error
          (Printf.sprintf
             "return address at FP+%d lies outside the %d-byte frame record"
             off abi.Isa.Abi.frame_record_size));
  (match frame with
  | Some f
    when f.Compiler.Backend.frame_bytes <> rule.Compiler.Unwind.frame_bytes ->
      emit ~rule:"unwind-frame-size-disagree" ~severity:D.Error
        (Printf.sprintf "unwind rule says %d bytes, frame layout says %d"
           rule.Compiler.Unwind.frame_bytes f.Compiler.Backend.frame_bytes)
  | _ -> ());
  let below_fp =
    rule.Compiler.Unwind.frame_bytes - abi.Isa.Abi.frame_record_size
  in
  let saves = rule.Compiler.Unwind.saved_registers in
  List.iter
    (fun (r, off) ->
      let width = slot_width r in
      if off < width || off > below_fp then
        emit ~rule:"unwind-save-outside-frame" ~severity:D.Error
          (Format.asprintf
             "%a saved at [FP-%d], outside the %d-byte below-FP area"
             Isa.Register.pp r off below_fp);
      let callee_saved =
        if Isa.Register.is_vector r then
          List.exists (Isa.Register.equal r)
            (Isa.Register.vector_callee_saved arch)
        else Isa.Register.is_callee_saved r
      in
      if not callee_saved then
        emit ~rule:"unwind-not-callee-saved" ~severity:D.Error
          (Format.asprintf
             "prologue saves %a, which the ABI does not require preserved"
             Isa.Register.pp r))
    saves;
  let rec pairwise = function
    | [] -> ()
    | (r_a, off_a) :: rest ->
        List.iter
          (fun (r_b, off_b) ->
            if overlap (off_a, slot_width r_a) (off_b, slot_width r_b) then
              emit ~rule:"unwind-save-slot-overlap" ~severity:D.Error
                (Format.asprintf "save slots of %a and %a overlap"
                   Isa.Register.pp r_a Isa.Register.pp r_b))
          rest;
        pairwise rest
  in
  pairwise saves;
  match frame with
  | None -> ()
  | Some f ->
      List.iter
        (fun (var, loc) ->
          match loc with
          | Compiler.Backend.In_register _ -> ()
          | Compiler.Backend.In_slot k ->
              let width = local_width var in
              List.iter
                (fun (r, off) ->
                  if overlap (k, width) (off, slot_width r) then
                    emit ~rule:"unwind-save-overlaps-local" ~severity:D.Error
                      (Format.asprintf
                         "save slot of %a at [FP-%d] overlaps local %s at \
                          [FP-%d]"
                         Isa.Register.pp r off var k))
                saves)
        f.Compiler.Backend.locations

let chain_depths
    ~(emit :
       ?func:string ->
       rule:string ->
       severity:D.severity ->
       string ->
       unit) ~label:_ prog (frames : (string * Compiler.Backend.frame) list) =
  let cg = Ir.Callgraph.build prog in
  if Ir.Callgraph.is_recursive cg then
    emit ?func:None ~rule:"unwind-recursive" ~severity:D.Info
      "recursive call graph: chain depth is capped by the simulator"
  else begin
    let frame_bytes name =
      match List.assoc_opt name frames with
      | Some f -> f.Compiler.Backend.frame_bytes
      | None -> 0
    in
    let memo = Hashtbl.create 16 in
    let rec deepest name =
      match Hashtbl.find_opt memo name with
      | Some d -> d
      | None ->
          let below =
            List.fold_left
              (fun acc callee -> max acc (deepest callee))
              0
              (Ir.Callgraph.callees cg name)
          in
          let d = frame_bytes name + below in
          Hashtbl.add memo name d;
          d
    in
    let total = deepest prog.Ir.Prog.entry in
    if total > half_stack_bytes then
      emit ~func:prog.Ir.Prog.entry ~rule:"unwind-stack-depth"
        ~severity:D.Warning
        (Printf.sprintf
           "deepest call chain needs %d stack bytes, over the %d-byte \
            half-stack transformation budget"
           total half_stack_bytes)
  end

let check_isa ~label ~prog (p : Compiler.Toolchain.per_isa) =
  let arch = p.Compiler.Toolchain.arch in
  let out = ref [] in
  List.iter
    (fun (fname, func) ->
      let emit ~rule ~severity msg =
        out := D.make ~rule ~severity ~prog:label ~func:fname msg :: !out
      in
      let frame = List.assoc_opt fname p.Compiler.Toolchain.frames in
      let local_width name =
        match
          List.find_opt
            (fun v -> v.Ir.Prog.vname = name)
            (Ir.Prog.locals func)
        with
        | Some v when v.Ir.Prog.ty = Ir.Ty.V128 -> 16
        | Some _ | None -> 8
      in
      match
        Compiler.Unwind.find p.Compiler.Toolchain.unwind ~fname
      with
      | None ->
          emit ~rule:"unwind-missing-rule" ~severity:D.Error
            (Printf.sprintf "no %s unwind rule" (Isa.Arch.to_string arch))
      | Some rule -> check_rule ~emit ~arch ~local_width frame rule)
    prog.Ir.Prog.funcs;
  let emit ?func ~rule ~severity msg =
    out := D.make ~rule ~severity ~prog:label ?func msg :: !out
  in
  chain_depths ~emit ~label prog p.Compiler.Toolchain.frames;
  List.rev !out

let check ?label (t : Compiler.Toolchain.t) =
  let label =
    match label with Some l -> l | None -> t.Compiler.Toolchain.prog.Ir.Prog.name
  in
  List.concat_map
    (fun p -> check_isa ~label ~prog:t.Compiler.Toolchain.prog p)
    t.Compiler.Toolchain.isas
