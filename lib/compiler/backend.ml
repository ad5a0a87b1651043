type location = In_register of Isa.Register.t | In_slot of int

type frame = {
  arch : Isa.Arch.t;
  fname : string;
  frame_bytes : int;
  locations : (string * location) list;
  callee_saved_used : Isa.Register.t list;
  save_offsets : (Isa.Register.t * int) list;
  locals_bytes : int;
}

(* --- code size estimation -------------------------------------------- *)

let rec static_instr_estimate body =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Ir.Prog.Work _ -> acc + 12
      | Ir.Prog.Def _ -> acc + 2
      | Ir.Prog.Use _ -> acc + 1
      | Ir.Prog.Call c -> acc + 4 + List.length c.args
      | Ir.Prog.Mig_point _ -> acc + 5
      | Ir.Prog.Loop l -> acc + 3 + static_instr_estimate l.Ir.Prog.body)
    0 body

let hash_name name =
  (* FNV-1a, for a stable per-function jitter. *)
  let h = ref 0x3cbf29ce48422325 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001b3 land max_int)
    name;
  !h

let bytes_per_instr arch fname =
  match arch with
  | Isa.Arch.Arm64 -> 4.0
  | Isa.Arch.X86_64 ->
    (* Variable encoding: average depends on the instruction mix; keep it
       deterministic per function. *)
    3.3 +. (float_of_int (hash_name fname land 0xFF) /. 256.0)

let rec count_defs body =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Ir.Prog.Def _ -> acc + 1
      | Ir.Prog.Loop l -> acc + count_defs l.Ir.Prog.body
      | Ir.Prog.Work _ | Ir.Prog.Use _ | Ir.Prog.Call _ | Ir.Prog.Mig_point _ ->
        acc)
    0 body

let allocatable_registers = function
  | Isa.Arch.Arm64 -> 10
  | Isa.Arch.X86_64 -> 5

let code_size arch (func : Ir.Prog.func) =
  let prologue = 12 + (2 * List.length func.params) in
  let locals = List.length func.params + count_defs func.body in
  (* Spilled locals cost extra load/store traffic; the x86's smaller
     callee-saved budget makes its code structurally bigger for
     register-hungry functions. *)
  let spills = max 0 (locals - allocatable_registers arch) in
  let instrs = prologue + static_instr_estimate func.body + (3 * spills) in
  let bytes = float_of_int instrs *. bytes_per_instr arch func.fname in
  Isa.Abi.align_up (int_of_float (Float.ceil bytes)) 16

(* --- frame layout ----------------------------------------------------- *)

module SM = Map.Make (String)
module SS = Set.Make (String)

let reference_counts (func : Ir.Prog.func) =
  let bump name m =
    SM.update name (function None -> Some 1 | Some n -> Some (n + 1)) m
  in
  let rec walk m body =
    List.fold_left
      (fun m stmt ->
        match stmt with
        | Ir.Prog.Work _ | Ir.Prog.Mig_point _ -> m
        | Ir.Prog.Use x -> bump x m
        | Ir.Prog.Def v -> bump v.Ir.Prog.vname m
        | Ir.Prog.Call c -> List.fold_left (fun m a -> bump a m) m c.args
        | Ir.Prog.Loop l ->
          (* Loop-resident references count double: hot variables should
             win registers. *)
          let inner = walk SM.empty l.Ir.Prog.body in
          SM.union (fun _ a b -> Some (a + (2 * b))) m inner)
      m body
  in
  walk SM.empty func.body

let address_taken (func : Ir.Prog.func) =
  let rec walk acc body =
    List.fold_left
      (fun acc stmt ->
        match stmt with
        | Ir.Prog.Def { init = Ir.Prog.Ptr_to_local target; _ } ->
          SS.add target acc
        | Ir.Prog.Def _ | Ir.Prog.Work _ | Ir.Prog.Use _ | Ir.Prog.Call _
        | Ir.Prog.Mig_point _ -> acc
        | Ir.Prog.Loop l -> walk acc l.Ir.Prog.body)
      acc body
  in
  walk SS.empty func.body

let register_pool arch =
  let saved = Isa.Register.callee_saved arch in
  (* rbp serves as the frame pointer on x86-64; exclude it from
     allocation. *)
  List.filter
    (fun r -> not (Isa.Register.equal r (Isa.Register.frame_pointer arch)))
    saved

let frame_layout arch (func : Ir.Prog.func) =
  let locals = Ir.Prog.locals func in
  let refs = reference_counts func in
  let taken = address_taken func in
  let priority v =
    match SM.find_opt v.Ir.Prog.vname refs with None -> 0 | Some n -> n
  in
  (* Most-referenced first; ties broken by name for determinism. *)
  let ordered =
    List.stable_sort
      (fun a b ->
        match compare (priority b) (priority a) with
        | 0 -> compare a.Ir.Prog.vname b.Ir.Prog.vname
        | c -> c)
      locals
  in
  let eligible v = not (SS.mem v.Ir.Prog.vname taken) in
  let is_vec v = v.Ir.Prog.ty = Ir.Ty.V128 in
  (* Scalars compete for the GPR pool, vector locals for the vector pool
     (empty on x86-64: the SysV ABI preserves no xmm register across
     calls, so every vector local spills there). *)
  let assign pool vars =
    let rec go regs acc_r acc_s = function
      | [] -> (List.rev acc_r, List.rev acc_s)
      | v :: rest -> begin
        match regs with
        | r :: regs' when eligible v -> go regs' ((v, r) :: acc_r) acc_s rest
        | _ -> go regs acc_r (v :: acc_s) rest
      end
    in
    go pool [] [] vars
  in
  let scalars = List.filter (fun v -> not (is_vec v)) ordered in
  let vectors = List.filter is_vec ordered in
  let in_gprs, spilled_scalars = assign (register_pool arch) scalars in
  let in_vregs, spilled_vectors =
    assign (Isa.Register.vector_callee_saved arch) vectors
  in
  (* Slot order differs per ISA: ARM64 packs spills in priority order,
     x86-64 in reverse — mirroring how real backends diverge. *)
  let order spills =
    match arch with
    | Isa.Arch.Arm64 -> spills
    | Isa.Arch.X86_64 -> List.rev spills
  in
  let callee_saved_used = List.map snd in_gprs @ List.map snd in_vregs in
  (* Lay the area below FP out with a byte cursor: GPR saves, vector
     saves (16-aligned), scalar slots, vector slots. An [In_slot k]
     value occupies [FP - k, FP - k + size). *)
  let cursor = ref 0 in
  let alloc ~size ~align =
    let off = Isa.Abi.align_up (!cursor + size) align in
    cursor := off;
    off
  in
  let save_offsets =
    List.map
      (fun r ->
        if Isa.Register.is_vector r then (r, alloc ~size:16 ~align:16)
        else (r, alloc ~size:8 ~align:8))
      callee_saved_used
  in
  let saves_bytes = !cursor in
  let scalar_slots =
    List.map
      (fun v -> (v.Ir.Prog.vname, In_slot (alloc ~size:8 ~align:8)))
      (order spilled_scalars)
  in
  let vector_slots =
    List.map
      (fun v -> (v.Ir.Prog.vname, In_slot (alloc ~size:16 ~align:16)))
      (order spilled_vectors)
  in
  let regs =
    List.map (fun (v, r) -> (v.Ir.Prog.vname, In_register r)) (in_gprs @ in_vregs)
  in
  let locals_bytes = !cursor - saves_bytes in
  let frame_bytes = Isa.Abi.align_up (16 + !cursor) 16 in
  {
    arch;
    fname = func.fname;
    frame_bytes;
    locations = regs @ scalar_slots @ vector_slots;
    callee_saved_used;
    save_offsets;
    locals_bytes;
  }

let location_of frame name = List.assoc name frame.locations

let migration_point_cost = function
  | Isa.Arch.Arm64 -> 6
  | Isa.Arch.X86_64 -> 5
