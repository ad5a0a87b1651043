type frame = {
  fname : string;
  key : Compiler.Stackmap.site_key;
  fp : int;
  sp : int;
}

type t = {
  arch : Isa.Arch.t;
  stack : Stack_mem.t;
  active : Stack_mem.t;
  regs : Regfile.t;
  mutable frames : frame list;
}

let stack_base = 0x7F00_0000_0000
let stack_bytes = 1024 * 1024

let create arch =
  let stack = Stack_mem.create ~lo:stack_base ~hi:(stack_base + stack_bytes) in
  let upper, _lower = Stack_mem.halves stack in
  { arch; stack; active = upper; regs = Regfile.create arch; frames = [] }

let innermost t =
  match t.frames with
  | [] -> failwith "Thread_state.innermost: empty call stack"
  | f :: _ -> f

let depth t = List.length t.frames

let frame_of_name t name =
  match List.find_opt (fun f -> f.fname = name) t.frames with
  | Some f -> f
  | None -> raise Not_found

let pp ppf t =
  Format.fprintf ppf "thread on %a, %d frames:@." Isa.Arch.pp t.arch
    (List.length t.frames);
  List.iter
    (fun f ->
      let kind, id = f.key in
      Format.fprintf ppf "  %s @ %s#%d fp=%#x sp=%#x@." f.fname
        (match kind with
        | Ir.Liveness.At_call -> "call"
        | Ir.Liveness.At_mig_point -> "mig")
        id f.fp f.sp)
    t.frames
