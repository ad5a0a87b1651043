type per_isa = {
  arch : Isa.Arch.t;
  obj : Binary.Obj.t;
  frames : (string * Backend.frame) list;
  stackmaps : Stackmap.entry list;
  unwind : Unwind.rule list;
  elf : Binary.Elf.t;
  tls : Memsys.Tls.layout;
}

type t = {
  prog : Ir.Prog.t;
  aligned : Binary.Align.t;
  isas : per_isa list;
  migration_points : int;
}

let validate prog =
  List.iter
    (fun (_, func) ->
      match Ir.Liveness.check_uses_defined func with
      | Ok _ -> ()
      | Error var ->
        invalid_arg
          (Printf.sprintf "Toolchain.compile: %s uses undefined variable %s"
             func.Ir.Prog.fname var))
    prog.Ir.Prog.funcs

let object_for arch (prog : Ir.Prog.t) =
  let func_symbols =
    List.map
      (fun (name, func) ->
        Memsys.Symbol.make ~name ~section:Memsys.Symbol.Text
          ~size:(Backend.code_size arch func)
          ~alignment:16)
      prog.funcs
  in
  Binary.Obj.make ~arch ~name:prog.name
    ~symbols:(func_symbols @ prog.globals)

let per_isa_of aligned (prog : Ir.Prog.t) arch obj =
  let layout = Binary.Align.layout_for aligned arch in
  let frames =
    List.map
      (fun (name, func) -> (name, Backend.frame_layout arch func))
      prog.funcs
  in
  let stackmaps =
    List.concat_map
      (fun (name, frame) ->
        Stackmap.generate (Ir.Prog.find_func prog name) frame)
      frames
  in
  let unwind = List.map (fun (_, frame) -> Unwind.of_frame frame) frames in
  let elf = Binary.Elf.of_layout layout ~entry_symbol:prog.entry in
  let tls = Memsys.Tls.layout Memsys.Tls.Common_x86 prog.globals in
  { arch; obj; frames; stackmaps; unwind; elf; tls }

let compile ?budget prog =
  validate prog;
  let prog =
    match budget with
    | None -> Migration_points.instrument prog
    | Some budget -> Migration_points.instrument ~budget prog
  in
  let objects = List.map (fun arch -> object_for arch prog) Isa.Arch.all in
  let aligned = Binary.Align.align objects in
  begin
    match Binary.Align.check_aligned aligned with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Toolchain.compile: alignment failed: " ^ msg)
  end;
  let isas = List.map2 (per_isa_of aligned prog) Isa.Arch.all objects in
  { prog; aligned; isas; migration_points = Migration_points.count_points prog }

let for_arch t arch =
  match List.find_opt (fun p -> p.arch = arch) t.isas with
  | Some p -> p
  | None -> raise Not_found

let frame_of per_isa name = List.assoc name per_isa.frames

let unwind_of per_isa name =
  List.find (fun (r : Unwind.rule) -> r.Unwind.fname = name) per_isa.unwind

let symbol_address t name =
  match Binary.Align.address_of t.aligned name with
  | Some a -> a
  | None -> raise Not_found

let natural_layouts prog =
  List.map
    (fun arch ->
      let obj = object_for arch prog in
      (arch, Binary.Layout.natural ~base:Binary.Layout.text_base obj))
    Isa.Arch.all

