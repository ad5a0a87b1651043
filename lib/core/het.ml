type binary = Compiler.Toolchain.t

let compile ?budget prog =
  match budget with
  | None -> Compiler.Toolchain.compile prog
  | Some budget -> Compiler.Toolchain.compile ~budget prog

let compile_benchmark bench cls = compile (Workload.Programs.program bench cls)

let migration_points = Runtime.Interp.reachable_mig_sites
let symbol_address = Compiler.Toolchain.symbol_address

let code_size (binary : binary) arch =
  let per = Compiler.Toolchain.for_arch binary arch in
  Binary.Obj.text_bytes per.Compiler.Toolchain.obj

let alignment_padding (binary : binary) arch =
  List.assoc arch binary.Compiler.Toolchain.aligned.Binary.Align.padding

type state_mapping = {
  globals_identity : bool;
  code_aliased : bool;
  tls_identity : bool;
  stacks_divergent : bool;
  divergent_frames : (string * int * int) list;
}

let state_mapping_report (binary : binary) =
  let layout arch = Binary.Align.layout_for binary.Compiler.Toolchain.aligned arch in
  let la = layout Isa.Arch.Arm64 and lx = layout Isa.Arch.X86_64 in
  let globals_identity =
    List.for_all
      (fun (p : Binary.Layout.placed) ->
        Memsys.Symbol.is_function p.Binary.Layout.symbol
        || Binary.Layout.address_of lx p.Binary.Layout.symbol.Memsys.Symbol.name
           = Some p.Binary.Layout.addr)
      la.Binary.Layout.placed
  in
  let code_aliased =
    List.assoc_opt Memsys.Symbol.Text la.Binary.Layout.section_bounds
    = List.assoc_opt Memsys.Symbol.Text lx.Binary.Layout.section_bounds
  in
  let per arch = Compiler.Toolchain.for_arch binary arch in
  let tls_identity =
    Memsys.Tls.compatible (per Isa.Arch.Arm64).Compiler.Toolchain.tls
      (per Isa.Arch.X86_64).Compiler.Toolchain.tls
  in
  let divergent_frames =
    (* A frame diverges when any local lives somewhere else (different
       register, different slot offset, register vs slot) — byte sizes may
       coincide even then. *)
    List.filter_map
      (fun (fname, (fa : Compiler.Backend.frame)) ->
        let fx = Compiler.Toolchain.frame_of (per Isa.Arch.X86_64) fname in
        let differs =
          List.exists
            (fun (name, loc_a) ->
              List.assoc_opt name fx.Compiler.Backend.locations <> Some loc_a)
            fa.Compiler.Backend.locations
        in
        if differs then
          Some (fname, fa.Compiler.Backend.frame_bytes,
                fx.Compiler.Backend.frame_bytes)
        else None)
      (per Isa.Arch.Arm64).Compiler.Toolchain.frames
  in
  {
    globals_identity;
    code_aliased;
    tls_identity;
    stacks_divergent = divergent_frames <> [];
    divergent_frames;
  }

let debug_frame (binary : binary) arch =
  let per = Compiler.Toolchain.for_arch binary arch in
  let layout = Binary.Align.layout_for binary.Compiler.Toolchain.aligned arch in
  let code_ranges =
    List.filter_map
      (fun (p : Binary.Layout.placed) ->
        if Memsys.Symbol.is_function p.Binary.Layout.symbol then
          Some
            (p.Binary.Layout.symbol.Memsys.Symbol.name,
             (p.Binary.Layout.addr, p.Binary.Layout.symbol.Memsys.Symbol.size))
        else None)
      layout.Binary.Layout.placed
  in
  Compiler.Dwarf.render_debug_frame arch
    ~rules:per.Compiler.Toolchain.unwind ~code_ranges

type migration_report = {
  site : string * int;
  from_arch : Isa.Arch.t;
  to_arch : Isa.Arch.t;
  frames : int;
  values_copied : int;
  pointers_fixed : int;
  latency_us : float;
  verified : bool;
}

let migrate_at binary ~from_ ~site:(fname, mig_id) =
  match Runtime.Interp.state_at binary from_ ~fname ~mig_id with
  | None -> Error (Printf.sprintf "migration point %s#%d not reached" fname mig_id)
  | Some st -> begin
    match Runtime.Transform.transform binary st with
    | Error _ as e -> e
    | Ok (dst, cost) ->
      let verified =
        match Runtime.Transform.verify binary st dst with
        | Ok () -> true
        | Error _ -> false
      in
      Ok
        {
          site = (fname, mig_id);
          from_arch = from_;
          to_arch = Isa.Arch.other from_;
          frames = cost.Runtime.Transform.frames;
          values_copied = cost.Runtime.Transform.values_copied;
          pointers_fixed = cost.Runtime.Transform.pointers_fixed;
          latency_us = Runtime.Transform.latency_us cost;
          verified;
        }
  end

let migration_latencies_us binary arch =
  List.filter_map
    (fun (fname, mig_id) ->
      match Runtime.Interp.state_at binary arch ~fname ~mig_id with
      | None -> None
      | Some st -> begin
        match Runtime.Transform.transform binary st with
        | Ok (_, cost) -> Some (Runtime.Transform.latency_us cost)
        | Error _ -> None
      end)
    (migration_points binary)

type cluster = {
  engine : Sim.Engine.t;
  pop : Kernel.Popcorn.t;
  container : Kernel.Container.t;
}

let make_cluster ?machines ?faults ?dsm_batch ?prefetch () =
  let machines =
    match machines with
    | Some m -> m
    | None -> [ Machine.Server.xeon_e5_1650_v2; Machine.Server.xgene1 ]
  in
  let engine = Sim.Engine.create () in
  let pop =
    Kernel.Popcorn.create engine ?faults ?dsm_batch ?prefetch ~machines ()
  in
  let container = Kernel.Popcorn.new_container pop ~name:"demo" in
  { engine; pop; container }

let deploy cluster (binary : binary) ~spec ?(threads = 1) ?quantum_instructions
    ~node () =
  Workload.Spec.spawn cluster.pop ~container:cluster.container ~node ~binary
    ?quantum_instructions spec ~threads

let start cluster proc = Kernel.Popcorn.start cluster.pop proc
let migrate cluster proc ~to_node = Kernel.Popcorn.migrate cluster.pop proc ~to_node

let migrate_container cluster container ~to_node =
  List.iter
    (fun proc ->
      if Kernel.Process.alive proc then
        Kernel.Popcorn.migrate cluster.pop proc ~to_node)
    container.Kernel.Container.processes
let run cluster = Sim.Engine.run cluster.engine
let run_until cluster t = Sim.Engine.run_until cluster.engine t
let now cluster = Sim.Engine.now cluster.engine
let energy cluster id = Kernel.Popcorn.energy cluster.pop id
let utilization cluster id = Kernel.Popcorn.utilization cluster.pop id
