type image = {
  aspace : Memsys.Address_space.t;
  data_pages : Memsys.Page.range list;
  text_pages : int list;
  entry : int;
}

let heap_base = 0x10_0000_0000
let vdso_base = 0x7FFF_F000_0000

let map_region aspace ~start ~len ~prot ~tag ~backing =
  Memsys.Address_space.map aspace
    { Memsys.Address_space.start; len; prot; tag; backing }

let register_data dsm node ranges =
  List.iter (fun range -> Dsm.Hdsm.register_range dsm ~range ~owner:node) ranges

let register_text dsm pages =
  List.iter (fun page -> Dsm.Hdsm.register_alias dsm ~page) pages

(* [slot] gives concurrently loaded processes disjoint heap/stack pages in
   the kernel ensemble's shared DSM page namespace; the caller (the
   ensemble) allocates slots serially per instance, so independent
   simulations never share loader state. *)
let load tc ~dsm ~node ~slot ~heap_bytes =
  let aspace = Memsys.Address_space.create () in
  let layouts =
    List.map
      (fun arch -> (arch, Binary.Align.layout_for tc.Compiler.Toolchain.aligned arch))
      Isa.Arch.all
  in
  let first_layout = snd (List.hd layouts) in
  let bounds sec =
    List.assoc_opt sec first_layout.Binary.Layout.section_bounds
  in
  (* Aliased text: one image per ISA at the same virtual range. *)
  let text_pages =
    match bounds Memsys.Symbol.Text with
    | None -> []
    | Some (start, stop) ->
      let len = Memsys.Page.round_up (stop - start) in
      map_region aspace ~start ~len ~prot:Memsys.Address_space.Read_exec
        ~tag:".text"
        ~backing:
          (Memsys.Address_space.Per_isa
             (List.map (fun (a, l) -> (a, l.Binary.Layout.image)) layouts));
      Memsys.Page.span ~addr:start ~len
  in
  (* vDSO: the migration-flag page shared between user and kernel space,
     aliased like text. *)
  let vdso_pages =
    map_region aspace ~start:vdso_base ~len:Memsys.Page.size
      ~prot:Memsys.Address_space.Read ~tag:"[vdso]"
      ~backing:Memsys.Address_space.Anonymous;
    Memsys.Page.span ~addr:vdso_base ~len:Memsys.Page.size
  in
  let data_sections =
    [ Memsys.Symbol.Rodata; Memsys.Symbol.Data; Memsys.Symbol.Bss;
      Memsys.Symbol.Tdata; Memsys.Symbol.Tbss ]
  in
  let section_ranges =
    List.concat_map
      (fun sec ->
        match bounds sec with
        | None -> []
        | Some (start, stop) when stop > start ->
          let len = Memsys.Page.round_up (stop - start) in
          let prot =
            if sec = Memsys.Symbol.Rodata then Memsys.Address_space.Read
            else Memsys.Address_space.Read_write
          in
          map_region aspace ~start ~len ~prot
            ~tag:(Memsys.Symbol.section_to_string sec)
            ~backing:(Memsys.Address_space.File first_layout.Binary.Layout.image);
          [ Memsys.Page.range_of_span ~addr:start ~len ]
        | Some _ -> [])
      data_sections
  in
  let heap_range =
    let start = heap_base + (slot * 0x1_0000_0000) in
    let len = max Memsys.Page.size (Memsys.Page.round_up heap_bytes) in
    map_region aspace ~start ~len ~prot:Memsys.Address_space.Read_write
      ~tag:"[heap]" ~backing:Memsys.Address_space.Anonymous;
    Memsys.Page.range_of_span ~addr:start ~len
  in
  let stack_range =
    let start = Runtime.Thread_state.stack_base + (slot * 0x100_0000) in
    let len = Runtime.Thread_state.stack_bytes in
    map_region aspace ~start ~len ~prot:Memsys.Address_space.Read_write
      ~tag:"[stack]" ~backing:Memsys.Address_space.Anonymous;
    Memsys.Page.range_of_span ~addr:start ~len
  in
  let data_pages = section_ranges @ [ heap_range; stack_range ] in
  register_text dsm (text_pages @ vdso_pages);
  register_data dsm node data_pages;
  let entry =
    Compiler.Toolchain.symbol_address tc tc.Compiler.Toolchain.prog.Ir.Prog.entry
  in
  { aspace; data_pages; text_pages; entry }

let load_raw ~dsm ~node ~slot ~name:_ ~footprint_bytes =
  let aspace = Memsys.Address_space.create () in
  let start = heap_base + (slot * 0x1_0000_0000) in
  let len = max Memsys.Page.size (Memsys.Page.round_up footprint_bytes) in
  map_region aspace ~start ~len ~prot:Memsys.Address_space.Read_write
    ~tag:"[data]" ~backing:Memsys.Address_space.Anonymous;
  let data_pages = [ Memsys.Page.range_of_span ~addr:start ~len ] in
  register_data dsm node data_pages;
  { aspace; data_pages; text_pages = []; entry = 0 }
