type t = {
  layouts : (Isa.Arch.t * Layout.t) list;
  padding : (Isa.Arch.t * int) list;
}

let align objs =
  begin
    match objs with
    | [] -> invalid_arg "Align.align: no objects"
    | first :: rest ->
      List.iter
        (fun o ->
          if not (Obj.same_symbol_sets first o) then
            invalid_arg "Align.align: objects disagree on symbol sets")
        rest;
      let arches = List.map (fun o -> o.Obj.arch) objs in
      if List.length (List.sort_uniq compare arches) <> List.length arches
      then invalid_arg "Align.align: duplicate ISA"
  end;
  let canonical = List.hd objs in
  (* Unified placement: walk sections in layout order; within a section use
     the canonical object's symbol order; reserve max-across-ISAs size and
     max alignment for each symbol. *)
  let symbols_in sec =
    List.filter
      (fun s -> s.Memsys.Symbol.section = sec)
      canonical.Obj.symbols
  in
  let per_isa_size name =
    List.map
      (fun o ->
        match Obj.find o name with
        | Some s -> (o.Obj.arch, s)
        | None -> assert false)
      objs
  in
  (* [placements]: (name, addr, unified_reserved) in order. *)
  let place_section (cursor, placements, bounds) sec =
    match symbols_in sec with
    | [] -> (cursor, placements, bounds)
    | symbols ->
      let start = Isa.Abi.align_up cursor Memsys.Page.size in
      let place (cur, acc) (s : Memsys.Symbol.t) =
        let variants = per_isa_size s.name in
        let max_align =
          List.fold_left
            (fun m (_, v) -> max m v.Memsys.Symbol.alignment)
            s.alignment variants
        in
        let max_size =
          List.fold_left (fun m (_, v) -> max m v.Memsys.Symbol.size) 0 variants
        in
        let addr = Isa.Abi.align_up cur max_align in
        (addr + max_size, (s.name, addr, max_size) :: acc)
      in
      let cursor, rev = List.fold_left place (start, []) symbols in
      (cursor, placements @ List.rev rev, bounds @ [ (sec, (start, cursor)) ])
  in
  let _, placements, bounds =
    List.fold_left place_section
      (Layout.text_base, [], [])
      Memsys.Symbol.sections_in_layout_order
  in
  let layout_of (obj : Obj.t) =
    let placed =
      List.map
        (fun (name, addr, reserved) ->
          match Obj.find obj name with
          | Some symbol -> { Layout.symbol; addr; reserved }
          | None -> assert false)
        placements
    in
    {
      Layout.arch = obj.Obj.arch;
      image =
        Printf.sprintf "%s_%s.aligned" obj.Obj.name
          (Isa.Arch.to_string obj.Obj.arch);
      placed;
      section_bounds = bounds;
    }
  in
  let layouts = List.map (fun o -> (o.Obj.arch, layout_of o)) objs in
  let padding =
    List.map
      (fun (arch, l) ->
        let pad =
          List.fold_left
            (fun acc (p : Layout.placed) ->
              if Memsys.Symbol.is_function p.symbol then
                acc + (p.reserved - p.symbol.Memsys.Symbol.size)
              else acc)
            0 l.Layout.placed
        in
        (arch, pad))
      layouts
  in
  { layouts; padding }

let layout_for t arch = List.assoc arch t.layouts

let check_aligned t =
  match t.layouts with
  | [] -> Error "no layouts"
  | (_, first) :: rest ->
    let addr_map (l : Layout.t) =
      List.map
        (fun (p : Layout.placed) -> (p.symbol.Memsys.Symbol.name, p.addr))
        l.placed
      |> List.sort compare
    in
    let reference = addr_map first in
    let mismatched =
      List.find_opt (fun (_, l) -> addr_map l <> reference) rest
    in
    begin
      match mismatched with
      | Some (arch, _) ->
        Error
          (Printf.sprintf "layout for %s disagrees on symbol addresses"
             (Isa.Arch.to_string arch))
      | None ->
        let rec check_all = function
          | [] -> Ok ()
          | (_, l) :: tl -> begin
            match Layout.check_no_overlap l with
            | Ok () -> check_all tl
            | Error _ as e -> e
          end
        in
        check_all t.layouts
    end

let address_of t name =
  match t.layouts with
  | [] -> None
  | (_, l) :: _ -> Layout.address_of l name
