type placed = { symbol : Memsys.Symbol.t; addr : int; reserved : int }

type t = {
  arch : Isa.Arch.t;
  image : string;
  placed : placed list;
  section_bounds : (Memsys.Symbol.section * (int * int)) list;
}

let text_base = 0x40_0000

let natural ~base (obj : Obj.t) =
  let in_section sec =
    List.filter (fun s -> s.Memsys.Symbol.section = sec) obj.Obj.symbols
  in
  let place_section (cursor, placed, bounds) sec =
    match in_section sec with
    | [] -> (cursor, placed, bounds)
    | symbols ->
      let start = Isa.Abi.align_up cursor Memsys.Page.size in
      let place (cur, acc) (s : Memsys.Symbol.t) =
        let addr = Isa.Abi.align_up cur s.alignment in
        (addr + s.size, { symbol = s; addr; reserved = s.size } :: acc)
      in
      let cursor, rev_placed = List.fold_left place (start, []) symbols in
      (cursor, placed @ List.rev rev_placed, bounds @ [ (sec, (start, cursor)) ])
  in
  let _, placed, bounds =
    List.fold_left place_section (base, [], [])
      Memsys.Symbol.sections_in_layout_order
  in
  {
    arch = obj.Obj.arch;
    image = Printf.sprintf "%s_%s" obj.Obj.name (Isa.Arch.to_string obj.Obj.arch);
    placed;
    section_bounds = bounds;
  }

let address_of t name =
  match
    List.find_opt (fun p -> p.symbol.Memsys.Symbol.name = name) t.placed
  with
  | None -> None
  | Some p -> Some p.addr

let find_at t addr =
  List.find_opt (fun p -> addr >= p.addr && addr < p.addr + p.reserved) t.placed

let check_no_overlap t =
  let sorted = List.sort (fun a b -> compare a.addr b.addr) t.placed in
  let rec check = function
    | [] | [ _ ] -> Ok ()
    | a :: (b :: _ as rest) ->
      if a.addr + a.reserved > b.addr then
        Error
          (Printf.sprintf "overlap: %s [%#x+%d] and %s [%#x]"
             a.symbol.Memsys.Symbol.name a.addr a.reserved
             b.symbol.Memsys.Symbol.name b.addr)
      else check rest
  in
  let in_bounds p =
    match List.assoc_opt p.symbol.Memsys.Symbol.section t.section_bounds with
    | None -> false
    | Some (s, e) -> p.addr >= s && p.addr + p.reserved <= e
  in
  match check sorted with
  | Error _ as e -> e
  | Ok () ->
    if List.for_all in_bounds t.placed then Ok ()
    else Error "symbol outside its section bounds"
