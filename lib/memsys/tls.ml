type scheme = Native of Isa.Arch.t | Common_x86

type slot = { symbol : string; offset : int; size : int }
type layout = { scheme : scheme; slots : slot list; block_size : int }

let tls_symbols symbols =
  List.filter
    (fun s ->
      match s.Symbol.section with
      | Symbol.Tdata | Symbol.Tbss -> true
      | Symbol.Text | Symbol.Data | Symbol.Rodata | Symbol.Bss -> false)
    symbols

(* Variant 1 (ARM64): offsets ascend from TP + 16 (the TCB). *)
let variant1 symbols =
  let place (cursor, slots) (s : Symbol.t) =
    let offset = Isa.Abi.align_up cursor s.alignment in
    (offset + s.size, { symbol = s.name; offset; size = s.size } :: slots)
  in
  let cursor, slots = List.fold_left place (16, []) symbols in
  (List.rev slots, cursor)

(* Variant 2 (x86-64): the block sits below TP; offsets are negative.
   Symbols are placed top-down: the block is laid out forward, then shifted
   so that it ends at TP. *)
let variant2 symbols =
  let place (cursor, slots) (s : Symbol.t) =
    let offset = Isa.Abi.align_up cursor s.alignment in
    (offset + s.size, { symbol = s.name; offset; size = s.size } :: slots)
  in
  let total, forward = List.fold_left place (0, []) symbols in
  let block = Isa.Abi.align_up total 16 in
  let shifted =
    List.rev_map (fun slot -> { slot with offset = slot.offset - block }) forward
  in
  (List.rev shifted, block)

let layout scheme symbols =
  let tls = tls_symbols symbols in
  let slots, block_size =
    match scheme with
    | Native Isa.Arch.Arm64 -> variant1 tls
    | Native Isa.Arch.X86_64 | Common_x86 -> variant2 tls
  in
  { scheme; slots; block_size }

let offset_of t name =
  match List.find_opt (fun s -> s.symbol = name) t.slots with
  | None -> None
  | Some s -> Some s.offset

let compatible a b =
  List.length a.slots = List.length b.slots
  && List.for_all2
       (fun sa sb -> sa.symbol = sb.symbol && sa.offset = sb.offset)
       a.slots b.slots
