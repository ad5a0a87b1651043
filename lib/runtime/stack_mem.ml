type t = { lo : int; hi : int; cells : (int, int64) Hashtbl.t }

let create ~lo ~hi =
  if lo mod 8 <> 0 || hi mod 8 <> 0 then
    invalid_arg "Stack_mem.create: misaligned bounds";
  if lo >= hi then invalid_arg "Stack_mem.create: empty region";
  { lo; hi; cells = Hashtbl.create 256 }

let lo t = t.lo
let hi t = t.hi
let contains t addr = addr >= t.lo && addr < t.hi

let check t addr =
  if not (contains t addr) then
    invalid_arg (Printf.sprintf "Stack_mem: address %#x out of [%#x,%#x)" addr t.lo t.hi);
  if addr mod 8 <> 0 then
    invalid_arg (Printf.sprintf "Stack_mem: misaligned access %#x" addr)

let read t addr =
  check t addr;
  match Hashtbl.find_opt t.cells addr with
  | None -> 0L
  | Some v -> v

let write t addr v =
  check t addr;
  Hashtbl.replace t.cells addr v

let halves t =
  let mid = (t.lo + ((t.hi - t.lo) / 2)) / 8 * 8 in
  ({ t with lo = mid }, { t with hi = mid })
