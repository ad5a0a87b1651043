let granule = 16
let header = 16

type t = {
  hbase : int;
  hsize : int;
  (* Free blocks (addr, bytes), address-ordered, coalesced. *)
  mutable free_list : (int * int) list;
  (* Live allocations: payload address -> payload bytes. *)
  live : (int, int) Hashtbl.t;
}

let create ~base ~bytes =
  if base mod granule <> 0 || bytes mod granule <> 0 then
    invalid_arg "Heap.create: misaligned region";
  if bytes <= 0 then invalid_arg "Heap.create: empty region";
  { hbase = base; hsize = bytes; free_list = [ (base, bytes) ];
    live = Hashtbl.create 64 }

let base t = t.hbase

let malloc t request =
  let need = header + Isa.Abi.align_up (max request 1) granule in
  let rec take acc = function
    | [] -> None
    | (addr, len) :: rest when len >= need ->
      let remainder =
        if len = need then [] else [ (addr + need, len - need) ]
      in
      t.free_list <- List.rev_append acc (remainder @ rest);
      let payload = addr + header in
      Hashtbl.replace t.live payload (need - header);
      Some payload
    | block :: rest -> take (block :: acc) rest
  in
  take [] t.free_list

(* Insert (addr, len) keeping address order, merging neighbours. *)
let insert_coalesced free_list addr len =
  let blocks = List.sort compare ((addr, len) :: free_list) in
  let rec coalesce = function
    | (a1, l1) :: (a2, l2) :: rest when a1 + l1 = a2 ->
      coalesce ((a1, l1 + l2) :: rest)
    | b :: rest -> b :: coalesce rest
    | [] -> []
  in
  coalesce blocks

let free t payload =
  match Hashtbl.find_opt t.live payload with
  | None ->
    Error
      (Printf.sprintf "free: %#x is not a live allocation (double free or wild pointer)"
         payload)
  | Some bytes ->
    Hashtbl.remove t.live payload;
    t.free_list <- insert_coalesced t.free_list (payload - header) (bytes + header);
    Ok ()

let allocated_bytes t = Hashtbl.fold (fun _ b acc -> acc + b) t.live 0

let allocations t =
  Hashtbl.fold (fun a b acc -> (a, b) :: acc) t.live [] |> List.sort compare

let fragmentation t =
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 t.free_list in
  if total = 0 then 0.0
  else begin
    let largest = List.fold_left (fun acc (_, l) -> max acc l) 0 t.free_list in
    1.0 -. (float_of_int largest /. float_of_int total)
  end

let check_invariants t =
  let rec check_order = function
    | (a1, l1) :: ((a2, _) :: _ as rest) ->
      if a1 + l1 > a2 then Error "free blocks overlap"
      else if a1 + l1 = a2 then Error "adjacent free blocks not coalesced"
      else check_order rest
    | [ (a, l) ] ->
      if a < t.hbase || a + l > t.hbase + t.hsize then
        Error "free block outside the region"
      else Ok ()
    | [] -> Ok ()
  in
  match check_order t.free_list with
  | Error _ as e -> e
  | Ok () ->
    let free_total = List.fold_left (fun acc (_, l) -> acc + l) 0 t.free_list in
    let live_total =
      Hashtbl.fold (fun _ b acc -> acc + b + header) t.live 0
    in
    if free_total + live_total <> t.hsize then
      Error
        (Printf.sprintf "accounting mismatch: free %d + live %d <> %d"
           free_total live_total t.hsize)
    else Ok ()
