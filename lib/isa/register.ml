type t = { arch : Arch.t; name : string; index : int }

let equal a b = a.arch = b.arch && a.index = b.index
let compare a b = compare (a.arch, a.index) (b.arch, b.index)
let pp ppf r = Format.fprintf ppf "%s:%s" (Arch.to_string r.arch) r.name

let arm64_names =
  (* x0-x28 general purpose, x29 frame pointer, x30 link register, sp. *)
  Array.append
    (Array.init 29 (fun i -> Printf.sprintf "x%d" i))
    [| "x29"; "x30"; "sp" |]

let x86_64_names =
  [|
    "rax"; "rbx"; "rcx"; "rdx"; "rsi"; "rdi"; "rbp"; "rsp";
    "r8"; "r9"; "r10"; "r11"; "r12"; "r13"; "r14"; "r15";
  |]

let names = function
  | Arch.Arm64 -> arm64_names
  | Arch.X86_64 -> x86_64_names

let all arch =
  Array.to_list
    (Array.mapi (fun index name -> { arch; name; index }) (names arch))

let by_name arch name =
  let arr = names arch in
  let rec search i =
    if i >= Array.length arr then raise Not_found
    else if arr.(i) = name then { arch; name; index = i }
    else search (i + 1)
  in
  search 0

let of_names arch ns = List.map (by_name arch) ns

let callee_saved = function
  | Arch.Arm64 ->
    of_names Arch.Arm64
      [ "x19"; "x20"; "x21"; "x22"; "x23"; "x24"; "x25"; "x26"; "x27"; "x28" ]
  | Arch.X86_64 ->
    of_names Arch.X86_64 [ "rbx"; "rbp"; "r12"; "r13"; "r14"; "r15" ]

let caller_saved = function
  | Arch.Arm64 ->
    of_names Arch.Arm64
      (List.init 19 (fun i -> Printf.sprintf "x%d" i))
  | Arch.X86_64 ->
    of_names Arch.X86_64
      [ "rax"; "rcx"; "rdx"; "rsi"; "rdi"; "r8"; "r9"; "r10"; "r11" ]

let argument = function
  | Arch.Arm64 ->
    of_names Arch.Arm64 [ "x0"; "x1"; "x2"; "x3"; "x4"; "x5"; "x6"; "x7" ]
  | Arch.X86_64 ->
    of_names Arch.X86_64 [ "rdi"; "rsi"; "rdx"; "rcx"; "r8"; "r9" ]

let stack_pointer = function
  | Arch.Arm64 -> by_name Arch.Arm64 "sp"
  | Arch.X86_64 -> by_name Arch.X86_64 "rsp"

let frame_pointer = function
  | Arch.Arm64 -> by_name Arch.Arm64 "x29"
  | Arch.X86_64 -> by_name Arch.X86_64 "rbp"

let link = function
  | Arch.Arm64 -> Some (by_name Arch.Arm64 "x30")
  | Arch.X86_64 -> None

let is_callee_saved r = List.exists (equal r) (callee_saved r.arch)

(* --- vector registers -------------------------------------------------- *)

let vector_base_index = 1000

let vector_names = function
  | Arch.Arm64 -> Array.init 32 (fun i -> Printf.sprintf "v%d" i)
  | Arch.X86_64 -> Array.init 16 (fun i -> Printf.sprintf "xmm%d" i)

let vector_all arch =
  Array.to_list
    (Array.mapi
       (fun i name -> { arch; name; index = vector_base_index + i })
       (vector_names arch))

let vector_by_name arch name =
  match List.find_opt (fun r -> r.name = name) (vector_all arch) with
  | Some r -> r
  | None -> raise Not_found

let vector_callee_saved = function
  | Arch.Arm64 ->
    List.map (fun i -> vector_by_name Arch.Arm64 (Printf.sprintf "v%d" i))
      [ 8; 9; 10; 11; 12; 13; 14; 15 ]
  | Arch.X86_64 -> []

let is_vector r = r.index >= vector_base_index
