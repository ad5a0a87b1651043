type t = {
  ns_name : string;
  mutable host : string;
  mutable mount_table : (string * string) list;  (* target -> source *)
  mutable pid_map : (int * int) list;  (* global -> local *)
  mutable next_local : int;
}

let create_set ~name =
  { ns_name = name; host = name; mount_table = []; pid_map = [];
    next_local = 1 }

let name t = t.ns_name
let set_hostname t h = t.host <- h
let hostname t = t.host

let add_mount t ~source ~target =
  if List.mem_assoc target t.mount_table then
    invalid_arg (Printf.sprintf "Namespace.add_mount: %s already mounted" target);
  t.mount_table <- (target, source) :: t.mount_table

let mounts t = List.sort compare t.mount_table

let resolve t path =
  (* Longest matching mount target wins. *)
  let matching =
    List.filter
      (fun (target, _) ->
        let lt = String.length target in
        String.length path >= lt
        && String.sub path 0 lt = target
        && (String.length path = lt || path.[lt] = '/' || target = "/"))
      t.mount_table
  in
  match
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      matching
  with
  | [] -> path
  | (target, source) :: _ ->
    let rest =
      if target = "/" then path
      else String.sub path (String.length target)
             (String.length path - String.length target)
    in
    source ^ rest

let register_pid t ~global_pid =
  match List.assoc_opt global_pid t.pid_map with
  | Some local -> local
  | None ->
    let local = t.next_local in
    t.next_local <- t.next_local + 1;
    t.pid_map <- (global_pid, local) :: t.pid_map;
    local

let local_pid t ~global_pid = List.assoc_opt global_pid t.pid_map

let global_pid t ~local_pid =
  List.find_opt (fun (_, l) -> l = local_pid) t.pid_map |> Option.map fst

let view_fingerprint t =
  Hashtbl.hash (t.host, mounts t, List.sort compare t.pid_map)
