type fd = int
type entry = { path : string; offset : int; flags : int }

type t = {
  svc : Service.t;
  (* Path strings interned to ids so they fit the service's int64 cells;
     the intern table itself is immutable-append and ISA-independent. *)
  paths : (string, int) Hashtbl.t;
  mutable path_names : string array;
}

let create engine bus ~nodes =
  {
    svc = Service.create engine bus ~name:"fdtable" ~nodes ~consistency:Service.Strong;
    paths = Hashtbl.create 32;
    path_names = [||];
  }

let intern t path =
  match Hashtbl.find_opt t.paths path with
  | Some id -> id
  | None ->
    let id = Array.length t.path_names in
    Hashtbl.add t.paths path id;
    t.path_names <- Array.append t.path_names [| path |];
    id

let key fd field = Printf.sprintf "fd/%d/%s" fd field

let is_open t ~node ~pid fd =
  Service.get t.svc ~node ~pid ~key:(key fd "open") = Some 1L

let first_free t ~node ~pid =
  let rec search fd = if is_open t ~node ~pid fd then search (fd + 1) else fd in
  search 3 (* 0-2 are stdio *)

let openfile t ~node ~pid ~path ~flags =
  let fd = first_free t ~node ~pid in
  let pid_ = pid in
  let l1 = Service.set t.svc ~node ~pid:pid_ ~key:(key fd "open") 1L in
  let l2 =
    Service.set t.svc ~node ~pid:pid_ ~key:(key fd "path")
      (Int64.of_int (intern t path))
  in
  let l3 = Service.set t.svc ~node ~pid:pid_ ~key:(key fd "offset") 0L in
  let l4 =
    Service.set t.svc ~node ~pid:pid_ ~key:(key fd "flags") (Int64.of_int flags)
  in
  (fd, l1 +. l2 +. l3 +. l4)

let close t ~node ~pid fd =
  if not (is_open t ~node ~pid fd) then
    Error (Printf.sprintf "close: fd %d not open" fd)
  else Ok (Service.set t.svc ~node ~pid ~key:(key fd "open") 0L)

let lookup t ~node ~pid fd =
  if not (is_open t ~node ~pid fd) then None
  else begin
    let field name =
      match Service.get t.svc ~node ~pid ~key:(key fd name) with
      | Some v -> Int64.to_int v
      | None -> 0
    in
    let path_id = field "path" in
    let path =
      if path_id < Array.length t.path_names then t.path_names.(path_id)
      else "?"
    in
    Some { path; offset = field "offset"; flags = field "flags" }
  end

let dup t ~node ~pid fd =
  match lookup t ~node ~pid fd with
  | None -> Error (Printf.sprintf "dup: fd %d not open" fd)
  | Some e ->
    let nfd = first_free t ~node ~pid in
    let l1 = Service.set t.svc ~node ~pid ~key:(key nfd "open") 1L in
    let l2 =
      Service.set t.svc ~node ~pid ~key:(key nfd "path")
        (Int64.of_int (intern t e.path))
    in
    let l3 =
      Service.set t.svc ~node ~pid ~key:(key nfd "offset")
        (Int64.of_int e.offset)
    in
    let l4 =
      Service.set t.svc ~node ~pid ~key:(key nfd "flags") (Int64.of_int e.flags)
    in
    Ok (nfd, l1 +. l2 +. l3 +. l4)

let seek t ~node ~pid fd ~offset =
  if not (is_open t ~node ~pid fd) then
    Error (Printf.sprintf "seek: fd %d not open" fd)
  else Ok (Service.set t.svc ~node ~pid ~key:(key fd "offset") (Int64.of_int offset))

let fds t ~node ~pid =
  let rec collect fd acc =
    (* Descriptor numbers are dense-ish; stop after a run of 64 holes. *)
    if fd > 1024 then List.rev acc
    else if is_open t ~node ~pid fd then collect (fd + 1) (fd :: acc)
    else collect (fd + 1) acc
  in
  collect 0 []

let consistent t ~pid = Service.consistent t.svc ~pid
