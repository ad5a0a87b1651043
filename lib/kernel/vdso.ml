type t = { flags : (int, int) Hashtbl.t; mutable polls : int }

let create () = { flags = Hashtbl.create 32; polls = 0 }

let request t ~tid ~dest = Hashtbl.replace t.flags tid dest
let clear t ~tid = Hashtbl.remove t.flags tid

let poll t ~tid =
  t.polls <- t.polls + 1;
  Hashtbl.find_opt t.flags tid

let checks t = t.polls

let pending t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.flags [] |> List.sort compare
