type t = { name : string; mutable processes : Process.t list }

let create ~name = { name; processes = [] }
let add_process t p = t.processes <- p :: t.processes

let span t ~residual =
  let nodes =
    List.concat_map
      (fun (p : Process.t) ->
        let thread_nodes =
          List.filter_map
            (fun (th : Process.thread) ->
              if th.Process.status = Process.Done then None
              else Some th.Process.node)
            p.Process.threads
        in
        if residual p then p.Process.home :: thread_nodes else thread_nodes)
      t.processes
  in
  List.sort_uniq compare nodes
