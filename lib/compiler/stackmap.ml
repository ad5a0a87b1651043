type ty_loc = { ty : Ir.Ty.t; loc : Backend.location }
type site_key = Ir.Liveness.site_kind * int

type entry = {
  fname : string;
  kind : Ir.Liveness.site_kind;
  site_id : int;
  live : (string * ty_loc) list;
}

let generate (func : Ir.Prog.func) (frame : Backend.frame) =
  let types =
    List.map (fun v -> (v.Ir.Prog.vname, v.Ir.Prog.ty)) (Ir.Prog.locals func)
  in
  let sites = Ir.Liveness.analyze func in
  List.map
    (fun (s : Ir.Liveness.site) ->
      let live =
        List.map
          (fun name ->
            let ty =
              match List.assoc_opt name types with
              | Some ty -> ty
              | None -> Ir.Ty.I64
            in
            (name, { ty; loc = Backend.location_of frame name }))
          (List.sort compare s.live)
      in
      { fname = func.fname; kind = s.kind; site_id = s.id; live })
    sites

let find entries ~fname ~key:(kind, site_id) =
  List.find_opt
    (fun e -> e.fname = fname && e.kind = kind && e.site_id = site_id)
    entries

type mismatch =
  | Site_missing of {
      fname : string;
      kind : Ir.Liveness.site_kind;
      site_id : int;
      missing_in : [ `First | `Second ];
    }
  | Site_order of { fname : string; kind : Ir.Liveness.site_kind; site_id : int }
  | Live_set of {
      fname : string;
      kind : Ir.Liveness.site_kind;
      site_id : int;
      only_in_first : string list;
      only_in_second : string list;
    }

let site_kind_string = function
  | Ir.Liveness.At_call -> "call"
  | Ir.Liveness.At_mig_point -> "mig-point"

let pp_mismatch ppf = function
  | Site_missing { fname; kind; site_id; missing_in } ->
    Format.fprintf ppf "%s %s#%d only in the %s metadata set" fname
      (site_kind_string kind) site_id
      (match missing_in with `First -> "second" | `Second -> "first")
  | Site_order { fname; kind; site_id } ->
    Format.fprintf ppf "%s %s#%d appears at different sequence positions"
      fname (site_kind_string kind) site_id
  | Live_set { fname; kind; site_id; only_in_first; only_in_second } ->
    let side label = function
      | [] -> ""
      | names -> Printf.sprintf " %s: %s" label (String.concat "," names)
    in
    Format.fprintf ppf "%s %s#%d live sets disagree%s%s" fname
      (site_kind_string kind) site_id
      (side "only-first" only_in_first)
      (side "only-second" only_in_second)

let entry_key e = (e.fname, e.kind, e.site_id)

(* Exhaustive, deterministic: walk [a] in order reporting entries missing
   or displaced in [b] and live-set disagreements, then [b] for entries
   [a] lacks. *)
let diff_sites a b =
  let pos_b = Hashtbl.create (List.length b) in
  List.iteri (fun i e -> Hashtbl.replace pos_b (entry_key e) (i, e)) b;
  let keys_a = Hashtbl.create (List.length a) in
  List.iter (fun e -> Hashtbl.replace keys_a (entry_key e) ()) a;
  let fwd =
    List.concat
      (List.mapi
         (fun i ea ->
           let fname = ea.fname and kind = ea.kind and site_id = ea.site_id in
           match Hashtbl.find_opt pos_b (entry_key ea) with
           | None -> [ Site_missing { fname; kind; site_id; missing_in = `Second } ]
           | Some (j, eb) ->
             let order =
               if i <> j then [ Site_order { fname; kind; site_id } ] else []
             in
             let na = List.map fst ea.live and nb = List.map fst eb.live in
             if na = nb then order
             else begin
               let only_in_first = List.filter (fun n -> not (List.mem n nb)) na in
               let only_in_second = List.filter (fun n -> not (List.mem n na)) nb in
               order
               @ [ Live_set { fname; kind; site_id; only_in_first; only_in_second } ]
             end)
         a)
  in
  let bwd =
    List.filter_map
      (fun eb ->
        if Hashtbl.mem keys_a (entry_key eb) then None
        else
          Some
            (Site_missing
               { fname = eb.fname; kind = eb.kind; site_id = eb.site_id;
                 missing_in = `First }))
      b
  in
  fwd @ bwd

let join_sites a b =
  let mismatches = diff_sites a b in
  let by_key = Hashtbl.create (List.length b) in
  List.iter
    (fun e ->
      let k = entry_key e in
      if not (Hashtbl.mem by_key k) then Hashtbl.add by_key k e)
    b;
  let pairs =
    List.filter_map
      (fun ea ->
        match Hashtbl.find_opt by_key (entry_key ea) with
        | Some eb when List.map fst ea.live = List.map fst eb.live ->
          Some (ea, eb)
        | Some _ | None -> None)
      a
  in
  (pairs, mismatches)
