type race = {
  page : int;
  first_unit : int;
  first_write : bool;
  first_index : int;
  second_unit : int;
  second_write : bool;
  second_index : int;
}

let pp_race ppf r =
  Format.fprintf ppf
    "page %d: %s by unit %d (event %d) races with %s by unit %d (event %d)"
    r.page
    (if r.first_write then "write" else "read")
    r.first_unit r.first_index
    (if r.second_write then "write" else "read")
    r.second_unit r.second_index

(* An epoch (u, t): unit u at local time t, plus the log index of the
   access for reporting. t = 0 means "no such access yet". *)
type epoch = { u : int; t : int; idx : int }

let no_epoch = { u = 0; t = 0; idx = -1 }

type page_state = {
  mutable last_write : epoch;
  reads : epoch array;  (** per-unit last read not yet covered by a write *)
}

let detect ~units events =
  if units <= 0 then invalid_arg "Race.detect: units must be positive";
  let check u =
    if u < 0 || u >= units then
      invalid_arg (Printf.sprintf "Race.detect: unit %d out of range" u)
  in
  (* vc.(u) is unit u's vector clock; vc.(u).(u) is its local time. *)
  let vc = Array.init units (fun _ -> Array.make units 0) in
  let pages : (int, page_state) Hashtbl.t = Hashtbl.create 256 in
  let flagged : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let races = ref [] in
  let page_state page =
    match Hashtbl.find_opt pages page with
    | Some st -> st
    | None ->
        let st = { last_write = no_epoch; reads = Array.make units no_epoch } in
        Hashtbl.add pages page st;
        st
  in
  let hb e clock = e.t = 0 || e.t <= clock.(e.u) in
  let report page prior ~prior_write ~second_unit ~second_write ~second_index =
    if not (Hashtbl.mem flagged page) then begin
      Hashtbl.add flagged page ();
      races :=
        {
          page;
          first_unit = prior.u;
          first_write = prior_write;
          first_index = prior.idx;
          second_unit;
          second_write;
          second_index;
        }
        :: !races
    end
  in
  List.iteri
    (fun idx ev ->
      match ev with
      | Dsm.Hdsm.Obs_sync { src; dst } ->
          check src;
          check dst;
          if src <> dst then begin
            (* Tick the sender so later sends are distinguishable, then
               join its clock into the receiver. *)
            vc.(src).(src) <- vc.(src).(src) + 1;
            let s = vc.(src) and d = vc.(dst) in
            for i = 0 to units - 1 do
              if s.(i) > d.(i) then d.(i) <- s.(i)
            done
          end
      | Dsm.Hdsm.Obs_access { node = u; page; write } ->
          check u;
          vc.(u).(u) <- vc.(u).(u) + 1;
          let st = page_state page in
          let clock = vc.(u) in
          let w = st.last_write in
          if w.t > 0 && w.u <> u && not (hb w clock) then
            report page w ~prior_write:true ~second_unit:u ~second_write:write
              ~second_index:idx;
          if write then begin
            Array.iteri
              (fun ru r ->
                if r.t > 0 && ru <> u && not (hb r clock) then
                  report page r ~prior_write:false ~second_unit:u
                    ~second_write:true ~second_index:idx)
              st.reads;
            st.last_write <- { u; t = clock.(u); idx };
            Array.fill st.reads 0 units no_epoch
          end
          else st.reads.(u) <- { u; t = clock.(u); idx })
    events;
  List.rev !races
