type t = {
  rf_arch : Isa.Arch.t;
  values : (string, int64) Hashtbl.t;
  mutable pc : int64;
}

let create arch = { rf_arch = arch; values = Hashtbl.create 32; pc = 0L }
let arch t = t.rf_arch

let check t (r : Isa.Register.t) =
  if r.Isa.Register.arch <> t.rf_arch then
    invalid_arg
      (Printf.sprintf "Regfile: register %s used on %s" r.Isa.Register.name
         (Isa.Arch.to_string t.rf_arch))

let get t r =
  check t r;
  match Hashtbl.find_opt t.values r.Isa.Register.name with
  | None -> 0L
  | Some v -> v

let set t r v =
  check t r;
  Hashtbl.replace t.values r.Isa.Register.name v

let get_sp t = Int64.to_int (get t (Isa.Register.stack_pointer t.rf_arch))
let set_sp t v = set t (Isa.Register.stack_pointer t.rf_arch) (Int64.of_int v)
let get_fp t = Int64.to_int (get t (Isa.Register.frame_pointer t.rf_arch))
let set_fp t v = set t (Isa.Register.frame_pointer t.rf_arch) (Int64.of_int v)
let pc t = t.pc
let set_pc t v = t.pc <- v

let lane_key (r : Isa.Register.t) i =
  if i = 0 then r.Isa.Register.name
  else Printf.sprintf "%s#%d" r.Isa.Register.name i

let get_lanes t r n =
  check t r;
  Array.init n (fun i ->
      match Hashtbl.find_opt t.values (lane_key r i) with
      | None -> 0L
      | Some v -> v)

let set_lanes t r lanes =
  check t r;
  Array.iteri (fun i v -> Hashtbl.replace t.values (lane_key r i) v) lanes

