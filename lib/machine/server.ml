type t = {
  name : string;
  arch : Isa.Arch.t;
  cores : int;
  cost : Isa.Cost_model.t;
  power : Power.model;
  ram_bytes : int;
  l1i_bytes : int;
  l1d_bytes : int;
}

(* Power figures calibrated against the Figure 11 traces: the x86 system
   peaks a bit above 110 W with a ~45 W idle floor; the ARM dev board peaks
   near 80 W with a ~40 W floor. *)
let xeon_e5_1650_v2 =
  {
    name = "Intel Xeon E5-1650 v2";
    arch = Isa.Arch.X86_64;
    cores = 6;
    cost = Isa.Cost_model.of_arch Isa.Arch.X86_64;
    power =
      { Power.cpu_idle_w = 14.0; cpu_max_w = 82.0; platform_w = 32.0;
        sleep_w = 6.0 };
    ram_bytes = 16 * 1024 * 1024 * 1024;
    l1i_bytes = 32 * 1024;
    l1d_bytes = 32 * 1024;
  }

let xgene1 =
  {
    name = "APM X-Gene 1 Pro";
    arch = Isa.Arch.Arm64;
    cores = 8;
    cost = Isa.Cost_model.of_arch Isa.Arch.Arm64;
    power =
      { Power.cpu_idle_w = 18.0; cpu_max_w = 48.0; platform_w = 24.0;
        sleep_w = 8.0 };
    ram_bytes = 32 * 1024 * 1024 * 1024;
    l1i_bytes = 32 * 1024;
    l1d_bytes = 32 * 1024;
  }

let of_arch = function
  | Isa.Arch.X86_64 -> xeon_e5_1650_v2
  | Isa.Arch.Arm64 -> xgene1

let with_power t power = { t with power }

let load_watts t =
  Array.init (t.cores + 1) (fun k ->
      Power.system_power t.power
        ~utilization:(float_of_int k /. float_of_int t.cores))

type mode = On | Asleep | Off

(* [acc] is [| joules; settled_at |]: a float array stores its floats
   flat, so a settle allocates nothing even where no call is inlined. *)
type meter = { watts : float array; power : Power.model; acc : float array }

let meter t = { watts = load_watts t; power = t.power; acc = [| 0.0; 0.0 |] }

(* Inlined so that [settle] reads the float unboxed. *)
let[@inline] draw m mode ~load =
  match mode with
  | On -> m.watts.(Int.min load (Array.length m.watts - 1))
  | Asleep -> m.power.Power.sleep_w
  | Off -> 0.0

(* Inlined too, so that a caller's unboxed [now] (an island clock) stays
   unboxed. *)
let[@inline] settle m ~now mode ~load =
  m.acc.(0) <- m.acc.(0) +. ((now -. m.acc.(1)) *. draw m mode ~load);
  m.acc.(1) <- now

let joules m = m.acc.(0)
let settled_at m = m.acc.(1)

let peak_mips t cat = float_of_int t.cores *. Isa.Cost_model.mips t.cost cat

let pp ppf t =
  Format.fprintf ppf "%s (%a, %d cores @ %.1f GHz)" t.name Isa.Arch.pp t.arch
    t.cores
    (t.cost.Isa.Cost_model.frequency_hz /. 1e9)
