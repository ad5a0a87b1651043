(** Power models.

    The paper measures power through on-board sensors (Intel RAPL on x86, an
    I2C power regulator on the ARM board) and externally through shunt
    resistors sampled at 100 Hz, observing that external readings are
    proportional to internal ones. We model CPU (package) power as an affine
    function of utilization, and system (external) power as the CPU power
    plus a platform base. The 100 Hz sensors are
    [Kernel.Popcorn.attach_sensors]. *)

type model = {
  cpu_idle_w : float;  (** package power at zero load *)
  cpu_max_w : float;  (** package power at full load *)
  platform_w : float;  (** rest-of-system power (fans, DRAM, NIC, ...) *)
  sleep_w : float;  (** whole-system power in the low-power state *)
}

val cpu_power : model -> utilization:float -> float
(** [utilization] in [\[0,1\]]; affine interpolation idle..max. *)

val system_power : model -> utilization:float -> float
(** CPU power plus platform base (the external shunt-resistor reading). *)

val scale : model -> float -> model
(** Scale CPU idle/max power by a factor (platform and sleep unchanged). *)
