type model = {
  cpu_idle_w : float;
  cpu_max_w : float;
  platform_w : float;
  sleep_w : float;
}

let clamp01 u = Float.max 0.0 (Float.min 1.0 u)

let cpu_power m ~utilization =
  let u = clamp01 utilization in
  m.cpu_idle_w +. (u *. (m.cpu_max_w -. m.cpu_idle_w))

let system_power m ~utilization = cpu_power m ~utilization +. m.platform_w

let scale m f =
  { m with cpu_idle_w = m.cpu_idle_w *. f; cpu_max_w = m.cpu_max_w *. f }
