type arg = S of string | I of int | F of float

(* One Chrome trace event. [ts]/[dur] are simulated seconds; conversion to
   the format's microseconds happens at export so in-memory sums stay
   exactly the floats the instrumented code accumulated. *)
type event = {
  ph : char;  (* 'X' complete, 'i' instant, 'C' counter, 'M' metadata *)
  ts : float;
  dur : float;  (* 'X' only *)
  pid : int;
  tid : int;
  cat : string;
  name : string;
  args : (string * arg) list;
}

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of float list ref  (* samples, newest first *)

type state = {
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
  metrics : (string, metric) Hashtbl.t;
}

type t = Noop | Active of state

let noop = Noop

let create () =
  Active { events = []; n_events = 0; metrics = Hashtbl.create 64 }

let enabled = function Noop -> false | Active _ -> true

let interconnect_pid = 1000
let scheduler_pid = 1001
let dsm_tid = 1

let push st e =
  st.events <- e :: st.events;
  st.n_events <- st.n_events + 1

let complete t ~ts ~dur ~pid ~tid ~cat ~name ?(args = []) () =
  match t with
  | Noop -> ()
  | Active st -> push st { ph = 'X'; ts; dur; pid; tid; cat; name; args }

let instant t ~ts ~pid ~tid ~cat ~name ?(args = []) () =
  match t with
  | Noop -> ()
  | Active st -> push st { ph = 'i'; ts; dur = 0.0; pid; tid; cat; name; args }

let counter_sample t ~ts ~pid ~name ~args =
  match t with
  | Noop -> ()
  | Active st ->
    push st { ph = 'C'; ts; dur = 0.0; pid; tid = 0; cat = ""; name; args }

let metadata t ~pid ~tid ~name ~value =
  match t with
  | Noop -> ()
  | Active st ->
    push st
      { ph = 'M'; ts = 0.0; dur = 0.0; pid; tid; cat = ""; name;
        args = [ ("name", S value) ] }

let process_name t ~pid value = metadata t ~pid ~tid:0 ~name:"process_name" ~value
let thread_name t ~pid ~tid value = metadata t ~pid ~tid ~name:"thread_name" ~value

type span = {
  s_ts : float;
  s_pid : int;
  s_tid : int;
  s_cat : string;
  s_name : string;
  s_args : (string * arg) list;
}

let dummy_span =
  { s_ts = 0.0; s_pid = 0; s_tid = 0; s_cat = ""; s_name = ""; s_args = [] }

let begin_span t ~ts ~pid ~tid ~cat ~name ?(args = []) () =
  match t with
  | Noop -> dummy_span
  | Active _ ->
    { s_ts = ts; s_pid = pid; s_tid = tid; s_cat = cat; s_name = name;
      s_args = args }

let end_span t s ~ts ?(args = []) () =
  match t with
  | Noop -> ()
  | Active st ->
    push st
      { ph = 'X'; ts = s.s_ts; dur = ts -. s.s_ts; pid = s.s_pid;
        tid = s.s_tid; cat = s.s_cat; name = s.s_name;
        args = s.s_args @ args }

(* --- metrics ----------------------------------------------------------- *)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let metric_err name found want =
  invalid_arg
    (Printf.sprintf "Obs: metric %S is a %s, not a %s" name (kind_name found)
       want)

let incr ?(by = 1) t name =
  match t with
  | Noop -> ()
  | Active st -> begin
    match Hashtbl.find_opt st.metrics name with
    | Some (Counter r) -> r := !r + by
    | Some m -> metric_err name m "counter"
    | None -> Hashtbl.replace st.metrics name (Counter (ref by))
  end

let gauge t name v =
  match t with
  | Noop -> ()
  | Active st -> begin
    match Hashtbl.find_opt st.metrics name with
    | Some (Gauge r) -> r := v
    | Some m -> metric_err name m "gauge"
    | None -> Hashtbl.replace st.metrics name (Gauge (ref v))
  end

let observe t name v =
  match t with
  | Noop -> ()
  | Active st -> begin
    match Hashtbl.find_opt st.metrics name with
    | Some (Histogram r) -> r := v :: !r
    | Some m -> metric_err name m "histogram"
    | None -> Hashtbl.replace st.metrics name (Histogram (ref [ v ]))
  end

(* --- inspection -------------------------------------------------------- *)

type span_view = {
  v_ts : float;
  v_dur : float;
  v_pid : int;
  v_tid : int;
  v_cat : string;
  v_name : string;
}

let spans ?cat ?name t =
  match t with
  | Noop -> []
  | Active st ->
    List.rev
      (List.filter_map
         (fun e ->
           if
             e.ph = 'X'
             && (match cat with None -> true | Some c -> e.cat = c)
             && (match name with None -> true | Some n -> e.name = n)
           then
             Some
               { v_ts = e.ts; v_dur = e.dur; v_pid = e.pid; v_tid = e.tid;
                 v_cat = e.cat; v_name = e.name }
           else None)
         st.events)

let event_count = function Noop -> 0 | Active st -> st.n_events

let counter_value t name =
  match t with
  | Noop -> None
  | Active st -> begin
    match Hashtbl.find_opt st.metrics name with
    | Some (Counter r) -> Some !r
    | Some _ | None -> None
  end

let gauge_value t name =
  match t with
  | Noop -> None
  | Active st -> begin
    match Hashtbl.find_opt st.metrics name with
    | Some (Gauge r) -> Some !r
    | Some _ | None -> None
  end

let histogram_samples t name =
  match t with
  | Noop -> None
  | Active st -> begin
    match Hashtbl.find_opt st.metrics name with
    | Some (Histogram r) -> Some (List.rev !r)
    | Some _ | None -> None
  end

let counter_series t ~pid ~name ~arg =
  match t with
  | Noop -> []
  | Active st ->
    (* [events] is newest first, so consing while folding left yields
       recording order. *)
    List.fold_left
      (fun acc e ->
        if e.ph = 'C' && e.pid = pid && e.name = name then
          match List.assoc_opt arg e.args with
          | Some (F v) -> (e.ts, v) :: acc
          | Some (I i) -> (e.ts, float_of_int i) :: acc
          | Some (S _) | None -> acc
        else acc)
      [] st.events

(* --- exporters --------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Finite shortest-round-trip-ish rendering; byte-stable because it is a
   pure function of the value. *)
let json_float f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else Printf.sprintf "%.6g" f

let arg_json = function
  | S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | I i -> string_of_int i
  | F f -> json_float f

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (arg_json v))
       args)

(* Microsecond timestamps with fixed sub-ns precision: deterministic and
   precise enough for any simulated horizon this repo runs. *)
let us f = Printf.sprintf "%.3f" (f *. 1e6)

let event_json buf e =
  Buffer.add_string buf "{\"ph\":\"";
  Buffer.add_char buf e.ph;
  Buffer.add_string buf "\"";
  (match e.ph with
  | 'M' -> ()
  | 'X' ->
    Buffer.add_string buf (Printf.sprintf ",\"ts\":%s,\"dur\":%s" (us e.ts) (us e.dur))
  | 'i' ->
    Buffer.add_string buf (Printf.sprintf ",\"ts\":%s,\"s\":\"t\"" (us e.ts))
  | _ -> Buffer.add_string buf (Printf.sprintf ",\"ts\":%s" (us e.ts)));
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" e.pid e.tid);
  if e.cat <> "" then
    Buffer.add_string buf (Printf.sprintf ",\"cat\":\"%s\"" (json_escape e.cat));
  Buffer.add_string buf (Printf.sprintf ",\"name\":\"%s\"" (json_escape e.name));
  if e.args <> [] then
    Buffer.add_string buf (Printf.sprintf ",\"args\":{%s}" (args_json e.args));
  Buffer.add_string buf "}"

let chrome_json t =
  match t with
  | Noop -> "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
  | Active st ->
    let buf = Buffer.create (4096 + (st.n_events * 96)) in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    let first = ref true in
    List.iter
      (fun e ->
        if !first then first := false else Buffer.add_string buf ",\n";
        event_json buf e)
      (List.rev st.events);
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

(* Fixed histogram rendering: base 10, enough decades to cover anything
   from 1 to beyond 10^11 (samples are conventionally microseconds). *)
let hist_base = 10.0
let hist_buckets = 12

let sorted_metrics st =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let metrics_json t =
  match t with
  | Noop -> "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n"
  | Active st ->
    let all = sorted_metrics st in
    let section pred render =
      String.concat ","
        (List.filter_map
           (fun (k, m) ->
             match pred m with
             | Some payload ->
               Some
                 (Printf.sprintf "\n    \"%s\": %s" (json_escape k)
                    (render payload))
             | None -> None)
           all)
    in
    let counters =
      section
        (function Counter r -> Some !r | _ -> None)
        string_of_int
    in
    let gauges =
      section (function Gauge r -> Some !r | _ -> None) json_float
    in
    let hists =
      section
        (function Histogram r -> Some (List.rev !r) | _ -> None)
        (fun samples ->
          let h =
            Sim.Stats.log_histogram ~base:hist_base ~buckets:hist_buckets
              samples
          in
          Printf.sprintf
            "{\"n\": %d, \"base\": %s, \"counts\": [%s]}"
            (List.length samples) (json_float hist_base)
            (String.concat ", "
               (Array.to_list (Array.map string_of_int h.Sim.Stats.counts))))
    in
    Printf.sprintf
      "{\n  \"counters\": {%s%s},\n  \"gauges\": {%s%s},\n  \"histograms\": {%s%s}\n}\n"
      counters
      (if counters = "" then "" else "\n  ")
      gauges
      (if gauges = "" then "" else "\n  ")
      hists
      (if hists = "" then "" else "\n  ")

let metrics_text t =
  match t with
  | Noop -> ""
  | Active st ->
    let buf = Buffer.create 1024 in
    List.iter
      (fun (k, m) ->
        match m with
        | Counter r -> Buffer.add_string buf (Printf.sprintf "%-44s %d\n" k !r)
        | Gauge r ->
          Buffer.add_string buf (Printf.sprintf "%-44s %.6g\n" k !r)
        | Histogram r ->
          let samples = List.rev !r in
          let h =
            Sim.Stats.log_histogram ~base:hist_base ~buckets:hist_buckets
              samples
          in
          let cells = ref [] in
          Array.iteri
            (fun i c ->
              if c > 0 then
                cells :=
                  Printf.sprintf "%.0e:%d" h.Sim.Stats.bucket_lo.(i) c
                  :: !cells)
            h.Sim.Stats.counts;
          Buffer.add_string buf
            (Printf.sprintf "%-44s n=%d %s\n" k (List.length samples)
               (String.concat " " (List.rev !cells))))
      (sorted_metrics st);
    Buffer.contents buf
