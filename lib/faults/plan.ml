type msg_fault = {
  kind : string;
  drop : float;
  delay : float;
  delay_s : float;
}

type crash = { at : float; node : int }

type t = {
  seed : int;
  messages : msg_fault list;
  crashes : crash list;
  page_timeout_rate : float;
  retry_budget : int;
}

let default_retry_budget = 3
let page_timeout_penalty_s = 1e-3
let backoff_base_s = 50e-6

let zero =
  {
    seed = 0;
    messages = [];
    crashes = [];
    page_timeout_rate = 0.0;
    retry_budget = default_retry_budget;
  }

let check_probability what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Faults.Plan: %s=%g outside [0,1]" what p)

let check_non_negative what v =
  if not (v >= 0.0) then
    invalid_arg (Printf.sprintf "Faults.Plan: negative %s (%g)" what v)

let make ?(seed = 0) ?(messages = []) ?(crashes = [])
    ?(page_timeout_rate = 0.0) ?(retry_budget = default_retry_budget) () =
  List.iter
    (fun f ->
      check_probability (f.kind ^ ".drop") f.drop;
      check_probability (f.kind ^ ".delay") f.delay;
      check_non_negative (f.kind ^ ".delay_s") f.delay_s)
    messages;
  let rec dup_kind = function
    | [] -> None
    | f :: rest ->
      if List.exists (fun g -> g.kind = f.kind) rest then Some f.kind
      else dup_kind rest
  in
  (match dup_kind messages with
  | Some k ->
    invalid_arg
      (Printf.sprintf "Faults.Plan: duplicate entry for message kind %s" k)
  | None -> ());
  List.iter (fun c -> check_non_negative "crash time" c.at) crashes;
  check_probability "page_timeout_rate" page_timeout_rate;
  if retry_budget < 1 then
    invalid_arg
      (Printf.sprintf
         "Faults.Plan: retry_budget=%d (must allow at least one attempt)"
         retry_budget);
  { seed; messages; crashes; page_timeout_rate; retry_budget }

let uniform ?seed ?retry_budget ~drop () =
  make ?seed ?retry_budget
    ~messages:[ { kind = "*"; drop; delay = 0.0; delay_s = 0.0 } ]
    ()

let pp ppf t =
  Format.fprintf ppf "plan{seed=%d; retry=%d; backoff=%gus" t.seed
    t.retry_budget (backoff_base_s *. 1e6);
  List.iter
    (fun f ->
      Format.fprintf ppf "; %s:drop=%g,delay=%g" f.kind f.drop f.delay)
    t.messages;
  List.iter
    (fun c -> Format.fprintf ppf "; crash(node%d@@%gs)" c.node c.at)
    t.crashes;
  if t.page_timeout_rate > 0.0 then
    Format.fprintf ppf "; page_timeout=%g" t.page_timeout_rate;
  Format.fprintf ppf "}"
