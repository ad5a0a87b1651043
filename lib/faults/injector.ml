type t = { plan : Plan.t; rng : Sim.Prng.t }

let create (plan : Plan.t) ~kinds =
  List.iter
    (fun (f : Plan.msg_fault) ->
      if f.Plan.kind <> "*" && not (List.mem f.Plan.kind kinds) then
        invalid_arg
          (Printf.sprintf
             "Faults.Injector: plan references undefined message kind %S \
              (known: %s)"
             f.Plan.kind (String.concat ", " kinds)))
    plan.Plan.messages;
  { plan; rng = Sim.Prng.create plan.Plan.seed }

(* [Plan.make] rejects a second entry for a kind, so the first match is
   the only one. *)
let fault_for t ~kind =
  let entry k =
    List.find_opt (fun (f : Plan.msg_fault) -> f.Plan.kind = k)
      t.plan.Plan.messages
  in
  match entry kind with Some _ as own -> own | None -> entry "*"

(* Draw from the PRNG only when the probability is positive: the zero
   plan must not perturb the stream, so that a zero-plan run is
   bit-identical to a plan-free run. *)
let bernoulli t p = p > 0.0 && Sim.Prng.float t.rng 1.0 < p

let drop_attempt t fault =
  match fault with None -> false | Some f -> bernoulli t f.Plan.drop

let delivery_delay t fault =
  match fault with
  | None -> 0.0
  | Some f ->
    if bernoulli t f.Plan.delay then f.Plan.delay_s else 0.0

let page_timeout t = bernoulli t t.plan.Plan.page_timeout_rate

let retry_budget t = t.plan.Plan.retry_budget

let backoff ~attempt =
  if attempt < 1 then invalid_arg "Faults.Injector.backoff: attempt < 1";
  Plan.backoff_base_s *. Float.of_int (1 lsl (attempt - 1))

let crashes t = t.plan.Plan.crashes
