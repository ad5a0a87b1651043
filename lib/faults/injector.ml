type t = {
  plan : Plan.t;
  rng : Sim.Prng.t;
  by_kind : (string, Plan.msg_fault) Hashtbl.t;
  wildcard : Plan.msg_fault option;
  mutable drops : int;
}

let create (plan : Plan.t) ~kinds =
  let by_kind = Hashtbl.create 8 in
  let wildcard = ref None in
  List.iter
    (fun (f : Plan.msg_fault) ->
      if f.Plan.kind = "*" then wildcard := Some f
      else if List.mem f.Plan.kind kinds then
        Hashtbl.replace by_kind f.Plan.kind f
      else
        invalid_arg
          (Printf.sprintf
             "Faults.Injector: plan references undefined message kind %S \
              (known: %s)"
             f.Plan.kind (String.concat ", " kinds)))
    plan.Plan.messages;
  {
    plan;
    rng = Sim.Prng.create plan.Plan.seed;
    by_kind;
    wildcard = !wildcard;
    drops = 0;
  }

let plan t = t.plan

let fault_for t ~kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some f -> Some f
  | None -> t.wildcard

(* Draw from the PRNG only when the probability is positive: the zero
   plan must not perturb the stream, so that a zero-plan run is
   bit-identical to a plan-free run. *)
let bernoulli t p = p > 0.0 && Sim.Prng.float t.rng 1.0 < p

let drop_attempt t fault =
  match fault with
  | None -> false
  | Some f ->
    let hit = bernoulli t f.Plan.drop in
    if hit then t.drops <- t.drops + 1;
    hit

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
let drops_injected t = t.drops
