type kind = Thread_migration | Page_request | Page_reply | Service_update

(* In [kind_index] order. *)
let kinds = [| Thread_migration; Page_request; Page_reply; Service_update |]
let all_kinds = Array.to_list kinds

let kind_to_string = function
  | Thread_migration -> "thread_migration"
  | Page_request -> "page_request"
  | Page_reply -> "page_reply"
  | Service_update -> "service_update"

(* Chrome trace row of each kind under the synthetic interconnect track. *)
let kind_index = function
  | Thread_migration -> 0
  | Page_request -> 1
  | Page_reply -> 2
  | Service_update -> 3

(* The per-kind counter names, built once, by [kind_index]. *)
let kind_metrics prefix = Array.map (fun k -> prefix ^ kind_to_string k) kinds

let sent_metric = kind_metrics "msg.sent."
let dropped_metric = kind_metrics "msg.dropped."
let failed_metric = kind_metrics "msg.failed."

type retry_stats = {
  mutable attempts : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable retried : int;
  mutable failed : int;
}

(* Every per-kind table is an array indexed by [kind_index], and the
   plan's fault entry of each kind is resolved once, at [create], so a
   send looks up no name and allocates no option. *)
type t = {
  engine : Sim.Engine.t;
  interconnect : Machine.Interconnect.t;
  faults : Faults.Injector.t;
  kind_faults : Faults.Plan.msg_fault option array;
  obs : Obs.t;
  counts : int array;
  retries : retry_stats array;
  mutable bytes : int;
  mutable messages : int;
}

let create ?faults ?(obs = Obs.noop) engine interconnect =
  let faults =
    match faults with
    | Some inj -> inj
    | None ->
      Faults.Injector.create Faults.Plan.zero
        ~kinds:(List.map kind_to_string all_kinds)
  in
  if Obs.enabled obs then begin
    Obs.process_name obs ~pid:Obs.interconnect_pid "interconnect";
    List.iter
      (fun kind ->
        Obs.thread_name obs ~pid:Obs.interconnect_pid ~tid:(kind_index kind)
          (kind_to_string kind))
      all_kinds
  end;
  {
    engine;
    interconnect;
    faults;
    kind_faults =
      Array.map
        (fun k -> Faults.Injector.fault_for faults ~kind:(kind_to_string k))
        kinds;
    obs;
    counts = Array.make (Array.length kinds) 0;
    retries =
      Array.map
        (fun _ ->
          { attempts = 0; delivered = 0; dropped = 0; retried = 0; failed = 0 })
        kinds;
    bytes = 0;
    messages = 0;
  }

let retry_stats t kind = t.retries.(kind_index kind)

let count_attempt t i ~bytes =
  t.counts.(i) <- t.counts.(i) + 1;
  t.bytes <- t.bytes + bytes;
  t.messages <- t.messages + 1;
  Obs.incr t.obs sent_metric.(i)

(* One complete RPC span per message, from the first send attempt to
   delivery (or abandonment), on the interconnect track's per-kind row.
   The span is emitted at resolution time, so a message still in flight
   when the engine drains never appears — matching the aggregate
   counters, which also only count resolved attempts. *)
let rpc_span t kind ~t0 ~bytes ~attempts ~failed =
  let now = Sim.Engine.now t.engine in
  let dur = now -. t0 in
  Obs.complete t.obs ~ts:t0 ~dur ~pid:Obs.interconnect_pid
    ~tid:(kind_index kind) ~cat:"rpc" ~name:(kind_to_string kind)
    ~args:
      (("bytes", Obs.I bytes) :: ("attempts", Obs.I attempts)
      :: (if failed then [ ("failed", Obs.I 1) ] else []))
    ();
  Obs.observe t.obs "msg.rpc_us" (dur *. 1e6)

let send t kind ?on_failure ~bytes ~on_delivery () =
  if bytes < 0 then invalid_arg "Message.send: negative size";
  let latency = Machine.Interconnect.transfer_time t.interconnect ~bytes in
  let inj = t.faults in
  let i = kind_index kind in
  let fault = t.kind_faults.(i) in
  let stats = t.retries.(i) in
  let budget = Faults.Injector.retry_budget inj in
  let t0 = Sim.Engine.now t.engine in
  (* Attempt [n] (0-based). A lost attempt is detected by timeout: the
     sender waits one transfer time plus an exponentially growing backoff
     before retransmitting. When the budget is exhausted the message is
     abandoned and [on_failure] fires (loudly: the caller decides how to
     recover; there is no silent no-op). The zero plan loses and delays
     nothing and draws nothing, so a plan-free send is one attempt,
     delivered after exactly the transfer time. *)
  let rec attempt n =
    count_attempt t i ~bytes;
    stats.attempts <- stats.attempts + 1;
    if Faults.Injector.drop_attempt inj fault then begin
      stats.dropped <- stats.dropped + 1;
      Obs.incr t.obs dropped_metric.(i);
      if n + 1 < budget then begin
        stats.retried <- stats.retried + 1;
        let backoff = Faults.Injector.backoff ~attempt:(n + 1) in
        if Obs.enabled t.obs then
          Obs.instant t.obs ~ts:(Sim.Engine.now t.engine)
            ~pid:Obs.interconnect_pid ~tid:i ~cat:"rpc"
            ~name:"retry"
            ~args:[ ("attempt", Obs.I (n + 1)); ("backoff_us", Obs.F (backoff *. 1e6)) ]
            ();
        Sim.Engine.schedule_in t.engine ~after:(latency +. backoff)
          (fun () -> attempt (n + 1))
      end
      else begin
        stats.failed <- stats.failed + 1;
        Obs.incr t.obs failed_metric.(i);
        if Obs.enabled t.obs then
          rpc_span t kind ~t0 ~bytes ~attempts:(n + 1) ~failed:true;
        match on_failure with Some f -> f () | None -> ()
      end
    end
    else begin
      stats.delivered <- stats.delivered + 1;
      let extra = Faults.Injector.delivery_delay inj fault in
      if Obs.enabled t.obs then
        Sim.Engine.schedule_in t.engine ~after:(latency +. extra) (fun () ->
            rpc_span t kind ~t0 ~bytes ~attempts:(n + 1) ~failed:false;
            on_delivery ())
      else Sim.Engine.schedule_in t.engine ~after:(latency +. extra) on_delivery
    end
  in
  attempt 0

let sent t kind = t.counts.(kind_index kind)

let total_bytes t = t.bytes
let total_messages t = t.messages
