type kind = Thread_migration | Page_request | Page_reply | Service_update

let all_kinds = [ Thread_migration; Page_request; Page_reply; Service_update ]

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

type retry_stats = {
  mutable attempts : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable retried : int;
  mutable failed : int;
}

type t = {
  engine : Sim.Engine.t;
  interconnect : Machine.Interconnect.t;
  faults : Faults.Injector.t;
  obs : Obs.t;
  counts : (kind, int) Hashtbl.t;
  retries : (kind, retry_stats) Hashtbl.t;
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
    obs;
    counts = Hashtbl.create 8;
    retries = Hashtbl.create 8;
    bytes = 0;
    messages = 0;
  }

let retry_stats t kind =
  match Hashtbl.find_opt t.retries kind with
  | Some s -> s
  | None ->
    let s = { attempts = 0; delivered = 0; dropped = 0; retried = 0; failed = 0 } in
    Hashtbl.replace t.retries kind s;
    s

let count_attempt t kind ~bytes =
  let n = match Hashtbl.find_opt t.counts kind with None -> 0 | Some n -> n in
  Hashtbl.replace t.counts kind (n + 1);
  t.bytes <- t.bytes + bytes;
  t.messages <- t.messages + 1;
  Obs.incr t.obs ("msg.sent." ^ kind_to_string kind)

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
  let kind_name = kind_to_string kind in
  let stats = retry_stats t kind in
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
    count_attempt t kind ~bytes;
    stats.attempts <- stats.attempts + 1;
    if Faults.Injector.drop_attempt inj ~kind:kind_name then begin
      stats.dropped <- stats.dropped + 1;
      Obs.incr t.obs ("msg.dropped." ^ kind_name);
      if n + 1 < budget then begin
        stats.retried <- stats.retried + 1;
        let backoff = Faults.Injector.backoff ~attempt:(n + 1) in
        if Obs.enabled t.obs then
          Obs.instant t.obs ~ts:(Sim.Engine.now t.engine)
            ~pid:Obs.interconnect_pid ~tid:(kind_index kind) ~cat:"rpc"
            ~name:"retry"
            ~args:[ ("attempt", Obs.I (n + 1)); ("backoff_us", Obs.F (backoff *. 1e6)) ]
            ();
        Sim.Engine.schedule_in t.engine ~after:(latency +. backoff)
          (fun () -> attempt (n + 1))
      end
      else begin
        stats.failed <- stats.failed + 1;
        Obs.incr t.obs ("msg.failed." ^ kind_name);
        if Obs.enabled t.obs then
          rpc_span t kind ~t0 ~bytes ~attempts:(n + 1) ~failed:true;
        match on_failure with Some f -> f () | None -> ()
      end
    end
    else begin
      stats.delivered <- stats.delivered + 1;
      let extra = Faults.Injector.delivery_delay inj ~kind:kind_name in
      if Obs.enabled t.obs then
        Sim.Engine.schedule_in t.engine ~after:(latency +. extra) (fun () ->
            rpc_span t kind ~t0 ~bytes ~attempts:(n + 1) ~failed:false;
            on_delivery ())
      else Sim.Engine.schedule_in t.engine ~after:(latency +. extra) on_delivery
    end
  in
  attempt 0

let sent t kind =
  match Hashtbl.find_opt t.counts kind with None -> 0 | Some n -> n

let total_bytes t = t.bytes
let total_messages t = t.messages
