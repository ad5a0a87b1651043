type t = {
  jid : int;
  spec : Workload.Spec.t;
  threads : int;
  arrival : float;
}

let make ~jid ~spec ~threads ~arrival =
  if threads <= 0 then invalid_arg "Job.make: threads <= 0";
  if arrival < 0.0 then invalid_arg "Job.make: negative arrival";
  { jid; spec; threads; arrival }
