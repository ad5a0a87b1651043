type phase = {
  instructions : float;
  category : Isa.Cost_model.category;
  pages : Memsys.Page.range list;
  writes : bool;
}

type status = Ready | Running | Migrating | Done

type thread = {
  tid : int;
  mutable node : int;
  mutable status : status;
  mutable remaining : phase Seq.t;
  mutable migrate_to : int option;
  continuation : Continuation.t;
  mutable migrations : int;
  mutable aborted_migrations : int;
  mutable gen : int;
}

type t = {
  pid : int;
  mutable home : int;
  data_pages : Memsys.Page.range list;
  threads : thread list;
  transform_latency : Isa.Arch.t -> float;
  mutable finished_at : float option;
  mutable aborted : bool;
}

let make_thread ~tid ~node ~phases =
  {
    tid;
    node;
    status = Ready;
    remaining = phases;
    migrate_to = None;
    continuation = Continuation.create ();
    migrations = 0;
    aborted_migrations = 0;
    gen = 0;
  }

let make ~pid ~home ~data_pages ~threads ~transform_latency =
  { pid; home; data_pages; threads; transform_latency;
    finished_at = None; aborted = false }

let alive t = List.exists (fun th -> th.status <> Done) t.threads

let request_migration t ~to_node =
  List.iter
    (fun th -> if th.status <> Done then th.migrate_to <- Some to_node)
    t.threads
