(** Datacenter jobs. *)

type t = {
  jid : int;
  spec : Workload.Spec.t;
  threads : int;
  arrival : float;  (** seconds from experiment start *)
}

val make : jid:int -> spec:Workload.Spec.t -> threads:int -> arrival:float -> t
