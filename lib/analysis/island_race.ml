(* Island ownership check over a captured time-island execution.

   §7b requires every action to touch only its own island's state;
   cross-island causality flows through posts alone. Each ownership
   touch names the island that owns the touched state, so the contract
   is checked touch by touch: a touch whose owner is not the island
   executing the event is a breach, whatever window it falls in and
   whether or not any other island touches the same state. *)

module D = Diagnostic
module I = Sim.Islands

let rules =
  [
    ( "island-race",
      D.Error,
      "an event touched state owned by another island" );
  ]

let check ~label (cap : I.capture) =
  (* Island order, then execution order; one diagnostic per (executing
     island, owner) pair keeps a systematic breach readable. *)
  let flagged = Hashtbl.create 8 in
  let diags = ref [] in
  Array.iter
    (List.iter (fun (x : I.exec_rec) ->
         List.iter
           (fun owner ->
             let isl = x.I.x_isl in
             if owner <> isl && not (Hashtbl.mem flagged (isl, owner)) then begin
               Hashtbl.add flagged (isl, owner) ();
               diags :=
                 D.make ~rule:"island-race" ~severity:D.Error ~prog:label
                   ~func:(Printf.sprintf "island-%d" isl)
                   ~site:(Printf.sprintf "w%d" x.I.x_window)
                   (Printf.sprintf
                      "event (%g, %d, %d) on island %d touched state owned by \
                       island %d"
                      x.I.x_time x.I.x_seq x.I.x_src isl owner)
                 :: !diags
             end)
           x.I.x_touches))
    cap.I.c_execs;
  List.rev !diags
