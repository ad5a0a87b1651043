(* Per-island event calendar for the time-island runtime: a flat binary
   min-heap keyed by the deterministic total order (time, seq, src).
   [seq] is drawn from the *source* island's event counter and [src] is
   the source island id, so every key is unique (an island never reuses
   a sequence number) and the pop order is a strict total order
   independent of push order — the property the window-barrier merge
   relies on.

   The heap is struct-of-arrays: one float lane for times, int lanes
   for seqs and srcs, and a single boxed lane for payloads. This is the
   serving hot path's dominant data structure — at millions of requests
   every request crosses a calendar four times — and the layout is what
   makes that cheap: key comparisons read unboxed scalars (no pointer
   chase per compare), sift moves on the scalar lanes dodge the GC
   write barrier entirely (only the payload lane pays it), and sifts
   move a hole instead of swapping (one write per level per lane, not
   three). Steady-state push/pop allocates nothing; popped payload
   slots are nulled with [dummy] so the heap never pins dead
   closures. *)

type 'a t = {
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable srcs : int array;
  mutable pays : 'a array;
  mutable size : int;
  mutable last_time : float;
  mutable last_src : int;
  mutable last_seq : int;
  (* Pop-order tripwire for the audit layer: with [check_order] on,
     every pop compares its key against the previous pop's and counts
     regressions. Off (the default) it costs one predictable branch. *)
  check_order : bool;
  mutable has_popped : bool;
  mutable order_violations : int;
}

let initial_capacity = 64

let create ?(check_order = false) ~dummy () =
  {
    dummy;
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    srcs = Array.make initial_capacity 0;
    pays = Array.make initial_capacity dummy;
    size = 0;
    last_time = 0.0;
    last_src = 0;
    last_seq = 0;
    check_order;
    has_popped = false;
    order_violations = 0;
  }

let size t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.times
let min_time t = if t.size = 0 then Float.infinity else t.times.(0)

(* The (time, seq, src) total order of the islanded runtime: is the key
   at slot [i] before the explicit key (time, seq, src)? *)
let[@inline] slot_before t i ~time ~seq ~src =
  let ti = t.times.(i) in
  ti < time
  || (ti = time
      &&
      let qi = t.seqs.(i) in
      qi < seq || (qi = seq && t.srcs.(i) < src))

let grow t =
  let cap' = 2 * Array.length t.times in
  let times' = Array.make cap' 0.0 in
  let seqs' = Array.make cap' 0 in
  let srcs' = Array.make cap' 0 in
  let pays' = Array.make cap' t.dummy in
  Array.blit t.times 0 times' 0 t.size;
  Array.blit t.seqs 0 seqs' 0 t.size;
  Array.blit t.srcs 0 srcs' 0 t.size;
  Array.blit t.pays 0 pays' 0 t.size;
  t.times <- times';
  t.seqs <- seqs';
  t.srcs <- srcs';
  t.pays <- pays'

let[@inline] set t i ~time ~seq ~src payload =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.srcs.(i) <- src;
  t.pays.(i) <- payload

let[@inline] move t ~from ~to_ =
  t.times.(to_) <- t.times.(from);
  t.seqs.(to_) <- t.seqs.(from);
  t.srcs.(to_) <- t.srcs.(from);
  t.pays.(to_) <- t.pays.(from)

let push t ~time ~src ~seq payload =
  if t.size = Array.length t.times then grow t;
  (* Sift the hole up from the new leaf; an event later than its parent
     (the common case for future work) settles after one comparison. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if slot_before t parent ~time ~seq ~src then continue := false
    else begin
      move t ~from:parent ~to_:!i;
      i := parent
    end
  done;
  set t !i ~time ~seq ~src payload

let pop t =
  if t.size = 0 then invalid_arg "Calendar.pop: empty";
  if t.check_order then begin
    (if t.has_popped then
       let ti = t.times.(0) in
       if
         ti < t.last_time
         || (ti = t.last_time
             && (t.seqs.(0) < t.last_seq
                 || (t.seqs.(0) = t.last_seq && t.srcs.(0) <= t.last_src)))
       then t.order_violations <- t.order_violations + 1);
    t.has_popped <- true
  end;
  t.last_time <- t.times.(0);
  t.last_seq <- t.seqs.(0);
  t.last_src <- t.srcs.(0);
  let payload = t.pays.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  if n = 0 then t.pays.(0) <- t.dummy
  else begin
    (* Re-insert the last element by sifting the root hole down. *)
    let time = t.times.(n) and seq = t.seqs.(n) and src = t.srcs.(n) in
    let last = t.pays.(n) in
    t.pays.(n) <- t.dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            &&
            let tr = t.times.(r) and tl = t.times.(l) in
            tr < tl
            || (tr = tl
                &&
                let qr = t.seqs.(r) and ql = t.seqs.(l) in
                qr < ql || (qr = ql && t.srcs.(r) < t.srcs.(l)))
          then r
          else l
        in
        if slot_before t c ~time ~seq ~src then begin
          move t ~from:c ~to_:!i;
          i := c
        end
        else continue := false
      end
    done;
    set t !i ~time ~seq ~src last
  end;
  payload

let last_time t = t.last_time
let last_src t = t.last_src
let last_seq t = t.last_seq
let order_violations t = t.order_violations

let clear t =
  if Array.length t.times > initial_capacity then begin
    t.times <- Array.make initial_capacity 0.0;
    t.seqs <- Array.make initial_capacity 0;
    t.srcs <- Array.make initial_capacity 0;
    t.pays <- Array.make initial_capacity t.dummy
  end
  else Array.fill t.pays 0 t.size t.dummy;
  t.size <- 0;
  (* A cleared calendar starts a fresh key stream (a cleared engine is
     reused for an unrelated run); accumulated violations persist. *)
  t.has_popped <- false
