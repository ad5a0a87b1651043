(* Per-island event calendar for the time-island runtime: a flat binary
   min-heap keyed by the deterministic total order (time, seq, src).
   [seq] is drawn from the *source* island's event counter and [src] is
   the source island id, so every key is unique (an island never reuses
   a sequence number) and the pop order is a strict total order
   independent of push order — the property the window-barrier merge
   relies on.

   The heap is struct-of-arrays over three unboxed lanes indexed by
   heap position: a float lane for times, an int lane for seqs, and an
   int lane that packs each event's src above its slot id. Payloads
   never move: each sits in [pays] at its slot id. This is the serving
   hot path's dominant data structure — at millions of requests every
   request crosses a calendar four times — and the layout is what makes
   that cheap: key comparisons read unboxed scalars (no pointer chase
   per compare), sifts move only the unboxed lanes (no GC write barrier
   at any level), and sifts move a hole instead of swapping (one write
   per level per lane, not three). A push stores its payload once and a
   pop resets its slot to [dummy] once, so each makes exactly one
   write-barrier store, and the heap never pins a dead closure.

   The packed lane compares as (src, slot), and keys are unique, so it
   orders events exactly as src does; [src] must fit in 32 signed bits
   ([push] checks). Its slot ids are a permutation of
   [0, capacity): positions below [size] hold the live events' ids in
   heap order, positions from [size] up hold the free ids (with no src
   bits), whose payload slots hold [dummy]. A push takes the free id at
   position [size]; a pop leaves its id at the position the heap's last
   element vacates. Packing src with the slot id keeps the calendar at
   the four arrays of a heap that moves its payloads. The popped key is
   kept for {!last_time}: the time in a one-float cell (a mutable float
   field of this record would box on every pop), seq and src as int
   fields. *)

type 'a t = {
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable src_slots : int array;  (* src lsl slot_bits lor slot id *)
  mutable pays : 'a array;  (* by slot id *)
  mutable size : int;
  last_time : float array;  (* one cell *)
  mutable last_src : int;
  mutable last_seq : int;
  (* Pop-order tripwire for the audit layer: with [check_order] on,
     every pop compares its key against the previous pop's and counts
     regressions. Off (the default) it costs one predictable branch. *)
  check_order : bool;
  mutable has_popped : bool;
  mutable order_violations : int;
}

(* A 63-bit int holds a 32-bit signed src above a 31-bit slot id; a
   calendar with 2^31 slots would need tens of GB, so ids always fit. *)
let slot_bits = 31
let[@inline] src_of packed = packed asr slot_bits
let[@inline] slot_of packed = packed land ((1 lsl slot_bits) - 1)
let initial_capacity = 64

let create ?(check_order = false) ~dummy () =
  {
    dummy;
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    src_slots = Array.init initial_capacity Fun.id;
    pays = Array.make initial_capacity dummy;
    size = 0;
    last_time = [| 0.0 |];
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
   at position [i] before the explicit key (time, seq, packed src)? *)
let[@inline] slot_before t i ~time ~seq ~packed =
  let ti = t.times.(i) in
  ti < time
  || (ti = time
      &&
      let qi = t.seqs.(i) in
      qi < seq || (qi = seq && t.src_slots.(i) < packed))

(* Called when every slot is live ([size] = capacity): the key lanes
   keep their heap prefix, the payloads keep their slot ids, and the new
   ids [cap, 2 cap) fill the packed lane's free tail. *)
let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times' = Array.make cap' 0.0 in
  let seqs' = Array.make cap' 0 in
  let src_slots' = Array.init cap' Fun.id in
  let pays' = Array.make cap' t.dummy in
  Array.blit t.times 0 times' 0 cap;
  Array.blit t.seqs 0 seqs' 0 cap;
  Array.blit t.src_slots 0 src_slots' 0 cap;
  Array.blit t.pays 0 pays' 0 cap;
  t.times <- times';
  t.seqs <- seqs';
  t.src_slots <- src_slots';
  t.pays <- pays'

let[@inline] set t i ~time ~seq ~packed =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.src_slots.(i) <- packed

let[@inline] move t ~from ~to_ =
  t.times.(to_) <- t.times.(from);
  t.seqs.(to_) <- t.seqs.(from);
  t.src_slots.(to_) <- t.src_slots.(from)

let push t ~time ~src ~seq payload =
  if src_of (src lsl slot_bits) <> src then
    invalid_arg "Calendar.push: src outside 32 signed bits";
  if t.size = Array.length t.times then grow t;
  let slot = t.src_slots.(t.size) in
  t.pays.(slot) <- payload;
  let packed = (src lsl slot_bits) lor slot in
  (* Sift the hole up from the new leaf; an event later than its parent
     (the common case for future work) settles after one comparison. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if slot_before t parent ~time ~seq ~packed then continue := false
    else begin
      move t ~from:parent ~to_:!i;
      i := parent
    end
  done;
  set t !i ~time ~seq ~packed

let pop t =
  if t.size = 0 then invalid_arg "Calendar.pop: empty";
  let head = t.src_slots.(0) in
  if t.check_order then begin
    (if t.has_popped then
       let ti = t.times.(0) and last = t.last_time.(0) in
       if
         ti < last
         || (ti = last
             && (t.seqs.(0) < t.last_seq
                 || (t.seqs.(0) = t.last_seq && src_of head <= t.last_src)))
       then t.order_violations <- t.order_violations + 1);
    t.has_popped <- true
  end;
  t.last_time.(0) <- t.times.(0);
  t.last_seq <- t.seqs.(0);
  t.last_src <- src_of head;
  let freed = slot_of head in
  let payload = t.pays.(freed) in
  t.pays.(freed) <- t.dummy;
  t.size <- t.size - 1;
  let n = t.size in
  (* Re-insert the last element by sifting the root hole down; the
     freed id takes the position the last element leaves. With [n] = 0
     the last element is the popped one and the loop below is empty. *)
  let time = t.times.(n) and seq = t.seqs.(n) and packed = t.src_slots.(n) in
  t.src_slots.(n) <- freed;
  if n > 0 then begin
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
                qr < ql || (qr = ql && t.src_slots.(r) < t.src_slots.(l)))
          then r
          else l
        in
        if slot_before t c ~time ~seq ~packed then begin
          move t ~from:c ~to_:!i;
          i := c
        end
        else continue := false
      end
    done;
    set t !i ~time ~seq ~packed
  end;
  payload

(* The window loop's one call per event: the emptiness check, the head
   comparison and the pop together, with no float returned. *)
let pop_before t until =
  if t.size = 0 || t.times.(0) >= until then t.dummy else pop t

let last_time t = t.last_time.(0)
let last_src t = t.last_src
let last_seq t = t.last_seq
let order_violations t = t.order_violations
