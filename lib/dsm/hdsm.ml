type node = int
type page_state = Invalid | Shared | Exclusive

type stats = {
  mutable local_hits : int;
  mutable remote_fetches : int;
  mutable invalidations : int;
  mutable bytes_transferred : int;
  mutable protocol_msgs : int;
  mutable prefetched_pages : int;
}

(* [copies] is a bitmask of the nodes holding a valid copy (owner
   included): membership tests and invalidation counting are single
   integer operations instead of list scans on the per-access hot path. *)
type entry = {
  mutable owner : node;
  mutable copies : int;
  mutable exclusive : bool;
  aliased : bool;
}

let bit n = 1 lsl n
let has mask n = mask land bit n <> 0

let rec popcount mask = if mask = 0 then 0 else (mask land 1) + popcount (mask lsr 1)

(* A registered page range is the default-owner map of its untouched
   pages: a page of the range without its own entry is owned exclusively
   by [r_owner]. The per-page entry is materialized lazily on first touch,
   and an entry, once made, always overrides the range. Registering a
   540 MiB working set is therefore O(1) instead of 138k hashtable
   inserts — registration was the dominant cost of spawning a process.
   Ownership moves keep pages untouched too: a stretch of a range moves
   by splitting the range at the stretch's bounds and giving the stretch
   the new owner, and touching neighbours with one owner merge, so the
   number of ranges stays O(processes) however much is drained. *)
type range_info = {
  r_first : int;
  r_count : int;
  mutable r_owner : node;
  mutable r_touched : int;
      (** at least the number of the range's pages that have an entry;
          0 means none has one, so a walk over the range needs no table
          probe *)
}

(* The page table, keyed on the page number. The polymorphic table
   hashes every key through the C [caml_hash]; this one hashes an int
   with a [land], and the drain's [move_span] and the access sweep's
   [no_entry] probe it for every page they walk. Its three iterations
   do not depend on the bucket order: [pages_owned_by] sorts,
   [residual_pages] sums ints, and [drain] mutates each entry. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

type observation =
  | Obs_access of { node : node; page : int; write : bool }
  | Obs_sync of { src : node; dst : node }

type t = {
  nodes : int;
  interconnect : Machine.Interconnect.t;
  handler_latency_s : float;
  batch : bool;
  obs : Obs.t;
  now : unit -> float;
      (** the owning ensemble's simulated clock, for obs event timestamps;
          without one, obs events stamp 0 *)
  pages : entry Pages.t;
  mutable ranges : range_info array;  (** sorted by [r_first], disjoint *)
  mutable strays : int list;
      (** pages given an entry while outside every range
          ({!register_page}, {!register_alias}) *)
  mutable observer : (observation -> unit) option;
  st : stats;
}

let default_handler_latency_s = 50e-6

(* A remote page fault: the handler on top of a page round trip. *)
let fault_latency handler_latency_s link =
  handler_latency_s
  +. Machine.Interconnect.page_transfer_time link ~page_bytes:Memsys.Page.size

let page_fault_latency link = fault_latency default_handler_latency_s link

let create ?(handler_latency_s = default_handler_latency_s) ?(batch = false)
    ?(obs = Obs.noop) ?(now = fun () -> 0.0) ~nodes ~interconnect () =
  if nodes > Sys.int_size - 2 then
    invalid_arg "Hdsm.create: too many nodes for the copy-set bitmask";
  {
    nodes;
    interconnect;
    handler_latency_s;
    batch;
    obs;
    now;
    pages = Pages.create 1024;
    ranges = [||];
    strays = [];
    observer = None;
    st =
      { local_hits = 0; remote_fetches = 0; invalidations = 0;
        bytes_transferred = 0; protocol_msgs = 0; prefetched_pages = 0 };
  }

let set_observer t obs = t.observer <- obs

let check_node t node =
  if node < 0 || node >= t.nodes then
    invalid_arg (Printf.sprintf "Hdsm: unknown node %d" node)

(* Binary search for the index of the range containing [page], or -1. *)
let range_index t page =
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let r = t.ranges.(mid) in
      if page < r.r_first then go lo (mid - 1)
      else if page >= r.r_first + r.r_count then go (mid + 1) hi
      else mid
  in
  go 0 (Array.length t.ranges - 1)

let registered t page = Pages.mem t.pages page || range_index t page >= 0

(* Fold touching neighbours with the same owner into one range. *)
let rec merge = function
  | a :: b :: rest when a.r_owner = b.r_owner && a.r_first + a.r_count = b.r_first
    ->
    merge
      ({ a with r_count = a.r_count + b.r_count;
                r_touched = a.r_touched + b.r_touched }
      :: rest)
  | a :: rest -> a :: merge rest
  | [] -> []

(* Give the pages [a, b) of range [i], [touched] of which have an entry,
   the default owner [owner]: split the range at [a] and [b] and merge
   the pieces into touching neighbours with the same owner. A piece left
   on either side keeps the rest of the range's touched count as its
   bound. *)
let set_default t i ~a ~b ~owner ~touched =
  let r = t.ranges.(i) in
  let stop = r.r_first + r.r_count in
  let rest = r.r_touched - touched in
  let n = Array.length t.ranges in
  let lo = max 0 (i - 1) and hi = min (n - 1) (i + 1) in
  let piece first stop r_owner r_touched after =
    if first < stop then
      { r_first = first; r_count = stop - first; r_owner; r_touched } :: after
    else after
  in
  let window =
    Array.to_list (Array.sub t.ranges lo (i - lo))
    @ piece r.r_first a r.r_owner rest
        (piece a b owner touched
           (piece b stop r.r_owner rest
              (Array.to_list (Array.sub t.ranges (i + 1) (hi - i)))))
  in
  t.ranges <-
    Array.concat
      [ Array.sub t.ranges 0 lo; Array.of_list (merge window);
        Array.sub t.ranges (hi + 1) (n - hi - 1) ]

let register_page t ~page ~owner =
  check_node t owner;
  if not (registered t page) then begin
    Pages.replace t.pages page
      { owner; copies = bit owner; exclusive = true; aliased = false };
    t.strays <- page :: t.strays
  end

let register_range t ~(range : Memsys.Page.range) ~owner =
  check_node t owner;
  if range.Memsys.Page.count > 0 then begin
    (* Adjacent sections may share a boundary page; as with per-page
       registration, the first registration wins — only the uncovered
       sub-intervals of the new range are recorded. *)
    let first = range.Memsys.Page.first in
    let stop = first + range.Memsys.Page.count in
    let uncovered = ref [] in
    let cur = ref first in
    Array.iter
      (fun r ->
        let r_stop = r.r_first + r.r_count in
        if r_stop > !cur && r.r_first < stop then begin
          if r.r_first > !cur then
            uncovered := (!cur, min stop r.r_first) :: !uncovered;
          cur := max !cur r_stop
        end)
      t.ranges;
    if !cur < stop then uncovered := (!cur, stop) :: !uncovered;
    match !uncovered with
    | [] -> ()
    | intervals ->
      (* An uncovered page can have an entry only as a stray. *)
      let strays_in a b =
        List.fold_left
          (fun n p -> if a <= p && p < b then n + 1 else n)
          0 t.strays
      in
      let infos =
        List.rev_map
          (fun (a, b) ->
            { r_first = a; r_count = b - a; r_owner = owner;
              r_touched = strays_in a b })
          intervals
      in
      let ranges = Array.append t.ranges (Array.of_list infos) in
      Array.sort (fun a b -> compare a.r_first b.r_first) ranges;
      t.ranges <- Array.of_list (merge (Array.to_list ranges))
  end

let register_alias t ~page =
  match Pages.find_opt t.pages page with
  | Some e when e.aliased -> ()  (* same text/vDSO page mapped again *)
  | Some _ ->
    invalid_arg
      (Printf.sprintf
         "Hdsm.register_alias: page %d already registered as a data page"
         page)
  | None ->
    if range_index t page >= 0 then
      invalid_arg
        (Printf.sprintf
           "Hdsm.register_alias: page %d already covered by a data range"
           page)
    else begin
      Pages.replace t.pages page
        { owner = 0; copies = bit t.nodes - 1; exclusive = false;
          aliased = true };
      t.strays <- page :: t.strays
    end

(* Hot path of every access: already-materialized pages hit the table
   without allocating an option on the way out. *)
let entry t page =
  match Pages.find t.pages page with
  | e -> e
  | exception Not_found ->
    let i = range_index t page in
    if i < 0 then invalid_arg (Printf.sprintf "Hdsm: unknown page %d" page)
    else begin
      let r = t.ranges.(i) in
      let e =
        { owner = r.r_owner; copies = bit r.r_owner; exclusive = true;
          aliased = false }
      in
      Pages.replace t.pages page e;
      r.r_touched <- r.r_touched + 1;
      e
    end

let state_of t ~page node =
  let e = entry t page in
  if not (has e.copies node) then Invalid
  else if e.aliased then Shared
  else if e.exclusive then Exclusive
  else Shared

let page_latency t = fault_latency t.handler_latency_s t.interconnect

let batch_latency t ~pages =
  t.handler_latency_s
  +. Machine.Interconnect.batch_transfer_time t.interconnect ~pages
       ~page_bytes:Memsys.Page.size

let invalidation_latency t =
  t.handler_latency_s +. t.interconnect.Machine.Interconnect.latency_s

(* Emit the observation events of one access against the {e pre-mutation}
   coherence state: the ordering edges are exactly the protocol messages
   the access is about to trigger (fetch from the owner on a read miss;
   an invalidation ack from every other copy holder on a write). *)
let observe_access t e ~node ~page ~write =
  match t.observer with
  | None -> ()
  | Some f ->
    if not e.aliased then begin
      let has_copy = has e.copies node in
      if write && not (has_copy && e.exclusive && e.owner = node) then begin
        for c = 0 to t.nodes - 1 do
          if c <> node && has e.copies c then f (Obs_sync { src = c; dst = node })
        done
      end
      else if (not write) && not has_copy then
        f (Obs_sync { src = e.owner; dst = node })
    end;
    f (Obs_access { node; page; write })

let access t ~node ~page ~write =
  check_node t node;
  let e = entry t page in
  observe_access t e ~node ~page ~write;
  if e.aliased then begin
    t.st.local_hits <- t.st.local_hits + 1;
    0.0
  end
  else begin
    let has_copy = has e.copies node in
    if has_copy && ((not write) || (e.exclusive && e.owner = node)) then begin
      t.st.local_hits <- t.st.local_hits + 1;
      0.0
    end
    else if not write then begin
      (* Read miss: fetch a shared copy from the owner. *)
      t.st.remote_fetches <- t.st.remote_fetches + 1;
      t.st.bytes_transferred <- t.st.bytes_transferred + Memsys.Page.size;
      t.st.protocol_msgs <- t.st.protocol_msgs + 1;
      e.copies <- e.copies lor bit node;
      e.exclusive <- false;
      page_latency t
    end
    else begin
      (* Write: invalidate every other copy, take exclusive ownership. *)
      let n_others = popcount (e.copies land lnot (bit node)) in
      let fetch = if has_copy then 0.0 else page_latency t in
      if not has_copy then begin
        t.st.remote_fetches <- t.st.remote_fetches + 1;
        t.st.bytes_transferred <- t.st.bytes_transferred + Memsys.Page.size
      end;
      t.st.invalidations <- t.st.invalidations + n_others;
      t.st.protocol_msgs <- t.st.protocol_msgs + 1;
      e.copies <- bit node;
      e.owner <- node;
      e.exclusive <- true;
      fetch +. (float_of_int n_others *. invalidation_latency t)
    end
  end

(* Coalesce the contiguous run [first, first+count) — every page Invalid
   at [node] with one common owner holding the only copy — into a single
   protocol operation: one request, one handler invocation, one response
   carrying all pages (ownership/invalidation of the source copy rides
   the same message). Returns [None] when the run is not uniform, in
   which case nothing has changed except lazily materialized entries. *)
let fetch_run t ~node ~first ~count ~write =
  check_node t node;
  let entries = Array.init count (fun i -> entry t (first + i)) in
  let uniform =
    count > 0
    && begin
         let e0 = entries.(0) in
         (not e0.aliased)
         && e0.owner <> node
         && e0.copies = bit e0.owner
         && Array.for_all
              (fun e ->
                (not e.aliased)
                && e.owner = e0.owner
                && e.copies = bit e0.owner)
              entries
       end
  in
  if not uniform then None
  else begin
    Obs.incr t.obs "dsm.batched_runs";
    if Obs.enabled t.obs then
      Obs.complete t.obs ~ts:(t.now ()) ~dur:(batch_latency t ~pages:count)
        ~pid:node ~tid:Obs.dsm_tid ~cat:"dsm" ~name:"batch_fetch"
        ~args:[ ("first", Obs.I first); ("pages", Obs.I count) ]
        ();
    (* One coalesced protocol message from the common owner carries every
       page of the run: a single ordering edge, one access per page. *)
    (match t.observer with
    | None -> ()
    | Some f ->
      f (Obs_sync { src = entries.(0).owner; dst = node });
      Array.iteri
        (fun i _ -> f (Obs_access { node; page = first + i; write }))
        entries);
    Array.iter
      (fun e ->
        if write then begin
          t.st.invalidations <- t.st.invalidations + 1;
          e.copies <- bit node;
          e.owner <- node;
          e.exclusive <- true
        end
        else begin
          e.copies <- e.copies lor bit node;
          e.exclusive <- false
        end)
      entries;
    t.st.remote_fetches <- t.st.remote_fetches + count;
    t.st.bytes_transferred <- t.st.bytes_transferred + (count * Memsys.Page.size);
    t.st.protocol_msgs <- t.st.protocol_msgs + 1;
    Some (batch_latency t ~pages:count)
  end

(* No page of [page, stop) has an entry. *)
let rec no_entry t page stop =
  page >= stop || ((not (Pages.mem t.pages page)) && no_entry t (page + 1) stop)

(* The whole run lies in one lazy range owned by the accessing node and
   no page of it has an entry: every page is a local hit and would
   materialize to the default entry anyway, so sweep it without creating
   per-page entries. A range with no touched page needs no probe. *)
let owner_sweep t ~node ~first ~count ~write =
  let i = range_index t first in
  let clean =
    i >= 0
    &&
    let r = t.ranges.(i) in
    r.r_owner = node
    && first + count <= r.r_first + r.r_count
    && (r.r_touched = 0 || no_entry t first (first + count))
  in
  if clean then begin
    (match t.observer with
    | None -> ()
    | Some f ->
      for page = first to first + count - 1 do
        f (Obs_access { node; page; write })
      done);
    t.st.local_hits <- t.st.local_hits + count
  end;
  clean

(* One DSM call per phase instead of one per page: the fold over a
   phase's page runs happens inside the service, resolving each page's
   entry once (lazily materialized pages included). With batching
   enabled a run that is Invalid at the caller with a common owner
   becomes one coalesced protocol operation instead of [count] round
   trips. *)
let access_many t ~node ~pages ~write =
  check_node t node;
  let total =
    List.fold_left
      (fun acc { Memsys.Page.first; count } ->
        if owner_sweep t ~node ~first ~count ~write then acc
        else
          let batched =
            if t.batch && count > 1 then fetch_run t ~node ~first ~count ~write
            else None
          in
          match batched with
          | Some latency -> acc +. latency
          | None ->
            let acc = ref acc in
            for page = first to first + count - 1 do
              acc := !acc +. access t ~node ~page ~write
            done;
            !acc)
      0.0 pages
  in
  (* One aggregate protocol event per phase's page fold; purely local
     folds (all hits) stay silent so the dsm lane shows only traffic. *)
  if Obs.enabled t.obs && total > 0.0 then
    Obs.complete t.obs ~ts:(t.now ()) ~dur:total ~pid:node ~tid:Obs.dsm_tid
      ~cat:"dsm" ~name:"access"
      ~args:
        [ ("pages", Obs.I (Memsys.Page.ranges_count pages));
          ("write", Obs.I (if write then 1 else 0)) ]
      ();
  total

let owner t ~page = (entry t page).owner

let pages_owned_by t node =
  let materialized =
    Pages.fold
      (fun page e acc ->
        if (not e.aliased) && e.owner = node then page :: acc else acc)
      t.pages []
  in
  (* Pages without an entry hold their range's default ownership. *)
  let default_owned =
    Array.to_list t.ranges
    |> List.concat_map (fun r ->
           if r.r_owner <> node then []
           else
             List.filter
               (fun page -> not (Pages.mem t.pages page))
               (List.init r.r_count (fun i -> r.r_first + i)))
  in
  List.sort compare (materialized @ default_owned)

(* A range's pages that have an entry of their own — materialized since,
   or registered before the range — count through their entry only. *)
let residual_pages t ~home =
  let in_ranges =
    Array.fold_left
      (fun acc r -> if r.r_owner = home then acc + r.r_count else acc)
      0 t.ranges
  in
  Pages.fold
    (fun page e acc ->
      let acc = if (not e.aliased) && e.owner = home then acc + 1 else acc in
      let i = range_index t page in
      if i >= 0 && t.ranges.(i).r_owner = home then acc - 1 else acc)
    t.pages in_ranges

let drain t ~from_ ~to_ =
  check_node t from_;
  check_node t to_;
  let pages = residual_pages t ~home:from_ in
  (* The bulk transfer is one message stream from the old home: a single
     ordering edge covers every page it carries. *)
  (match t.observer with
  | Some f when pages > 0 -> f (Obs_sync { src = from_; dst = to_ })
  | _ -> ());
  Pages.iter
    (fun _ e ->
      if (not e.aliased) && e.owner = from_ then begin
        e.owner <- to_;
        e.copies <- bit to_;
        e.exclusive <- true
      end)
    t.pages;
  Array.iter (fun r -> if r.r_owner = from_ then r.r_owner <- to_) t.ranges;
  t.ranges <- Array.of_list (merge (Array.to_list t.ranges));
  t.st.remote_fetches <- t.st.remote_fetches + pages;
  t.st.bytes_transferred <- t.st.bytes_transferred + (pages * Memsys.Page.size);
  t.st.protocol_msgs <- t.st.protocol_msgs + pages;
  float_of_int pages *. page_latency t

(* Account [pages] pages moving from [src] to [to_]. *)
let transfer t ~src ~to_ ~pages =
  (match t.observer with
  | None -> ()
  | Some f ->
    for _ = 1 to pages do
      f (Obs_sync { src; dst = to_ })
    done);
  t.st.remote_fetches <- t.st.remote_fetches + pages;
  t.st.bytes_transferred <- t.st.bytes_transferred + (pages * Memsys.Page.size)

(* Move one page to [to_] if it is not already there; returns true when a
   transfer happened. *)
let move_page t to_ page =
  let e = entry t page in
  if e.aliased || e.owner = to_ then false
  else begin
    transfer t ~src:e.owner ~to_ ~pages:1;
    e.owner <- to_;
    e.copies <- bit to_;
    e.exclusive <- true;
    true
  end

(* The one ownership walk: move every page of the contiguous segment to
   [to_], in page order; pages already there and aliased pages stay. A
   page with an entry moves by itself. The pages of a range that have no
   entry move together: the range's stretch inside the segment takes
   [to_] as its default owner (a page with an entry ignores that
   default). A stretch of a range with no touched page moves in O(1)
   without table probes when there is no observer. Each moved page still
   counts once in the stats and sends one [Obs_sync] from its old owner.
   With [per_page], each moved page is also one protocol message,
   counted stretch by stretch so a raise on an unknown page leaves the
   same stats as a page-by-page walk. Returns the number of pages
   moved. *)
let move_span t ~to_ ~per_page { Memsys.Page.first; count } =
  let moved = ref 0 in
  let stop = first + count in
  let page = ref first in
  while !page < stop do
    let before = !moved in
    let i = range_index t !page in
    if i < 0 then begin
      (* Outside every range a page moves by its own entry; an unknown
         page raises there. *)
      if move_page t to_ !page then incr moved;
      incr page
    end
    else begin
      let r = t.ranges.(i) in
      let upto = min stop (r.r_first + r.r_count) and src = r.r_owner in
      let touched = ref 0 in
      if r.r_touched > 0 then
        for p = !page to upto - 1 do
          if Pages.mem t.pages p then begin
            incr touched;
            if move_page t to_ p then incr moved
          end
          else if src <> to_ then begin
            transfer t ~src ~to_ ~pages:1;
            incr moved
          end
        done
      else if src <> to_ then begin
        transfer t ~src ~to_ ~pages:(upto - !page);
        moved := !moved + upto - !page
      end;
      if src <> to_ then
        set_default t i ~a:!page ~b:upto ~owner:to_ ~touched:!touched;
      page := upto
    end;
    if per_page then t.st.protocol_msgs <- t.st.protocol_msgs + !moved - before
  done;
  !moved

(* [acc] plus one [page_latency] per moved page, added one page at a
   time as a page-by-page walk adds them. *)
let add_page_latencies t acc moved =
  let latency = page_latency t in
  let acc = ref acc in
  for _ = 1 to moved do
    acc := !acc +. latency
  done;
  !acc

(* Move the contiguous segment to [to_]: one protocol operation over the
   pages actually moved when batching, else one per page. Returns the
   number of pages moved and the segment's latency. *)
let move_segment t ~to_ seg =
  if t.batch then begin
    let moved = move_span t ~to_ ~per_page:false seg in
    if moved = 0 then (0, 0.0)
    else begin
      t.st.protocol_msgs <- t.st.protocol_msgs + 1;
      (moved, batch_latency t ~pages:moved)
    end
  end
  else
    let moved = move_span t ~to_ ~per_page:true seg in
    (moved, add_page_latencies t 0.0 moved)

(* Drain a chunk of contiguous page segments (one migration-protocol
   batch), accumulating either the per-page latency, one page at a time
   across the whole chunk, or — with batching — one coalesced operation
   per segment. *)
let drain_seq t ~segments ~to_ =
  check_node t to_;
  if t.batch then
    List.fold_left
      (fun acc seg -> acc +. snd (move_segment t ~to_ seg))
      0.0 segments
  else
    List.fold_left
      (fun acc seg ->
        add_page_latencies t acc (move_span t ~to_ ~per_page:true seg))
      0.0 segments

(* Push pages toward [to_] ahead of demand: the migration-time
   working-set prefetch. Each run is one protocol operation when
   batching is on; pages already at the destination cost nothing. *)
let prefetch t ~pages ~to_ =
  check_node t to_;
  let total = ref 0.0 and moved = ref 0 in
  List.iter
    (fun run ->
      let m, lat = move_segment t ~to_ run in
      t.st.prefetched_pages <- t.st.prefetched_pages + m;
      total := !total +. lat;
      moved := !moved + m)
    pages;
  Obs.incr t.obs "dsm.prefetch_ops";
  if Obs.enabled t.obs && !moved > 0 then
    Obs.complete t.obs ~ts:(t.now ()) ~dur:!total ~pid:to_ ~tid:Obs.dsm_tid
      ~cat:"dsm" ~name:"prefetch"
      ~args:[ ("pages", Obs.I !moved) ]
      ();
  !total

let ranges t =
  Array.to_list t.ranges
  |> List.map (fun r ->
         ({ Memsys.Page.first = r.r_first; count = r.r_count }, r.r_owner))

let stats t = t.st

let reset_stats t =
  t.st.local_hits <- 0;
  t.st.remote_fetches <- 0;
  t.st.invalidations <- 0;
  t.st.bytes_transferred <- 0;
  t.st.protocol_msgs <- 0;
  t.st.prefetched_pages <- 0
