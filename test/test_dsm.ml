let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let checkf msg = Alcotest.check (Alcotest.float 1e-12) msg

let make_dsm () =
  Dsm.Hdsm.create ~nodes:2 ~interconnect:Machine.Interconnect.dolphin_pxh810 ()

let initial_exclusive () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  checkb "owner exclusive" true (Dsm.Hdsm.state_of d ~page:1 0 = Dsm.Hdsm.Exclusive);
  checkb "other invalid" true (Dsm.Hdsm.state_of d ~page:1 1 = Dsm.Hdsm.Invalid);
  checki "owner" 0 (Dsm.Hdsm.owner d ~page:1)

let local_hits_free () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  checkf "local read free" 0.0 (Dsm.Hdsm.access d ~node:0 ~page:1 ~write:false);
  checkf "local write free" 0.0 (Dsm.Hdsm.access d ~node:0 ~page:1 ~write:true);
  checki "two hits" 2 (Dsm.Hdsm.stats d).Dsm.Hdsm.local_hits

let read_miss_fetches_shared () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  let lat = Dsm.Hdsm.access d ~node:1 ~page:1 ~write:false in
  checkb "remote fetch costs" true (lat > 0.0);
  checkb "now shared at both" true
    (Dsm.Hdsm.state_of d ~page:1 0 = Dsm.Hdsm.Shared
    && Dsm.Hdsm.state_of d ~page:1 1 = Dsm.Hdsm.Shared);
  checkf "second read local" 0.0 (Dsm.Hdsm.access d ~node:1 ~page:1 ~write:false)

let write_invalidates () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  ignore (Dsm.Hdsm.access d ~node:1 ~page:1 ~write:false);
  let lat = Dsm.Hdsm.access d ~node:1 ~page:1 ~write:true in
  checkb "invalidation costs" true (lat > 0.0);
  checkb "writer exclusive" true
    (Dsm.Hdsm.state_of d ~page:1 1 = Dsm.Hdsm.Exclusive);
  checkb "old owner invalidated" true
    (Dsm.Hdsm.state_of d ~page:1 0 = Dsm.Hdsm.Invalid);
  checki "ownership moved" 1 (Dsm.Hdsm.owner d ~page:1);
  checki "one invalidation" 1 (Dsm.Hdsm.stats d).Dsm.Hdsm.invalidations

let write_miss_fetch_and_invalidate () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  let lat = Dsm.Hdsm.access d ~node:1 ~page:1 ~write:true in
  (* Fetch + invalidate the old copy. *)
  checkb "costs both" true (lat > 0.0);
  checkb "writer exclusive" true
    (Dsm.Hdsm.state_of d ~page:1 1 = Dsm.Hdsm.Exclusive)

let aliased_pages_never_move () =
  let d = make_dsm () in
  Dsm.Hdsm.register_alias d ~page:9;
  checkf "free everywhere read" 0.0 (Dsm.Hdsm.access d ~node:1 ~page:9 ~write:false);
  checkf "free everywhere exec" 0.0 (Dsm.Hdsm.access d ~node:0 ~page:9 ~write:false);
  checkb "always shared" true (Dsm.Hdsm.state_of d ~page:9 0 = Dsm.Hdsm.Shared);
  checkb "not counted as owned" true (Dsm.Hdsm.pages_owned_by d 0 = [])

let unknown_page_rejected () =
  let d = make_dsm () in
  checkb "raises" true
    (try
       ignore (Dsm.Hdsm.access d ~node:0 ~page:404 ~write:false);
       false
     with Invalid_argument _ -> true)

let unknown_node_rejected () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  checkb "raises" true
    (try
       ignore (Dsm.Hdsm.access d ~node:7 ~page:1 ~write:false);
       false
     with Invalid_argument _ -> true)

let residual_and_drain () =
  let d = make_dsm () in
  for p = 0 to 9 do
    Dsm.Hdsm.register_page d ~page:p ~owner:0
  done;
  checki "10 residual" 10 (Dsm.Hdsm.residual_pages d ~home:0);
  let lat = Dsm.Hdsm.drain d ~from_:0 ~to_:1 in
  checkb "drain costs" true (lat > 0.0);
  checki "none left" 0 (Dsm.Hdsm.residual_pages d ~home:0);
  checki "all at new home" 10 (Dsm.Hdsm.residual_pages d ~home:1)

let drain_seq_partial () =
  let d = make_dsm () in
  for p = 0 to 9 do
    Dsm.Hdsm.register_page d ~page:p ~owner:0
  done;
  let segments = [ { Memsys.Page.first = 0; count = 3 } ] in
  let lat = Dsm.Hdsm.drain_seq d ~segments ~to_:1 in
  checkb "costs" true (lat > 0.0);
  checki "7 residual" 7 (Dsm.Hdsm.residual_pages d ~home:0);
  (* Draining pages already at the destination is free. *)
  checkf "idempotent free" 0.0 (Dsm.Hdsm.drain_seq d ~segments ~to_:1)

let page_migration_makes_access_local () =
  (* The hDSM rationale: after migration, accesses are local rather than
     repeatedly remote. *)
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  let first = Dsm.Hdsm.access d ~node:1 ~page:1 ~write:true in
  let rest =
    List.init 100 (fun _ -> Dsm.Hdsm.access d ~node:1 ~page:1 ~write:true)
  in
  checkb "first access pays" true (first > 0.0);
  checkb "rest free" true (List.for_all (fun l -> l = 0.0) rest)

let stats_bytes_accounted () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  ignore (Dsm.Hdsm.access d ~node:1 ~page:1 ~write:false);
  checki "one page of traffic" Memsys.Page.size
    (Dsm.Hdsm.stats d).Dsm.Hdsm.bytes_transferred;
  Dsm.Hdsm.reset_stats d;
  checki "reset" 0 (Dsm.Hdsm.stats d).Dsm.Hdsm.bytes_transferred

(* Invariant: single writer / multiple readers, owner always has a copy. *)
let coherence_random_props =
  QCheck.Test.make ~name:"hDSM invariants under random access interleavings"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Prng.create seed in
      let nodes = 2 + Sim.Prng.int rng 3 in
      let d =
        Dsm.Hdsm.create ~nodes ~interconnect:Machine.Interconnect.dolphin_pxh810
          ()
      in
      let pages = 1 + Sim.Prng.int rng 8 in
      for p = 0 to pages - 1 do
        Dsm.Hdsm.register_page d ~page:p ~owner:(Sim.Prng.int rng nodes)
      done;
      let ok = ref true in
      for _ = 1 to 200 do
        let node = Sim.Prng.int rng nodes in
        let page = Sim.Prng.int rng pages in
        let write = Sim.Prng.bool rng in
        let (_ : float) = Dsm.Hdsm.access d ~node ~page ~write in
        (* After any access: the accessing node holds a valid copy; if it
           wrote, it is the exclusive owner and everyone else is invalid. *)
        let st = Dsm.Hdsm.state_of d ~page node in
        if st = Dsm.Hdsm.Invalid then ok := false;
        if write then begin
          if st <> Dsm.Hdsm.Exclusive then ok := false;
          if Dsm.Hdsm.owner d ~page <> node then ok := false;
          for other = 0 to nodes - 1 do
            if other <> node && Dsm.Hdsm.state_of d ~page other <> Dsm.Hdsm.Invalid
            then ok := false
          done
        end
      done;
      !ok)

(* --- batched transfers, aliasing guard, prefetch ------------------------ *)

let make_batched () =
  Dsm.Hdsm.create ~batch:true ~nodes:2
    ~interconnect:Machine.Interconnect.dolphin_pxh810 ()

let alias_guard_rejects_data_pages () =
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:1 ~owner:0;
  Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 10; count = 4 } ~owner:1;
  Dsm.Hdsm.register_alias d ~page:5;
  (* Idempotent on an already-aliased page. *)
  Dsm.Hdsm.register_alias d ~page:5;
  let rejects page =
    try
      Dsm.Hdsm.register_alias d ~page;
      false
    with Invalid_argument _ -> true
  in
  checkb "rejects an individually registered data page" true (rejects 1);
  checkb "rejects a page inside a lazy data range" true (rejects 12);
  (* The failed attempts must not have clobbered coherence state. *)
  checki "page keeps its owner" 0 (Dsm.Hdsm.owner d ~page:1);
  checki "range page keeps its owner" 1 (Dsm.Hdsm.owner d ~page:12);
  checkb "still exclusive at owner" true
    (Dsm.Hdsm.state_of d ~page:1 0 = Dsm.Hdsm.Exclusive)

let fetch_run_uniform_batches () =
  let d = make_batched () in
  Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count = 8 } ~owner:0;
  let lat = Dsm.Hdsm.fetch_run d ~node:1 ~first:0 ~count:8 ~write:true in
  checkb "uniform run coalesces" true (lat <> None);
  for p = 0 to 7 do
    checki "ownership moved" 1 (Dsm.Hdsm.owner d ~page:p)
  done;
  let st = Dsm.Hdsm.stats d in
  checki "one round trip" 1 st.Dsm.Hdsm.protocol_msgs;
  checki "all pages counted" 8 st.Dsm.Hdsm.remote_fetches;
  checki "all bytes counted" (8 * Memsys.Page.size) st.Dsm.Hdsm.bytes_transferred

let fetch_run_nonuniform_refuses () =
  let d = make_batched () in
  Dsm.Hdsm.register_page d ~page:0 ~owner:0;
  Dsm.Hdsm.register_page d ~page:1 ~owner:1;
  (* Mixed owners: node 1 already owns page 1. *)
  checkb "mixed-owner run refused" true
    (Dsm.Hdsm.fetch_run d ~node:1 ~first:0 ~count:2 ~write:true = None);
  checki "no state change" 0 (Dsm.Hdsm.owner d ~page:0);
  checki "no traffic" 0 (Dsm.Hdsm.stats d).Dsm.Hdsm.remote_fetches;
  (* A shared copy at a third party also breaks uniformity. *)
  let d3 =
    Dsm.Hdsm.create ~batch:true ~nodes:3
      ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
  in
  Dsm.Hdsm.register_page d3 ~page:0 ~owner:0;
  Dsm.Hdsm.register_page d3 ~page:1 ~owner:0;
  ignore (Dsm.Hdsm.access d3 ~node:2 ~page:1 ~write:false);
  checkb "sharer in run refused" true
    (Dsm.Hdsm.fetch_run d3 ~node:1 ~first:0 ~count:2 ~write:true = None)

let batching_cheaper_than_per_page () =
  let run batch =
    let d =
      Dsm.Hdsm.create ~batch ~nodes:2
        ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
    in
    Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count = 64 }
      ~owner:0;
    let lat =
      Dsm.Hdsm.access_many d ~node:1
        ~pages:[ { Memsys.Page.first = 0; count = 64 } ]
        ~write:true
    in
    (lat, Dsm.Hdsm.stats d)
  in
  let lat_pp, st_pp = run false in
  let lat_b, st_b = run true in
  checkb "coalesced run at least 10x cheaper" true (lat_pp > 10.0 *. lat_b);
  checki "same pages moved" st_pp.Dsm.Hdsm.remote_fetches
    st_b.Dsm.Hdsm.remote_fetches;
  checki "same bytes moved" st_pp.Dsm.Hdsm.bytes_transferred
    st_b.Dsm.Hdsm.bytes_transferred;
  checki "same invalidations" st_pp.Dsm.Hdsm.invalidations
    st_b.Dsm.Hdsm.invalidations;
  checkb "fewer round trips" true
    (st_b.Dsm.Hdsm.protocol_msgs < st_pp.Dsm.Hdsm.protocol_msgs)

let prefetch_moves_and_localizes () =
  let d = make_batched () in
  Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count = 16 } ~owner:0;
  (* Partially materialize the range first. *)
  ignore (Dsm.Hdsm.access d ~node:1 ~page:3 ~write:true);
  let all = [ { Memsys.Page.first = 0; count = 16 } ] in
  let lat = Dsm.Hdsm.prefetch d ~pages:all ~to_:1 in
  checkb "prefetch costs" true (lat > 0.0);
  checki "only the 15 remote pages pushed" 15
    (Dsm.Hdsm.stats d).Dsm.Hdsm.prefetched_pages;
  checki "nothing left at the source" 0 (Dsm.Hdsm.residual_pages d ~home:0);
  checkf "subsequent access local" 0.0
    (Dsm.Hdsm.access d ~node:1 ~page:9 ~write:true);
  (* Prefetching pages already at the destination is free. *)
  checkf "idempotent free" 0.0
    (Dsm.Hdsm.prefetch d ~pages:all ~to_:1)

let adjacent_ranges_share_boundary () =
  List.iter
    (fun batch ->
      let d =
        Dsm.Hdsm.create ~batch ~nodes:2
          ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
      in
      Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count = 4 }
        ~owner:0;
      (* Overlaps the first range on page 3: first registration wins. *)
      Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 3; count = 4 }
        ~owner:1;
      checki "boundary page keeps first owner" 0 (Dsm.Hdsm.owner d ~page:3);
      checki "remainder gets second owner" 1 (Dsm.Hdsm.owner d ~page:4);
      (* A run crossing the ownership boundary still coheres correctly. *)
      ignore
        (Dsm.Hdsm.access_many d ~node:1
           ~pages:[ { Memsys.Page.first = 2; count = 4 } ]
           ~write:true);
      List.iter (fun p -> checki "node 1 owns after write" 1 (Dsm.Hdsm.owner d ~page:p))
        [ 2; 3; 4; 5 ])
    [ false; true ]

(* Batched and per-page protocols must be observationally equivalent:
   identical final coherence state and identical page/byte/invalidation
   accounting; only latency and protocol_msgs may differ. *)
let batch_equivalence_prop =
  QCheck.Test.make
    ~name:"batched transfers reach the per-page coherence state and traffic"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nodes = 2 + Sim.Prng.int (Sim.Prng.create seed) 2 in
      let build batch =
        let rng = Sim.Prng.create seed in
        ignore (Sim.Prng.int rng 2);
        let d =
          Dsm.Hdsm.create ~batch ~nodes
            ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
        in
        (* A few lazy ranges (some adjacent) plus stray single pages. *)
        Dsm.Hdsm.register_range d
          ~range:{ Memsys.Page.first = 0; count = 12 }
          ~owner:(Sim.Prng.int rng nodes);
        Dsm.Hdsm.register_range d
          ~range:{ Memsys.Page.first = 12; count = 8 }
          ~owner:(Sim.Prng.int rng nodes);
        Dsm.Hdsm.register_page d ~page:20 ~owner:(Sim.Prng.int rng nodes);
        Dsm.Hdsm.register_alias d ~page:21;
        for _ = 1 to 30 do
          let node = Sim.Prng.int rng nodes in
          let write = Sim.Prng.bool rng in
          let first = Sim.Prng.int rng 20 in
          let len = 1 + Sim.Prng.int rng (22 - first - 1) in
          ignore
            (Dsm.Hdsm.access_many d ~node
               ~pages:[ { Memsys.Page.first; count = len } ]
               ~write)
        done;
        d
      in
      let d_pp = build false and d_b = build true in
      let same_state =
        List.for_all
          (fun page ->
            Dsm.Hdsm.owner d_pp ~page = Dsm.Hdsm.owner d_b ~page
            && List.for_all
                 (fun node ->
                   Dsm.Hdsm.state_of d_pp ~page node
                   = Dsm.Hdsm.state_of d_b ~page node)
                 (List.init nodes Fun.id))
          (List.init 21 Fun.id)
      in
      let s_pp = Dsm.Hdsm.stats d_pp and s_b = Dsm.Hdsm.stats d_b in
      same_state
      && s_pp.Dsm.Hdsm.remote_fetches = s_b.Dsm.Hdsm.remote_fetches
      && s_pp.Dsm.Hdsm.bytes_transferred = s_b.Dsm.Hdsm.bytes_transferred
      && s_pp.Dsm.Hdsm.invalidations = s_b.Dsm.Hdsm.invalidations
      && s_pp.Dsm.Hdsm.local_hits = s_b.Dsm.Hdsm.local_hits)

(* --- ownership moves by range ------------------------------------------ *)

(* A page with its own entry inside a range counts through its entry
   only, whichever was registered first. *)
let residual_counts_each_page_once () =
  let range d =
    Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count = 10 }
      ~owner:0
  in
  let residual d home = Dsm.Hdsm.residual_pages d ~home in
  let agree msg d =
    List.iter
      (fun home ->
        checki msg
          (List.length (Dsm.Hdsm.pages_owned_by d home))
          (residual d home))
      [ 0; 1 ]
  in
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:5 ~owner:0;
  range d;
  checki "page then range: 10 pages at home" 10 (residual d 0);
  agree "page then range" d;
  let d = make_dsm () in
  range d;
  Dsm.Hdsm.register_page d ~page:5 ~owner:1;
  checki "range then page: the range registered it" 0 (Dsm.Hdsm.owner d ~page:5);
  checki "range then page: 10 pages at home" 10 (residual d 0);
  agree "range then page" d;
  let d = make_dsm () in
  Dsm.Hdsm.register_alias d ~page:5;
  range d;
  checki "alias then range: 9 data pages at home" 9 (residual d 0);
  agree "alias then range" d;
  let d = make_dsm () in
  Dsm.Hdsm.register_page d ~page:5 ~owner:1;
  range d;
  agree "foreign page then range" d;
  ignore (Dsm.Hdsm.drain d ~from_:0 ~to_:1);
  checki "drained: nothing left at home" 0 (residual d 0);
  checki "drained: all 10 pages at the new home" 10 (residual d 1);
  agree "after the drain" d

(* A drain in 256-page chunks moves one stretch at a time: each chunk
   joins the drained prefix, so the ranges never exceed one more than at
   the start, and a finished drain merges into one range, with its
   neighbour too when that already has the new owner. *)
let chunked_drain_leaves_one_range () =
  let drain to_ =
    let d =
      Dsm.Hdsm.create ~nodes:3 ~interconnect:Machine.Interconnect.dolphin_pxh810
        ()
    in
    Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count = 1000 }
      ~owner:0;
    Dsm.Hdsm.register_range d
      ~range:{ Memsys.Page.first = 1000; count = 500 }
      ~owner:1;
    let rec go i =
      if i < 1000 then begin
        ignore
          (Dsm.Hdsm.drain_seq d
             ~segments:[ { Memsys.Page.first = i; count = min 256 (1000 - i) } ]
             ~to_);
        checkb "at most one extra range" true
          (List.length (Dsm.Hdsm.ranges d) <= 3);
        go (i + 256)
      end
    in
    go 0;
    checki "every page moved" 1000 (Dsm.Hdsm.stats d).Dsm.Hdsm.remote_fetches;
    Dsm.Hdsm.ranges d
  in
  let r first count = { Memsys.Page.first; count } in
  checkb "one range per owner" true
    (drain 2 = [ (r 0 1000, 2); (r 1000 500, 1) ]);
  checkb "joined with the neighbour" true (drain 1 = [ (r 0 1500, 1) ])

type op =
  | Range of int * int * int  (** first, count, owner *)
  | Page of int * int  (** page, owner *)
  | Alias of int
  | Access of int * Memsys.Page.range list * bool  (** node, runs, write *)
  | Drain_seq of Memsys.Page.range list * int
  | Prefetch of Memsys.Page.range list * int
  | Drain of int * int  (** from, to *)

(* Pages [0, universe): the opening ranges cover [0, 40), later
   registrations may add the rest, and ops touching an unregistered page
   raise. *)
let universe = 48

(* The maximal ascending runs of a page list, in list order: a page
   joins the run before it when it is that run's next page. *)
let runs_of pages =
  List.fold_left
    (fun acc page ->
      match acc with
      | { Memsys.Page.first; count } :: rest when first + count = page ->
        { Memsys.Page.first; count = count + 1 } :: rest
      | _ -> { Memsys.Page.first = page; count = 1 } :: acc)
    [] pages
  |> List.rev

let random_ops rng ~nodes =
  let node () = Sim.Prng.int rng nodes in
  let run () =
    let first = Sim.Prng.int rng universe in
    (first, 1 + Sim.Prng.int rng (min 16 (universe - first)))
  in
  let pages () =
    List.concat
      (List.init
         (1 + Sim.Prng.int rng 3)
         (fun _ ->
           let first, count = run () in
           List.init count (fun i -> first + i)))
  in
  let opening =
    let rec go first acc =
      if first >= 40 then List.rev acc
      else
        let count = min (40 - first) (1 + Sim.Prng.int rng 16) in
        go (first + count) (Range (first, count, node ()) :: acc)
    in
    go 0 []
  in
  let op () =
    match Sim.Prng.int rng 12 with
    | 0 ->
      let first, count = run () in
      Range (first, min count 12, node ())
    | 1 -> Page (Sim.Prng.int rng universe, node ())
    | 2 -> Alias (Sim.Prng.int rng universe)
    | 3 | 4 -> Access (node (), runs_of (pages ()), Sim.Prng.bool rng)
    | 5 | 6 ->
      let segment () =
        let first, count = run () in
        { Memsys.Page.first; count }
      in
      Drain_seq
        (List.init (1 + Sim.Prng.int rng 3) (fun _ -> segment ()), node ())
    | 7 | 8 -> Prefetch (runs_of (pages ()), node ())
    | 9 -> Drain_seq (runs_of (pages ()), node ())
    | _ -> Drain (node (), node ())
  in
  opening @ List.init 30 (fun _ -> op ())

(* [Some v], or [None] when [f] raises. *)
let attempt f = try Some (f ()) with Invalid_argument _ -> None

(* The latency bits of [op], or [None] when it raised. [per_page] is
   what the op means without batching, spelled out one page at a time:
   it folds {!Dsm.Hdsm.access} over the pages of an access op's runs,
   and drains one single-page call at a time, adding each page's latency
   here, so a drained range's latency is checked against a literal
   one-addition-per-page sum. *)
let apply ?(per_page = false) d op =
  let each_page pages f =
    List.fold_left (fun acc page -> acc +. f page) 0.0 pages
  in
  attempt @@ fun () ->
  Int64.bits_of_float
    (match op with
    | Range (first, count, owner) ->
      Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first; count } ~owner;
      0.0
    | Page (page, owner) ->
      Dsm.Hdsm.register_page d ~page ~owner;
      0.0
    | Alias page ->
      Dsm.Hdsm.register_alias d ~page;
      0.0
    | Access (node, runs, write) when per_page ->
      List.fold_left
        (fun acc page -> acc +. Dsm.Hdsm.access d ~node ~page ~write)
        0.0 (Memsys.Page.ranges_pages runs)
    | Access (node, pages, write) -> Dsm.Hdsm.access_many d ~node ~pages ~write
    | Drain_seq (segments, to_) when per_page ->
      each_page (Memsys.Page.ranges_pages segments) (fun page ->
          Dsm.Hdsm.drain_seq d
            ~segments:[ { Memsys.Page.first = page; count = 1 } ]
            ~to_)
    | Drain_seq (segments, to_) -> Dsm.Hdsm.drain_seq d ~segments ~to_
    | Prefetch (pages, to_) -> Dsm.Hdsm.prefetch d ~pages ~to_
    | Drain (from_, to_) -> Dsm.Hdsm.drain d ~from_ ~to_)

(* The ranges are in page order and disjoint, and touching neighbours
   never share an owner. *)
let ranges_merged d =
  let open Memsys.Page in
  let rec ok = function
    | (a, oa) :: ((b, ob) :: _ as rest) ->
      a.count > 0
      && (a.first + a.count < b.first
         || (a.first + a.count = b.first && oa <> ob))
      && ok rest
    | [ (a, _) ] -> a.count > 0
    | [] -> true
  in
  ok (Dsm.Hdsm.ranges d)

let drain_equivalence_prop =
  QCheck.Test.make
    ~name:"range-based ownership moves match the per-page path bit for bit"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Prng.create seed in
      let nodes = 2 + Sim.Prng.int rng 3 in
      let ops = random_ops rng ~nodes in
      let all_nodes = List.init nodes Fun.id in
      let pages = List.init universe Fun.id in
      let check batch =
        let make () =
          let d =
            Dsm.Hdsm.create ~batch ~nodes
              ~interconnect:Machine.Interconnect.dolphin_pxh810 ()
          in
          let events = ref [] in
          Dsm.Hdsm.set_observer d (Some (fun o -> events := o :: !events));
          (d, events)
        in
        let lazy_, lazy_events = make () and twin, twin_events = make () in
        (* The twin gives every registered page its own entry at once,
           and without batching accesses it page by page. *)
        let materialize () =
          List.iter
            (fun page -> ignore (attempt (fun () -> Dsm.Hdsm.owner twin ~page)))
            pages
        in
        let fail i what =
          QCheck.Test.fail_reportf "batch=%b nodes=%d op %d: %s differs" batch
            nodes i what
        in
        List.iteri
          (fun i op ->
            let got = apply lazy_ op in
            let want = apply ~per_page:(not batch) twin op in
            materialize ();
            if got <> want then fail i "latency";
            if Dsm.Hdsm.stats lazy_ <> Dsm.Hdsm.stats twin then fail i "stats";
            if not (ranges_merged lazy_ && ranges_merged twin) then
              fail i "range invariant";
            List.iter
              (fun home ->
                if Dsm.Hdsm.residual_pages lazy_ ~home
                   <> Dsm.Hdsm.residual_pages twin ~home
                then fail i "residual_pages";
                if Dsm.Hdsm.pages_owned_by lazy_ home
                   <> Dsm.Hdsm.pages_owned_by twin home
                then fail i "pages_owned_by")
              all_nodes)
          ops;
        let n = List.length ops in
        List.iter
          (fun page ->
            let owner d = attempt (fun () -> Dsm.Hdsm.owner d ~page) in
            let states d =
              attempt (fun () ->
                  List.map (fun node -> Dsm.Hdsm.state_of d ~page node) all_nodes)
            in
            if owner lazy_ <> owner twin then fail n "owner";
            if states lazy_ <> states twin then fail n "state_of")
          pages;
        if !lazy_events <> !twin_events then fail n "observer events";
        true
      in
      check false && check true)

let suite =
  [
    ("fresh page exclusive at owner", `Quick, initial_exclusive);
    ("local hits are free", `Quick, local_hits_free);
    ("read miss fetches shared copy", `Quick, read_miss_fetches_shared);
    ("write invalidates other copies", `Quick, write_invalidates);
    ("write miss fetches and invalidates", `Quick, write_miss_fetch_and_invalidate);
    ("aliased text pages never move", `Quick, aliased_pages_never_move);
    ("unknown page rejected", `Quick, unknown_page_rejected);
    ("unknown node rejected", `Quick, unknown_node_rejected);
    ("residual tracking and drain", `Quick, residual_and_drain);
    ("partial drain", `Quick, drain_seq_partial);
    ("page migration localizes access", `Quick, page_migration_makes_access_local);
    ("traffic statistics", `Quick, stats_bytes_accounted);
    ("alias guard protects data pages", `Quick, alias_guard_rejects_data_pages);
    ("fetch_run coalesces a uniform run", `Quick, fetch_run_uniform_batches);
    ("fetch_run refuses non-uniform runs", `Quick, fetch_run_nonuniform_refuses);
    ("batching cheaper, same traffic", `Quick, batching_cheaper_than_per_page);
    ("prefetch moves and localizes", `Quick, prefetch_moves_and_localizes);
    ("adjacent ranges share a boundary page", `Quick,
     adjacent_ranges_share_boundary);
    ("residual pages count each page once", `Quick,
     residual_counts_each_page_once);
    ("a chunked drain leaves one range", `Quick,
     chunked_drain_leaves_one_range);
    QCheck_alcotest.to_alcotest coherence_random_props;
    QCheck_alcotest.to_alcotest batch_equivalence_prop;
    QCheck_alcotest.to_alcotest drain_equivalence_prop;
  ]
