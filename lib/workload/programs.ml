open Ir.Prog

(* --- small construction helpers -------------------------------------- *)

let v ?(init = Scalar) vname ty = { vname; ty; init }

let w ?(cat = Isa.Cost_model.Mixed) ?(mem = 4096) n =
  Work { instructions = max 1 (int_of_float n); category = cat; memory_touched = mem }

let call id callee args = Call { site_id = id; callee; args }
let loop trips body = Loop { trips; body }

let data name bytes =
  Memsys.Symbol.make ~name ~section:Memsys.Symbol.Data ~size:bytes ~alignment:8

let rodata name bytes =
  Memsys.Symbol.make ~name ~section:Memsys.Symbol.Rodata ~size:bytes
    ~alignment:8

let bss name bytes =
  Memsys.Symbol.make ~name ~section:Memsys.Symbol.Bss ~size:bytes ~alignment:8

let tdata name bytes =
  Memsys.Symbol.make ~name ~section:Memsys.Symbol.Tdata ~size:bytes
    ~alignment:8

(* --- interprocedural dynamic instruction count ------------------------ *)

let rec call_multiplicities body =
  (* callee -> times called during one execution of [body] *)
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Call c ->
        (c.callee, 1) :: acc
      | Loop l ->
        List.map (fun (f, n) -> (f, n * l.trips)) (call_multiplicities l.body)
        @ acc
      | Work _ | Def _ | Use _ | Mig_point _ -> acc)
    [] body

(* Memoized fold over the call graph: one invocation of a function
   costs [own] of it plus each callee's total times its call count,
   added in call order. [what] names the caller in the recursion
   error. *)
let call_graph_total ~what ~own (prog : t) =
  let graph = Ir.Callgraph.build prog in
  if Ir.Callgraph.is_recursive graph then
    invalid_arg (Printf.sprintf "Programs.%s: recursive program" what);
  let memo = Hashtbl.create 16 in
  let rec total fname =
    match Hashtbl.find_opt memo fname with
    | Some c -> c
    | None ->
      let func = find_func prog fname in
      let c =
        List.fold_left
          (fun acc (callee, n) -> acc +. (float_of_int n *. total callee))
          (own func)
          (call_multiplicities func.body)
      in
      Hashtbl.add memo fname c;
      c
  in
  total prog.entry

let total_dynamic prog =
  call_graph_total ~what:"total_dynamic"
    ~own:(fun func -> float_of_int (dynamic_instructions func))
    prog

let rec own_checks body =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Mig_point _ -> acc + 1
      | Loop l -> acc + (l.trips * own_checks l.body)
      | Work _ | Def _ | Use _ | Call _ -> acc)
    0 body

let total_checks prog =
  call_graph_total ~what:"total_checks"
    ~own:(fun func -> float_of_int (own_checks func.body))
    prog

let deepest_chain (prog : t) =
  let graph = Ir.Callgraph.build prog in
  match Ir.Callgraph.max_depth graph prog.entry with
  | Some d -> d
  | None -> invalid_arg "Programs.deepest_chain: recursive program"

(* --- NPB CG: conjugate gradient --------------------------------------- *)

let cg cls =
  let t = (Spec.spec Spec.CG cls).Spec.total_instructions in
  let niter = 15 and cgit = 25 in
  let per_it = t /. float_of_int (niter * cgit) in
  let cat = Isa.Cost_model.Memory in
  let dot =
    make_func ~name:"cg_dot" ~params:[ v "n" Ir.Ty.I64 ]
      ~body:
        [ Def (v "sum" Ir.Ty.F64); w ~cat (per_it *. 0.10); Use "sum"; Use "n" ]
  in
  let axpy =
    make_func ~name:"cg_axpy"
      ~params:[ v "n" Ir.Ty.I64; v "alpha" Ir.Ty.F64 ]
      ~body:[ w ~cat (per_it *. 0.10); Use "alpha"; Use "n" ]
  in
  let randlc =
    make_func ~name:"randlc" ~params:[ v "seed" Ir.Ty.F64 ]
      ~body:
        [ Def (v "r" Ir.Ty.F64);
          w ~cat:Isa.Cost_model.Compute (t *. 0.01 /. 1024.0);
          Use "r"; Use "seed" ]
  in
  let sprnvc =
    make_func ~name:"sprnvc" ~params:[ v "nz" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "idx" Ir.Ty.I64);
          Def (v "seed" Ir.Ty.F64);
          loop 32 [ w ~cat (t *. 0.01 /. (32.0 *. 32.0)); call 0 "randlc" [ "seed" ] ];
          Use "idx"; Use "nz";
        ]
  in
  let makea =
    (* The matrix-generation phase is one long call-free region — the
       paper's CG "Pre" histogram shows gaps well past the 50M quantum
       that the insertion pass must break up. *)
    make_func ~name:"makea" ~params:[]
      ~body:
        [
          Def (v "row" Ir.Ty.I64);
          Def (v "acc" Ir.Ty.F64);
          w ~cat (t *. 0.04) ~mem:(1 lsl 20);
          loop 32 [ call 0 "sprnvc" [ "row" ] ];
          Use "acc";
        ]
  in
  let conj_grad =
    make_func ~name:"conj_grad" ~params:[ v "n" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "rho" Ir.Ty.F64);
          Def (v "rbuf" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "rbuf") "rp" Ir.Ty.Ptr);
          Def (v ~init:(Ptr_to_global "cg_a") "ap" Ir.Ty.Ptr);
          Def (v ~init:(Ptr_to_heap 2048) "scratch" Ir.Ty.Ptr);
          loop cgit
            [
              w ~cat (per_it *. 0.75) ~mem:65536;
              call 0 "cg_dot" [ "n" ];
              call 1 "cg_axpy" [ "n"; "rho" ];
              Use "rp"; Use "rbuf"; Use "ap"; Use "scratch";
            ];
          Use "rho";
        ]
  in
  let verify =
    make_func ~name:"cg_verify" ~params:[]
      ~body:
        [ Def (v "zeta" Ir.Ty.F64); Def (v "vn" Ir.Ty.I64);
          call 0 "cg_dot" [ "vn" ]; Use "zeta" ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "n" Ir.Ty.I64);
          call 0 "makea" [];
          loop niter [ call 1 "conj_grad" [ "n" ]; w ~cat (t *. 0.001) ];
          call 2 "cg_verify" [];
        ]
  in
  make ~name:(Printf.sprintf "cg.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; makea; sprnvc; randlc; conj_grad; dot; axpy; verify ]
    ~globals:
      [ data "cg_a" (1 lsl 20); rodata "cg_colidx" (1 lsl 16);
        bss "cg_x" (1 lsl 16); tdata "cg_tls_iter" 8 ]
    ~entry:"main"

(* A miniature musl: library functions the benchmarks call. They carry
   real work but are never instrumented — threads cannot migrate during
   library execution (paper Section 5.4). *)

let libc_memcpy instrs =
  as_library
    (make_func ~name:"memcpy"
       ~params:[ v "dst" Ir.Ty.Ptr; v "src" Ir.Ty.Ptr ]
       ~body:
         [ w ~cat:Isa.Cost_model.Memory instrs ~mem:(1 lsl 16);
           Use "dst"; Use "src" ])

(* --- NPB IS: integer sort --------------------------------------------- *)

let is cls =
  let t = (Spec.spec Spec.IS cls).Spec.total_instructions in
  let iters = 10 in
  let cat = Isa.Cost_model.Memory in
  let create_seq =
    make_func ~name:"create_seq" ~params:[ v "seed" Ir.Ty.F64 ]
      ~body:[ Def (v "k" Ir.Ty.I64); w ~cat (t *. 0.10); Use "k"; Use "seed" ]
  in
  let rank =
    make_func ~name:"rank" ~params:[ v "iteration" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "key" Ir.Ty.I64);
          Def (v "kbuf" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "kbuf") "kp" Ir.Ty.Ptr);
          Def (v ~init:(Ptr_to_global "key_array") "ka" Ir.Ty.Ptr);
          w ~cat (t *. 0.73 /. float_of_int iters) ~mem:(1 lsl 20);
          call 0 "memcpy" [ "kp"; "ka" ];
          Use "kp"; Use "kbuf"; Use "ka"; Use "key"; Use "iteration";
        ]
  in
  let full_verify =
    make_func ~name:"full_verify" ~params:[]
      ~body:
        [
          Def (v "i" Ir.Ty.I64);
          Def (v "errors" Ir.Ty.I64);
          w ~cat (t *. 0.14) ~mem:(1 lsl 20);
          Use "errors"; Use "i";
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "seed" Ir.Ty.F64);
          call 0 "create_seq" [ "seed" ];
          Def (v "it" Ir.Ty.I64);
          loop iters [ call 1 "rank" [ "it" ]; w ~cat (t *. 0.001) ];
          call 2 "full_verify" [];
        ]
  in
  make ~name:(Printf.sprintf "is.%s" (Spec.cls_to_string cls))
    ~funcs:
      [ main; create_seq; rank; full_verify;
        libc_memcpy (t *. 0.02 /. float_of_int iters) ]
    ~globals:
      [ data "key_array" (1 lsl 20); bss "key_buff" (1 lsl 20);
        rodata "test_index_array" 4096; tdata "is_tls_rank" 8 ]
    ~entry:"main"

(* --- NPB FT: 3-D FFT --------------------------------------------------- *)

let ft cls =
  let t = (Spec.spec Spec.FT cls).Spec.total_instructions in
  let niter = 20 in
  let per_it = t /. float_of_int niter in
  let cat = Isa.Cost_model.Mixed in
  (* Call chain main -> evolve_step -> fft3d -> cffts1 -> fftz2 -> fftz ->
     cmul gives the 7-frame stacks the paper reports for fftz2. *)
  let cmul =
    make_func ~name:"cmul" ~params:[ v "x" Ir.Ty.F64; v "y" Ir.Ty.F64 ]
      ~body:
        [ Def (v "re" Ir.Ty.F64); w ~cat:Isa.Cost_model.Compute (per_it /. 1024.0);
          Use "re"; Use "x"; Use "y" ]
  in
  let fftz =
    make_func ~name:"fftz"
      ~params:[ v "l" Ir.Ty.I64; v "m" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "u1" Ir.Ty.F64);
          Def (v "u2" Ir.Ty.F64);
          (* The butterfly's complex operand pair lives in a SIMD register
             (NEON q / SSE xmm) across the cmul calls. *)
          Def (v "twiddle" Ir.Ty.V128);
          loop 4
            [ w ~cat (per_it *. 0.10 /. 32.0);
              call 0 "cmul" [ "u1"; "u2" ];
              Use "twiddle" ];
          Use "l"; Use "m";
        ]
  in
  let fftz2 =
    make_func ~name:"fftz2"
      ~params:[ v "is_dir" Ir.Ty.I64; v "n" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "span" Ir.Ty.I64);
          Def (v "blocks" Ir.Ty.I64);
          Def (v "scratch" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "scratch") "sp" Ir.Ty.Ptr);
          Def (v ~init:(Ptr_to_global "ft_u") "up" Ir.Ty.Ptr);
          loop 4
            [ w ~cat (per_it *. 0.25 /. 32.0) ~mem:(1 lsl 18);
              call 0 "fftz" [ "span"; "n" ];
              Use "sp"; Use "scratch"; Use "up"; Use "blocks" ];
          Use "is_dir";
        ]
  in
  let cffts1 =
    make_func ~name:"cffts1" ~params:[ v "dir" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "plane" Ir.Ty.I64);
          Def (v "logd" Ir.Ty.I64);
          loop 4
            [ w ~cat (per_it *. 0.15 /. 8.0) ~mem:(1 lsl 18);
              call 0 "fftz2" [ "dir"; "logd" ];
              Use "plane" ];
        ]
  in
  let fft3d =
    make_func ~name:"fft3d" ~params:[ v "dir" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "axis" Ir.Ty.I64);
          call 0 "cffts1" [ "dir" ];
          w ~cat (per_it *. 0.05);
          call 1 "cffts1" [ "axis" ];
        ]
  in
  let evolve_step =
    make_func ~name:"evolve_step" ~params:[ v "iter" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "kt" Ir.Ty.F64);
          w ~cat (per_it *. 0.15) ~mem:(1 lsl 20);
          call 0 "fft3d" [ "iter" ];
          Use "kt";
        ]
  in
  let checksum =
    make_func ~name:"ft_checksum" ~params:[]
      ~body:[ Def (v "chk" Ir.Ty.F64); w ~cat (per_it *. 0.02); Use "chk" ]
  in
  let main =
    (* Initial-condition generation (compute_initial_conditions) is a
       long call-free region in real FT. *)
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "it" Ir.Ty.I64);
          w ~cat (t *. 0.025) ~mem:(1 lsl 20);
          loop niter
            [ call 0 "evolve_step" [ "it" ]; call 1 "ft_checksum" [] ];
        ]
  in
  make ~name:(Printf.sprintf "ft.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; evolve_step; fft3d; cffts1; fftz2; fftz; cmul; checksum ]
    ~globals:
      [ data "ft_u" (1 lsl 20); bss "ft_xside" (1 lsl 20);
        rodata "ft_exp_table" (1 lsl 14); tdata "ft_tls_plane" 8 ]
    ~entry:"main"

(* --- NPB EP: embarrassingly parallel ----------------------------------- *)

let ep cls =
  let t = (Spec.spec Spec.EP cls).Spec.total_instructions in
  let blocks = 64 in
  let cat = Isa.Cost_model.Compute in
  let vranlc =
    make_func ~name:"vranlc" ~params:[ v "n" Ir.Ty.I64 ]
      ~body:
        [ Def (v "x" Ir.Ty.F64);
          w ~cat (t *. 0.40 /. float_of_int blocks); Use "x"; Use "n" ]
  in
  let gaussian =
    make_func ~name:"ep_gaussian" ~params:[ v "pairs" Ir.Ty.I64 ]
      ~body:
        [
          (* The (sx, sy) Gaussian-sum accumulators are kept as one packed
             vector, as a vectorizing compiler would. *)
          Def (v "sums" Ir.Ty.V128);
          Def (v "sy" Ir.Ty.F64);
          w ~cat (t *. 0.55 /. float_of_int blocks);
          Use "sums"; Use "sy"; Use "pairs";
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "blk" Ir.Ty.I64);
          loop blocks
            [ call 0 "vranlc" [ "blk" ]; call 1 "ep_gaussian" [ "blk" ] ];
          w ~cat (t *. 0.05);
        ]
  in
  make ~name:(Printf.sprintf "ep.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; vranlc; gaussian ]
    ~globals:[ bss "ep_q" 4096; tdata "ep_tls_seed" 8 ]
    ~entry:"main"

(* --- NPB BT / SP: block-tridiagonal & scalar-pentadiagonal solvers ----- *)

let adi_solver bench prefix cls =
  let t = (Spec.spec bench cls).Spec.total_instructions in
  let niter = 50 in
  let per_it = t /. float_of_int niter in
  let cat = Isa.Cost_model.Mixed in
  let f n = prefix ^ "_" ^ n in
  let solve axis =
    make_func ~name:(f (axis ^ "_solve")) ~params:[ v "cell" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "lhs" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "lhs") "lp" Ir.Ty.Ptr);
          w ~cat (per_it *. 0.25) ~mem:(1 lsl 18);
          Use "lp"; Use "lhs"; Use "cell";
        ]
  in
  let compute_rhs =
    make_func ~name:(f "compute_rhs") ~params:[]
      ~body:
        [ Def (v "rhs_norm" Ir.Ty.F64); w ~cat (per_it *. 0.20) ~mem:(1 lsl 18);
          Use "rhs_norm" ]
  in
  let add =
    make_func ~name:(f "add") ~params:[]
      ~body:[ w ~cat (per_it *. 0.05) ]
  in
  let step =
    make_func ~name:(f "adi") ~params:[ v "it" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "c" Ir.Ty.I64);
          call 0 (f "compute_rhs") [];
          call 1 (f "x_solve") [ "c" ];
          call 2 (f "y_solve") [ "c" ];
          call 3 (f "z_solve") [ "c" ];
          call 4 (f "add") [];
          Use "it";
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "it" Ir.Ty.I64);
          w ~cat (t *. 0.001) ~mem:(1 lsl 20);
          loop niter [ call 0 (f "adi") [ "it" ] ];
        ]
  in
  make ~name:(Printf.sprintf "%s.%s" prefix (Spec.cls_to_string cls))
    ~funcs:
      [ main; step; compute_rhs; solve "x"; solve "y"; solve "z"; add ]
    ~globals:
      [ data (f "u") (1 lsl 20); bss (f "rhs") (1 lsl 20);
        rodata (f "ce") 4096; tdata (f "tls_cell") 8 ]
    ~entry:"main"

(* --- NPB MG: multigrid -------------------------------------------------- *)

let mg cls =
  let t = (Spec.spec Spec.MG cls).Spec.total_instructions in
  let niter = 20 in
  let per_it = t /. float_of_int niter in
  let cat = Isa.Cost_model.Memory in
  let psinv =
    make_func ~name:"psinv" ~params:[ v "level" Ir.Ty.I64 ]
      ~body:
        [ Def (v "r1" Ir.Ty.F64); w ~cat (per_it *. 0.30 /. 4.0) ~mem:(1 lsl 19);
          Use "r1"; Use "level" ]
  in
  let resid =
    make_func ~name:"resid" ~params:[ v "level" Ir.Ty.I64 ]
      ~body:
        [ Def (v "norm" Ir.Ty.F64); w ~cat (per_it *. 0.30) ~mem:(1 lsl 19);
          Use "norm"; Use "level" ]
  in
  let interp_f =
    make_func ~name:"mg_interp" ~params:[ v "level" Ir.Ty.I64 ]
      ~body:[ w ~cat (per_it *. 0.15) ~mem:(1 lsl 19); Use "level" ]
  in
  let rprj3 =
    make_func ~name:"rprj3" ~params:[ v "level" Ir.Ty.I64 ]
      ~body:[ w ~cat (per_it *. 0.15 /. 4.0) ~mem:(1 lsl 19); Use "level" ]
  in
  let mg3p =
    make_func ~name:"mg3p" ~params:[ v "it" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "lvl" Ir.Ty.I64);
          Def (v "vbuf" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "vbuf") "vp" Ir.Ty.Ptr);
          loop 4
            [
              call 0 "rprj3" [ "lvl" ];
              call 1 "psinv" [ "lvl" ];
              Use "vp"; Use "vbuf";
            ];
          call 2 "mg_interp" [ "lvl" ];
          call 3 "resid" [ "it" ];
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "it" Ir.Ty.I64);
          w ~cat (t *. 0.001) ~mem:(1 lsl 20);
          loop niter [ call 0 "mg3p" [ "it" ] ];
        ]
  in
  make ~name:(Printf.sprintf "mg.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; mg3p; psinv; resid; interp_f; rprj3 ]
    ~globals:
      [ data "mg_u" (1 lsl 20); bss "mg_r" (1 lsl 20); rodata "mg_a" 256;
        tdata "mg_tls_level" 8 ]
    ~entry:"main"

(* --- NPB LU: SSOR solver ------------------------------------------------ *)

let lu cls =
  let t = (Spec.spec Spec.LU cls).Spec.total_instructions in
  let niter = 50 in
  let per_it = t /. float_of_int niter in
  let cat = Isa.Cost_model.Mixed in
  let sweep name' frac =
    make_func ~name:name' ~params:[ v "k" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "tmp" Ir.Ty.F64);
          Def (v "tv" Ir.Ty.V128);
          w ~cat (per_it *. frac) ~mem:(1 lsl 18);
          Use "tmp"; Use "tv"; Use "k";
        ]
  in
  let jacld = sweep "jacld" 0.22 in
  let blts = sweep "blts" 0.22 in
  let jacu = sweep "jacu" 0.22 in
  let buts = sweep "buts" 0.22 in
  let lu_rhs =
    make_func ~name:"lu_rhs" ~params:[]
      ~body:
        [
          Def (v "frct" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "frct") "fp" Ir.Ty.Ptr);
          w ~cat (per_it *. 0.11) ~mem:(1 lsl 19);
          Use "fp"; Use "frct";
        ]
  in
  let ssor =
    make_func ~name:"ssor" ~params:[ v "it" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "k" Ir.Ty.I64);
          call 0 "jacld" [ "k" ];
          call 1 "blts" [ "k" ];
          call 2 "jacu" [ "k" ];
          call 3 "buts" [ "k" ];
          call 4 "lu_rhs" [];
          Use "it";
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "it" Ir.Ty.I64);
          w ~cat (t *. 0.005) ~mem:(1 lsl 20);
          loop niter [ call 0 "ssor" [ "it" ] ];
        ]
  in
  make ~name:(Printf.sprintf "lu.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; ssor; jacld; blts; jacu; buts; lu_rhs ]
    ~globals:
      [ data "lu_u" (1 lsl 20); bss "lu_rsd" (1 lsl 20); rodata "lu_ce" 4096;
        tdata "lu_tls_k" 8 ]
    ~entry:"main"

(* --- bzip2smp: branch-heavy block compression --------------------------- *)

let bzip2 cls =
  let t = (Spec.spec Spec.Bzip2smp cls).Spec.total_instructions in
  let blocks = 40 in
  let per_block = t /. float_of_int blocks in
  let cat = Isa.Cost_model.Branch in
  let sort_block =
    make_func ~name:"bz_block_sort" ~params:[ v "blk" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "budget" Ir.Ty.I64);
          Def (v "work_buf" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "work_buf") "wp" Ir.Ty.Ptr);
          w ~cat (per_block *. 0.55) ~mem:(1 lsl 17);
          Use "wp"; Use "work_buf"; Use "budget"; Use "blk";
        ]
  in
  let mtf =
    make_func ~name:"bz_mtf_values" ~params:[ v "blk" Ir.Ty.I64 ]
      ~body:[ w ~cat (per_block *. 0.20) ~mem:(1 lsl 16); Use "blk" ]
  in
  let huffman =
    make_func ~name:"bz_send_codes" ~params:[ v "blk" Ir.Ty.I64 ]
      ~body:
        [ Def (v "cost" Ir.Ty.I64); w ~cat (per_block *. 0.23) ~mem:(1 lsl 15);
          Use "cost"; Use "blk" ]
  in
  let compress_block =
    make_func ~name:"bz_compress_block" ~params:[ v "blk" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "obuf" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "obuf") "op" Ir.Ty.Ptr);
          call 0 "bz_block_sort" [ "blk" ];
          call 1 "bz_mtf_values" [ "blk" ];
          call 2 "bz_send_codes" [ "blk" ];
          call 3 "memcpy" [ "op"; "op" ];
          Use "obuf";
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "blk" Ir.Ty.I64);
          loop blocks
            [ w ~cat (per_block *. 0.02); call 0 "bz_compress_block" [ "blk" ] ];
        ]
  in
  make ~name:(Printf.sprintf "bzip2smp.%s" (Spec.cls_to_string cls))
    ~funcs:
      [ main; compress_block; sort_block; mtf; huffman;
        libc_memcpy (per_block *. 0.01) ]
    ~globals:
      [ data "bz_crc_table" 1024; bss "bz_arr1" (1 lsl 18);
        bss "bz_arr2" (1 lsl 18); tdata "bz_tls_state" 16 ]
    ~entry:"main"

(* --- Verus: symbolic model checking ------------------------------------- *)

let verus cls =
  let t = (Spec.spec Spec.Verus cls).Spec.total_instructions in
  let iterations = 30 in
  let per_it = t /. float_of_int iterations in
  let cat = Isa.Cost_model.Branch in
  let bdd_apply =
    make_func ~name:"bdd_apply" ~params:[ v "op" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "cache_hits" Ir.Ty.I64);
          w ~cat (per_it *. 0.25) ~mem:(1 lsl 16);
          Use "cache_hits"; Use "op";
        ]
  in
  let reachable =
    make_func ~name:"verus_reachable" ~params:[ v "step" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "frontier" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "frontier") "fp" Ir.Ty.Ptr);
          w ~cat (per_it *. 0.3) ~mem:(1 lsl 16);
          call 0 "bdd_apply" [ "step" ];
          Use "fp"; Use "frontier";
        ]
  in
  let check =
    make_func ~name:"verus_check" ~params:[ v "spec_id" Ir.Ty.I64 ]
      ~body:[ w ~cat (per_it *. 0.2); call 0 "bdd_apply" [ "spec_id" ] ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "step" Ir.Ty.I64);
          loop iterations
            [ call 0 "verus_reachable" [ "step" ];
              call 1 "verus_check" [ "step" ] ];
        ]
  in
  make ~name:(Printf.sprintf "verus.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; reachable; check; bdd_apply ]
    ~globals:
      [ data "bdd_nodes" (1 lsl 18); bss "bdd_cache" (1 lsl 16);
        tdata "verus_tls_depth" 8 ]
    ~entry:"main"

(* --- Redis-like key-value store (used in the emulation study) ----------- *)

let redis cls =
  let t = (Spec.spec Spec.Redis cls).Spec.total_instructions in
  let batches = 100 in
  let per_batch = t /. float_of_int batches in
  let cat = Isa.Cost_model.Memory in
  let dict_find =
    make_func ~name:"dict_find" ~params:[ v "key_hash" Ir.Ty.I64 ]
      ~body:
        [ Def (v "bucket" Ir.Ty.I64); w ~cat (per_batch *. 0.45) ~mem:(1 lsl 16);
          Use "bucket"; Use "key_hash" ]
  in
  let dict_set =
    make_func ~name:"dict_set" ~params:[ v "key_hash" Ir.Ty.I64 ]
      ~body:[ w ~cat (per_batch *. 0.35) ~mem:(1 lsl 16); Use "key_hash" ]
  in
  let process_command =
    make_func ~name:"process_command" ~params:[ v "cmd" Ir.Ty.I64 ]
      ~body:
        [
          Def (v "reply" Ir.Ty.I64);
          Def (v ~init:(Ptr_to_local "reply") "rp" Ir.Ty.Ptr);
          Def (v ~init:(Ptr_to_heap 128) "entry" Ir.Ty.Ptr);
          call 0 "dict_find" [ "cmd" ];
          call 1 "dict_set" [ "cmd" ];
          w ~cat:Isa.Cost_model.Branch (per_batch *. 0.20);
          Use "rp"; Use "reply"; Use "entry";
        ]
  in
  let main =
    make_func ~name:"main" ~params:[]
      ~body:
        [
          Def (v "cmd" Ir.Ty.I64);
          loop batches [ call 0 "process_command" [ "cmd" ] ];
        ]
  in
  make ~name:(Printf.sprintf "redis.%s" (Spec.cls_to_string cls))
    ~funcs:[ main; process_command; dict_find; dict_set ]
    ~globals:
      [ data "redis_dict" (1 lsl 20); bss "redis_replies" (1 lsl 16);
        tdata "redis_tls_client" 8 ]
    ~entry:"main"

let program bench cls =
  match bench with
  | Spec.CG -> cg cls
  | Spec.IS -> is cls
  | Spec.FT -> ft cls
  | Spec.EP -> ep cls
  | Spec.BT -> adi_solver Spec.BT "bt" cls
  | Spec.SP -> adi_solver Spec.SP "sp" cls
  | Spec.MG -> mg cls
  | Spec.LU -> lu cls
  | Spec.Bzip2smp -> bzip2 cls
  | Spec.Verus -> verus cls
  | Spec.Redis -> redis cls
