module D = Diagnostic

type target = { bench : Workload.Spec.bench; cls : Workload.Spec.cls }

let all_targets =
  List.concat_map
    (fun bench ->
      List.map (fun cls -> { bench; cls }) Workload.Spec.classes)
    Workload.Spec.all_benches

let target_name t = (Workload.Spec.spec t.bench t.cls).Workload.Spec.name

let target_of_name name =
  match String.split_on_char '.' name with
  | [ b; c ] ->
      let bench =
        List.find_opt
          (fun bench ->
            String.lowercase_ascii (Workload.Spec.bench_to_string bench)
            = String.lowercase_ascii b)
          Workload.Spec.all_benches
      in
      let cls =
        List.find_opt
          (fun cls ->
            String.lowercase_ascii (Workload.Spec.cls_to_string cls)
            = String.lowercase_ascii c)
          Workload.Spec.classes
      in
      (match (bench, cls) with
      | Some bench, Some cls -> Some { bench; cls }
      | _ -> None)
  | _ -> None

let driver_rules =
  [
    ( "toolchain-reject",
      D.Error,
      "the toolchain refused to compile the program" );
  ]

let rules =
  Ir_check.rules @ driver_rules @ Stackmap_check.rules @ Unwind_check.rules
  @ Layout_check.rules @ Dsm_check.rules

let is_rule id = List.exists (fun (r, _, _) -> r = id) rules

let static_checks ~label prog =
  let ir = Ir_check.check ~label prog in
  (* Structurally broken programs cannot be compiled; report what the IR
     pass found and stop. *)
  if List.exists (fun (d : D.t) -> d.D.severity = D.Error) ir then (ir, None)
  else
    match Compiler.Toolchain.compile prog with
    | binary ->
        ( ir
          @ Stackmap_check.check ~label binary
          @ Unwind_check.check ~label binary
          @ Layout_check.check ~label binary,
          Some binary )
    | exception Invalid_argument msg ->
        ( ir
          @ [
              D.make ~rule:"toolchain-reject" ~severity:D.Error ~prog:label msg;
            ],
          None )

let validate_rules = function
  | None -> ()
  | Some ids ->
      List.iter
        (fun id ->
          if not (is_rule id) then
            invalid_arg (Printf.sprintf "Lint: unknown rule %s" id))
        ids

let selected rules (d : D.t) =
  match rules with None -> true | Some ids -> List.mem d.D.rule ids

let wants_prefix rules prefix =
  match rules with
  | None -> true
  | Some ids -> List.exists (fun id -> String.starts_with ~prefix id) ids

let lint_target ?rules:ids target =
  validate_rules ids;
  let label = target_name target in
  let prog = Workload.Programs.program target.bench target.cls in
  let static, binary = static_checks ~label prog in
  let race =
    (* The capture run costs a full two-node simulation; skip it when the
       selection cannot surface its diagnostics, or when the program is
       already too broken to compile. *)
    match binary with
    | Some binary when wants_prefix ids "dsm-" ->
        let spec = Workload.Spec.spec target.bench target.cls in
        Dsm_check.check ~label ~binary ~spec
    | _ -> []
  in
  List.filter (selected ids) (static @ race)

let run ?rules:ids ?(targets = all_targets) ?jobs () =
  validate_rules ids;
  List.concat
    (Parallel.Pool.map_list ?jobs (fun t -> lint_target ?rules:ids t) targets)
