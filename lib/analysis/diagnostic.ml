type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type location = { prog : string; func : string option; site : string option }

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
}

let make ~rule ~severity ~prog ?func ?site message =
  { rule; severity; loc = { prog; func; site }; message }

let compare_opt a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> String.compare x y

let compare a b =
  let c = String.compare a.loc.prog b.loc.prog in
  if c <> 0 then c
  else
    let c = compare_opt a.loc.func b.loc.func in
    if c <> 0 then c
    else
      let c = compare_opt a.loc.site b.loc.site in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c
        else
          let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
          if c <> 0 then c else String.compare a.message b.message

(* --- rule selection ----------------------------------------------------- *)

let is_rule registry id = List.exists (fun (r, _, _) -> r = id) registry

let validate_rules registry ~who = function
  | None -> ()
  | Some ids ->
      List.iter
        (fun id ->
          if not (is_rule registry id) then
            invalid_arg (Printf.sprintf "%s: unknown rule %s" who id))
        ids

let selected ids d =
  match ids with None -> true | Some ids -> List.mem d.rule ids

let wants_prefix ids prefix =
  match ids with
  | None -> true
  | Some ids -> List.exists (fun id -> String.starts_with ~prefix id) ids

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let errors ds = count Error ds
let warnings ds = count Warning ds

let pp ppf d =
  Format.fprintf ppf "%s %s %s" (severity_to_string d.severity) d.rule
    d.loc.prog;
  (match d.loc.func with
  | Some f -> Format.fprintf ppf "/%s" f
  | None -> ());
  (match d.loc.site with
  | Some s -> Format.fprintf ppf "@@%s" s
  | None -> ());
  Format.fprintf ppf ": %s" d.message

let pp_report ppf ds =
  let ds = List.sort compare ds in
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds;
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@." (errors ds)
    (warnings ds) (count Info ds)

let json_opt = function
  | None -> "null"
  | Some s -> Printf.sprintf "\"%s\"" (Obs.json_escape s)

let to_json d =
  Printf.sprintf
    "{\"rule\":\"%s\",\"severity\":\"%s\",\"prog\":\"%s\",\"func\":%s,\"site\":%s,\"message\":\"%s\"}"
    (Obs.json_escape d.rule)
    (severity_to_string d.severity)
    (Obs.json_escape d.loc.prog) (json_opt d.loc.func) (json_opt d.loc.site)
    (Obs.json_escape d.message)

let report_to_json ds =
  let ds = List.sort compare ds in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"diagnostics\":["
       (errors ds) (warnings ds) (count Info ds));
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  ";
      Buffer.add_string buf (to_json d))
    ds;
  if ds <> [] then Buffer.add_char buf '\n';
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
