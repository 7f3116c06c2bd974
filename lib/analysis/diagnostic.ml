type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  fn_name : string;
  protocol : string;
  text : string;
  field : string option;
  stmt_id : int option;
  sentence : string option;
}

let v ?field ?stmt_id ?sentence ~code ~severity ~fn_name ~protocol text =
  { code; severity; fn_name; protocol; text; field; stmt_id; sentence }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let catalog =
  [
    ("SA000", "the analyzer itself failed on this function (internal)");
    ("SA001", "header field not definitely assigned (field coverage)");
    ("SA002", "local variable read before any assignment");
    ("SA003", "assignment overwritten before any read (dead store)");
    ("SA004", "statement unreachable or ineffective after Discard/Send");
    ("SA005", "constant exceeds the field's bit width");
    ("SA006", "header field written after the checksum assignment");
    ("SA007", "packet access not provably in bounds for all packet lengths");
    ("SA008", "assigned value range exceeds the field's bit width");
    ("SA009", "branch condition statically decided (dead or redundant)");
    ("SA010", "checksum window does not cover every written header field");
    ("SA011", "FSM wedge state: no out-edge to a recovering state");
    ("SA012", "interp/compiled slot layout inconsistency");
  ]

let describe_code code = List.assoc_opt code catalog

(* (function, code, stmt id) leads so `analyze --format json` output is
   byte-identical however the diagnostics were produced (whatever
   --jobs, whatever check emitted first); severity/field/text break the
   remaining ties.  [None] statement ids (program-level findings like
   SA011/SA012, or checks that predate ids) order after located ones. *)
let compare_stmt_id a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> 1
  | Some _, None -> -1
  | Some a, Some b -> compare a b

let compare_diag a b =
  let c = compare a.fn_name b.fn_name in
  if c <> 0 then c
  else
    let c = compare a.code b.code in
    if c <> 0 then c
    else
      let c = compare_stmt_id a.stmt_id b.stmt_id in
      if c <> 0 then c
      else
        let c = compare (severity_rank a.severity) (severity_rank b.severity) in
        if c <> 0 then c
        else
          let c = compare a.field b.field in
          if c <> 0 then c else compare a.text b.text

let sort diags = List.stable_sort compare_diag diags

let count sev diags = List.length (List.filter (fun d -> d.severity = sev) diags)
let errors diags = count Error diags
let warnings diags = count Warning diags
let has_errors diags = List.exists (fun d -> d.severity = Error) diags

(* ---- text renderer ---- *)

let to_string d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%-7s %s %s: %s" (severity_name d.severity) d.code
       d.fn_name d.text);
  (match d.field with
   | Some f -> Buffer.add_string buf (Printf.sprintf " [field: %s]" f)
   | None -> ());
  (match d.stmt_id with
   | Some id -> Buffer.add_string buf (Printf.sprintf " [stmt %d]" id)
   | None -> ());
  (match d.sentence with
   | Some s -> Buffer.add_string buf (Printf.sprintf "\n        spec: %S" s)
   | None -> ());
  Buffer.contents buf

let render_text ?(protocol = "") diags =
  let diags = sort diags in
  let buf = Buffer.create 1024 in
  let label = if protocol = "" then "" else protocol ^ ": " in
  if diags = [] then
    Buffer.add_string buf
      (Printf.sprintf "%sstatic analysis: no findings\n" label)
  else begin
    List.iter
      (fun d ->
        Buffer.add_string buf (to_string d);
        Buffer.add_char buf '\n')
      diags;
    Buffer.add_string buf
      (Printf.sprintf "%sstatic analysis: %d error(s), %d warning(s), %d info\n"
         label (errors diags) (warnings diags) (count Info diags))
  end;
  Buffer.contents buf

(* ---- JSON renderer (stable field order) ---- *)

let json_str = Sage_json.Json.string

let to_json d =
  let fields =
    [
      ("code", json_str d.code);
      ("severity", json_str (severity_name d.severity));
      ("function", json_str d.fn_name);
      ("protocol", json_str d.protocol);
      ("message", json_str d.text);
    ]
    @ (match d.field with Some f -> [ ("field", json_str f) ] | None -> [])
    @ (match d.stmt_id with
       | Some id -> [ ("stmt", string_of_int id) ]
       | None -> [])
    @ (match d.sentence with
       | Some s -> [ ("sentence", json_str s) ]
       | None -> [])
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let render_json ?(protocol = "") diags =
  let diags = sort diags in
  let body =
    match diags with
    | [] -> "[]"
    | _ ->
      "[\n"
      ^ String.concat ",\n" (List.map (fun d -> "    " ^ to_json d) diags)
      ^ "\n  ]"
  in
  Printf.sprintf
    "{\n  \"protocol\": %s,\n  \"errors\": %d,\n  \"warnings\": %d,\n  \
     \"infos\": %d,\n  \"diagnostics\": %s\n}\n"
    (json_str protocol) (errors diags) (warnings diags) (count Info diags)
    body
