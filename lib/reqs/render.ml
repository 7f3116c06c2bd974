(* Text and JSON renderers for mined requirements.  Both are
   deterministic functions of the requirement list alone (ids are
   assigned in document order by [Extract.mine]), so the output is
   byte-identical across --jobs values and cache states. *)

let summary_counts reqs =
  let compiled = List.filter (fun r -> r.Req.rule <> None) reqs in
  let checkable = List.filter Req.checkable reqs in
  (List.length reqs, List.length compiled, List.length checkable)

let text ~protocol reqs =
  let buf = Buffer.create 1024 in
  let mined, compiled, checkable = summary_counts reqs in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d requirement(s) mined, %d compiled, %d checkable\n"
       protocol mined compiled checkable);
  List.iter
    (fun (r : Req.t) ->
      Buffer.add_string buf (Fmt.str "%a\n" Req.pp r);
      Buffer.add_string buf (Printf.sprintf "    %s\n" r.Req.sentence))
    reqs;
  Buffer.contents buf

(* ---- JSON (stable field order) ---- *)

let json_str = Sage_json.Json.string

let req_to_json (r : Req.t) =
  let fields =
    [
      ("id", json_str r.Req.id);
      ("level", json_str (Req.level_name r.Req.level));
      ("protocol", json_str r.Req.protocol);
      ( "obligation",
        match r.Req.rule with
        | Some { Req.obligation; _ } ->
          json_str (Req.obligation_name obligation)
        | None -> "null" );
      ("checkable", if Req.checkable r then "true" else "false");
      ( "functions",
        "["
        ^ String.concat ", " (List.map json_str r.Req.fns)
        ^ "]" );
      ("sentence", json_str r.Req.sentence);
    ]
    @ (match r.Req.message with
       | Some m -> [ ("message", json_str m) ]
       | None -> [])
    @ (match r.Req.field with
       | Some f -> [ ("field", json_str f) ]
       | None -> [])
    @ if r.Req.note = "" then [] else [ ("note", json_str r.Req.note) ]
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let json ~protocol reqs =
  let mined, compiled, checkable = summary_counts reqs in
  let body =
    match reqs with
    | [] -> "[]"
    | _ ->
      "[\n"
      ^ String.concat ",\n" (List.map (fun r -> "    " ^ req_to_json r) reqs)
      ^ "\n  ]"
  in
  Printf.sprintf
    "{\n  \"protocol\": %s,\n  \"mined\": %d,\n  \"compiled\": %d,\n  \
     \"checkable\": %d,\n  \"requirements\": %s\n}\n"
    (json_str protocol) mined compiled checkable body
