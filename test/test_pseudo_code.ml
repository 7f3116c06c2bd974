(* Tests for the pseudo-code parser (paper §3, Table 1 "Pseudo Code") and
   its integration with the pipeline and interpreter. *)

module Pc = Sage_rfc.Pseudo_code
module Lf = Sage_logic.Lf
module P = Sage.Pipeline
module Gs = Sage_sim.Generated_stack

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse s = Result.get_ok (Pc.parse s)

let test_parse_assignment () =
  let p = parse "begin proc\n  peer.timer := peer.hostpoll;\nend" in
  check Alcotest.string "name" "proc" p.Pc.proc_name;
  check
    Alcotest.(list string)
    "body"
    [ "@Set('peer.timer', 'peer.hostpoll')" ]
    (List.map Lf.to_string p.Pc.body)

let test_parse_call () =
  let p = parse "begin x\n  call transmit-procedure;\nend" in
  check
    Alcotest.(list string)
    "call"
    [ "@Call('transmit procedure')" ]
    (List.map Lf.to_string p.Pc.body)

let test_parse_conditional () =
  let p = parse "begin x\n  if (peer.reach = 0) then peer.hostpoll := 6;\nend" in
  check
    Alcotest.(list string)
    "if"
    [ "@If(@Cmp('eq', 'peer.reach', 0), @Set('peer.hostpoll', 6))" ]
    (List.map Lf.to_string p.Pc.body)

let test_parse_boolean_condition () =
  let p =
    parse "begin x\n  if (peer.mode = 1 or peer.mode = 3) then call t;\nend"
  in
  match p.Pc.body with
  | [ Lf.Pred (pif, [ Lf.Pred (por, _); _ ]) ] ->
    check Alcotest.string "if" Lf.p_if pif;
    check Alcotest.string "or" Lf.p_or por
  | other ->
    Alcotest.failf "unexpected %s"
      (String.concat ";" (List.map Lf.to_string other))

let test_parse_comparison_ops () =
  List.iter
    (fun (op, cmp) ->
      let p = parse (Printf.sprintf "begin x\n  if (a %s 3) then b := 1;\nend" op) in
      match p.Pc.body with
      | [ Lf.Pred (_, [ Lf.Pred (_, [ Lf.Term c; _; _ ]); _ ]) ] ->
        check Alcotest.string op cmp c
      | _ -> Alcotest.failf "op %s" op)
    [ ("=", "eq"); ("<>", "ne"); ("<", "lt"); (">", "gt"); ("<=", "le");
      (">=", "ge") ]

let test_parse_bare_condition () =
  (* a bare identifier condition reads as "<> 0" *)
  let p = parse "begin x\n  if (peer.reach) then b := 1;\nend" in
  match p.Pc.body with
  | [ Lf.Pred (_, [ Lf.Pred (_, [ Lf.Term "ne"; _; Lf.Num 0 ]); _ ]) ] -> ()
  | _ -> Alcotest.fail "expected ne-0 condition"

let test_parse_nested_block () =
  let p =
    parse
      "begin x\n  if (a = 1) then begin\n    b := 2;\n    c := 3;\n  end\nend"
  in
  match p.Pc.body with
  | [ Lf.Pred (_, [ _; Lf.Pred (seq, [ _; _ ]) ]) ] ->
    check Alcotest.string "nested seq" Lf.p_seq seq
  | other ->
    Alcotest.failf "unexpected %s"
      (String.concat ";" (List.map Lf.to_string other))

let test_parse_statement_order () =
  let p = parse "begin x\n  a := 1;\n  b := 2;\n  c := 3;\nend" in
  check Alcotest.int "three statements in order" 3 (List.length p.Pc.body);
  match p.Pc.body with
  | [ Lf.Pred (_, [ Lf.Term "a"; _ ]); Lf.Pred (_, [ Lf.Term "b"; _ ]);
      Lf.Pred (_, [ Lf.Term "c"; _ ]) ] -> ()
  | _ -> Alcotest.fail "order lost"

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Pc.parse bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [
      "";
      "x := 1;";
      "begin p\n  x := 1;";
      "begin p\n  if peer.mode = 1 then call t;\nend" (* missing parens *);
      "begin p\n  x := ;\nend";
      "begin p\n  x := 1;\nend\ntrailing";
    ]

let test_is_pseudo_code () =
  check Alcotest.bool "begin block" true
    (Pc.is_pseudo_code [ ""; "begin timeout-procedure"; "x := 1;" ]);
  check Alcotest.bool "prose" false
    (Pc.is_pseudo_code [ "The checksum is zero." ])

(* ---- pipeline integration ---- *)

let ntp_run = lazy (Corpus_runs.run_of (Corpus_runs.corpus "ntp"))

let test_pipeline_generates_procedure () =
  let run = Lazy.force ntp_run in
  match P.find_function run "ntp_timeout_procedure" with
  | Some f ->
    check Alcotest.int "three statements" 3 (List.length f.Sage_codegen.Ir.body)
  | None -> Alcotest.fail "ntp_timeout_procedure not generated"

let test_generated_procedure_executes () =
  let run = Lazy.force ntp_run in
  let st = Gs.of_run run in
  (* client mode (3), timer expired, reach 0: both conditionals fire *)
  let packet = Bytes.make 48 '\000' in
  match
    Gs.run_state_update
      ~state:[ ("peer.mode", 3L); ("peer.timer", 0L); ("peer.hostpoll", 10L);
               ("peer.reach", 0L) ]
      st ~fn:"ntp_timeout_procedure" ~packet
  with
  | Ok (bindings, _) ->
    check Alcotest.int64 "timer reloaded from hostpoll" 10L
      (Option.value ~default:0L (List.assoc_opt "peer.timer" bindings));
    check Alcotest.int64 "hostpoll reset to 6" 6L
      (Option.value ~default:0L (List.assoc_opt "peer.hostpoll" bindings))
  | Error e -> Alcotest.fail e

let test_generated_procedure_mode_guard () =
  let run = Lazy.force ntp_run in
  let st = Gs.of_run run in
  let packet = Bytes.make 48 '\000' in
  (* server mode (4): the transmit guard must not fire; timer still reloads *)
  match
    Gs.run_state_update
      ~state:[ ("peer.mode", 4L); ("peer.hostpoll", 9L); ("peer.reach", 1L) ]
      st ~fn:"ntp_timeout_procedure" ~packet
  with
  | Ok (bindings, _) ->
    check Alcotest.int64 "timer reloaded" 9L
      (Option.value ~default:0L (List.assoc_opt "peer.timer" bindings));
    check Alcotest.int64 "hostpoll untouched" 9L
      (Option.value ~default:0L (List.assoc_opt "peer.hostpoll" bindings))
  | Error e -> Alcotest.fail e

let test_document_extracts_pseudo () =
  let doc = Sage_rfc.Document.parse ~title:"ntp" Sage_corpus.Ntp_rfc.text in
  let has_pseudo =
    List.exists
      (fun (s : Sage_rfc.Document.section) ->
        List.exists
          (fun fd ->
            List.exists
              (function Sage_rfc.Document.Pseudo _ -> true | _ -> false)
              fd.Sage_rfc.Document.content)
          s.Sage_rfc.Document.fields)
      doc.Sage_rfc.Document.sections
  in
  check Alcotest.bool "pseudo block extracted" true has_pseudo

let prop_pseudo_parser_total =
  QCheck.Test.make ~name:"Pseudo_code.parse never raises" ~count:300
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s ->
      match Pc.parse s with
      | _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let suite =
  [
    tc "assignment" test_parse_assignment;
    tc "call" test_parse_call;
    tc "conditional" test_parse_conditional;
    tc "boolean condition" test_parse_boolean_condition;
    tc "comparison operators" test_parse_comparison_ops;
    tc "bare condition reads as ne-0" test_parse_bare_condition;
    tc "nested block" test_parse_nested_block;
    tc "statement order" test_parse_statement_order;
    tc "parse errors" test_parse_errors;
    tc "is_pseudo_code" test_is_pseudo_code;
    tc "pipeline generates the procedure" test_pipeline_generates_procedure;
    tc "generated procedure executes" test_generated_procedure_executes;
    tc "generated procedure mode guard" test_generated_procedure_mode_guard;
    tc "document extracts pseudo blocks" test_document_extracts_pseudo;
    QCheck_alcotest.to_alcotest prop_pseudo_parser_total;
  ]
