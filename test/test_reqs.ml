(* The requirement-mining subsystem (lib/reqs): RFC 2119 sentence
   detection, per-corpus mining counts, guard evaluation and every
   obligation's check semantics against synthetic outcomes, violation
   ordering, the seeded-violation tamper fixture, and the text/JSON
   renderers (including CLI-level byte-determinism across --jobs). *)

module Req = Sage_reqs.Req
module Extract = Sage_reqs.Extract
module Render = Sage_reqs.Render
module Seeded_violation = Sage_reqs.Seeded_violation
module Backend = Sage_backend.Backend
module Ir = Sage_codegen.Ir
module Rt = Sage_interp.Runtime
module Addr = Sage_net.Addr
module P = Sage.Pipeline
module C = Corpus_runs

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let contains = Astring_contains.contains

let run_of name = C.run_of (C.corpus name)

(* ---- RFC 2119 keyword detection ---- *)

let level = Alcotest.testable (Fmt.of_to_string Req.level_name) ( = )

let test_requirement_level () =
  let detect = Extract.requirement_level in
  check (Alcotest.option level) "MUST" (Some Req.Must)
    (detect "The packet MUST be discarded.");
  check (Alcotest.option level) "case-insensitive" (Some Req.Must)
    (detect "the checksum must be zero");
  check (Alcotest.option level) "SHALL maps to MUST" (Some Req.Must)
    (detect "The version SHALL be 1.");
  check (Alcotest.option level) "MUST NOT" (Some Req.Must_not)
    (detect "It MUST NOT transmit the packet.");
  check (Alcotest.option level) "SHALL NOT" (Some Req.Must_not)
    (detect "The receiver shall not reply.");
  check (Alcotest.option level) "SHOULD" (Some Req.Should)
    (detect "The sender SHOULD retransmit.");
  check (Alcotest.option level) "word boundary" None
    (detect "Add a mustard sample to the mix.");
  check (Alcotest.option level) "no keyword" None
    (detect "The checksum is the 16-bit one's complement sum.")

(* ---- mining counts per corpus ---- *)

(* The validated (mined, compiled, checkable) counts for every shipped
   corpus; the ISSUE's acceptance floor is >= 1 mined everywhere.
   These pin the extraction + compilation behaviour — a lexicon or
   codegen change that alters them must update this table (and
   EXPERIMENTS.md) deliberately. *)
let expected_counts =
  [
    ("icmp", (13, 9, 9));
    ("icmp-rw", (9, 9, 9));
    ("igmp", (1, 1, 1));
    ("ntp", (1, 1, 1));
    ("bfd", (15, 13, 12));
    ("bfd-rw", (15, 14, 12));
    ("tcp", (4, 2, 2));
    ("bgp", (2, 2, 0));
  ]

let test_mining_counts () =
  List.iter
    (fun (name, expected) ->
      let reqs = (run_of name).P.requirements in
      let mined, _, _ = Render.summary_counts reqs in
      checkb (name ^ ": mines at least one requirement") true (mined >= 1);
      check
        Alcotest.(triple int int int)
        (name ^ ": mined/compiled/checkable")
        expected
        (Render.summary_counts reqs))
    expected_counts

let test_ids_document_order () =
  let reqs = (run_of "bfd").P.requirements in
  List.iteri
    (fun i r ->
      check Alcotest.string "sequential ids"
        (Printf.sprintf "RQ%03d" (i + 1))
        r.Req.id)
    reqs

let test_checkable_definition () =
  List.iter
    (fun r ->
      checkb (r.Req.id ^ ": checkable iff rule and anchor") true
        (Req.checkable r = (r.Req.rule <> None && r.Req.fns <> [])))
    (run_of "bfd").P.requirements

(* the BGP open sender assigns version=4 before its own version!=4
   check: its requirements must be excluded from checking as unsound
   anchors, not silently checked against mutated state *)
let test_bgp_unsound_anchor_excluded () =
  let reqs = (run_of "bgp").P.requirements in
  checkb "bgp mines requirements" true (reqs <> []);
  List.iter
    (fun r ->
      checkb (r.Req.id ^ ": not checkable") false (Req.checkable r);
      if r.Req.rule <> None then
        checkb (r.Req.id ^ ": exclusion explained") true
          (contains r.Req.note "assigns guard input"))
    reqs

(* ---- guard evaluation and obligation checks (synthetic outcomes) ---- *)

let ip_spec =
  {
    Backend.src = Addr.of_octets 192 168 2 10;
    dst = Addr.of_octets 192 168 2 20;
    ttl = 64;
    tos = 0;
  }

let env ?(params = []) ?(state = []) () =
  { Backend.params; state; ip = ip_spec; request_ip = None }

let outcome ?(discarded = false) ?error ?(sent = []) ?(called = [])
    ?(output = Bytes.empty) ?(assigns_checksum = false) ?(final_state = [])
    ?(read_field = fun f -> Error ("no field " ^ f)) () =
  {
    Backend.backend = Backend.Interp;
    discarded;
    error;
    output;
    reserialized = output;
    sent;
    called;
    ip = Backend.ip_info_of_spec ip_spec;
    read_field;
    final_state = lazy final_state;
    assigns_checksum;
  }

let req ?(id = "RQ001") ?(protocol = "BFD") ?guard ~obligation () =
  {
    Req.id;
    protocol;
    sentence = "The packet MUST be discarded.";
    message = None;
    field = None;
    level = Req.Must;
    fns = [ "f" ];
    rule = Some { Req.guard; obligation };
    note = "";
  }

let version_is_zero =
  Ir.Cmp ("eq", Ir.Field (Ir.Proto, "version"), Ir.Int 0)

let fields vals f =
  match List.assoc_opt f vals with
  | Some v -> Ok v
  | None -> Error ("no field " ^ f)

let test_eval_expr () =
  let o = outcome ~read_field:(fields [ ("version", 3L) ]) () in
  let e = env ~params:[ ("n", Rt.VInt 7L) ] ~state:[ ("S", 2L) ] () in
  let eval x = Req.eval_expr ~env:e ~o x in
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "field read" (Ok 3L)
    (eval (Ir.Field (Ir.Proto, "version")));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "cmp ne" (Ok 1L)
    (eval (Ir.Cmp ("ne", Ir.Field (Ir.Proto, "version"), Ir.Int 1)));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "param" (Ok 7L) (eval (Ir.Param "n"));
  checkb "unbound param errors" true
    (Result.is_error (eval (Ir.Param "missing")));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "state" (Ok 2L)
    (eval (Ir.Field (Ir.State, "S")));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "absent state defaults to 0" (Ok 0L)
    (eval (Ir.Field (Ir.State, "T")));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "ip ttl" (Ok 64L) (eval (Ir.Field (Ir.Ip, "ttl")));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "not" (Ok 1L)
    (eval (Ir.Not (Ir.Int 0)));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "and short-circuits" (Ok 0L)
    (eval (Ir.And (Ir.Int 0, Ir.Param "missing")));
  check
    (Alcotest.result Alcotest.int64 Alcotest.string)
    "or short-circuits" (Ok 1L)
    (eval (Ir.Or (Ir.Int 1, Ir.Param "missing")))

let test_check_must_discard () =
  let r = req ~guard:version_is_zero ~obligation:Req.Must_discard () in
  let zero = fields [ ("version", 0L) ] in
  let one = fields [ ("version", 1L) ] in
  (* guard holds, function completed: violation *)
  (match Req.check ~env:(env ()) ~o:(outcome ~read_field:zero ()) r with
   | Some detail ->
     checkb "detail carries id" true (contains detail "RQ001");
     checkb "detail carries sentence" true
       (contains detail "MUST be discarded")
   | None -> Alcotest.fail "expected a must-discard violation");
  (* guard holds, function discarded: satisfied *)
  checkb "discard satisfies" true
    (Req.check ~env:(env ())
       ~o:(outcome ~discarded:true ~read_field:zero ())
       r
     = None);
  (* guard false: vacuous *)
  checkb "guard false is vacuous" true
    (Req.check ~env:(env ()) ~o:(outcome ~read_field:one ()) r = None);
  (* guard unevaluable: skipped, never a false positive *)
  checkb "unevaluable guard skips" true
    (Req.check ~env:(env ()) ~o:(outcome ()) r = None);
  (* runtime error: the never-raise oracle's finding, not ours *)
  checkb "runtime error skips" true
    (Req.check ~env:(env ())
       ~o:(outcome ~error:"boom" ~read_field:zero ())
       r
     = None)

let test_check_send_obligations () =
  let e = env () in
  let must_not_send = req ~obligation:Req.Must_not_send () in
  checkb "sent under must-not-send violates" true
    (Req.check ~env:e ~o:(outcome ~sent:[ "reply" ] ()) must_not_send
     <> None);
  checkb "silence under must-not-send satisfies" true
    (Req.check ~env:e ~o:(outcome ()) must_not_send = None);
  checkb "discard under must-not-send satisfies" true
    (Req.check ~env:e
       ~o:(outcome ~discarded:true ~sent:[ "reply" ] ())
       must_not_send
     = None);
  let must_send = req ~obligation:Req.Must_send () in
  checkb "silence under must-send violates" true
    (Req.check ~env:e ~o:(outcome ()) must_send <> None);
  checkb "transmission under must-send satisfies" true
    (Req.check ~env:e ~o:(outcome ~sent:[ "reply" ] ()) must_send = None)

let test_check_call_and_state () =
  let e = env () in
  let must_call = req ~obligation:(Req.Must_call "select_session") () in
  checkb "missing call violates" true
    (Req.check ~env:e ~o:(outcome ()) must_call <> None);
  checkb "recorded call satisfies" true
    (Req.check ~env:e
       ~o:(outcome ~called:[ "select_session" ] ())
       must_call
     = None);
  let must_clear = req ~obligation:(Req.Must_clear_state "PollBit") () in
  (match
     Req.check ~env:e ~o:(outcome ~final_state:[ ("PollBit", 5L) ] ())
       must_clear
   with
   | Some detail -> checkb "final value shown" true (contains detail "5")
   | None -> Alcotest.fail "expected a must-clear violation");
  checkb "cleared state satisfies" true
    (Req.check ~env:e ~o:(outcome ~final_state:[ ("PollBit", 0L) ] ())
       must_clear
     = None)

let test_check_checksum_valid () =
  let e = env () in
  let r = req ~protocol:"ICMP" ~obligation:Req.Checksum_valid () in
  (* ones'-complement sum of ff ff is 0xffff: verifies *)
  let good = Bytes.of_string "\xff\xff" in
  let bad = Bytes.of_string "\x00\x01" in
  checkb "valid output satisfies" true
    (Req.check ~env:e
       ~o:(outcome ~assigns_checksum:true ~output:good ())
       r
     = None);
  checkb "invalid output violates" true
    (Req.check ~env:e
       ~o:(outcome ~assigns_checksum:true ~output:bad ())
       r
     <> None);
  checkb "no checksum assignment is vacuous" true
    (Req.check ~env:e ~o:(outcome ~output:bad ()) r = None);
  (* BFD's checksum-free layout: whole-message verification does not
     apply, whatever the outcome looks like *)
  let bfd = req ~protocol:"BFD" ~obligation:Req.Checksum_valid () in
  checkb "non-whole-message protocol skips" true
    (Req.check ~env:e
       ~o:(outcome ~assigns_checksum:true ~output:bad ())
       bfd
     = None)

let test_first_violation_order () =
  let r1 = req ~id:"RQ001" ~obligation:Req.Must_discard () in
  let r2 = req ~id:"RQ002" ~obligation:Req.Must_discard () in
  let o = outcome () in
  (match Req.first_violation ~env:(env ()) ~o [ r1; r2 ] with
   | Some (r, _) -> check Alcotest.string "lowest id wins" "RQ001" r.Req.id
   | None -> Alcotest.fail "expected a violation");
  checkb "empty list is silent" true
    (Req.first_violation ~env:(env ()) ~o [] = None)

(* ---- the seeded-violation fixture ---- *)

let test_tamper_targeted () =
  let run = run_of "bfd" in
  let funcs = run.P.codegen.P.functions in
  let target = Seeded_violation.default_target in
  let tampered = Seeded_violation.tamper_discards ~fn:target funcs in
  checki "same function count" (List.length funcs) (List.length tampered);
  List.iter2
    (fun (a : Ir.func) (b : Ir.func) ->
      check Alcotest.string "order preserved" a.Ir.fn_name b.Ir.fn_name;
      if a.Ir.fn_name = target then
        checkb "target lost statements" true
          (Ir.fold_stmts (fun n _ -> n + 1) 0 b.Ir.body
           < Ir.fold_stmts (fun n _ -> n + 1) 0 a.Ir.body)
      else checkb "others untouched" true (a = b))
    funcs tampered

let test_tampered_run_violates () =
  let run = run_of "bfd" in
  let reqs = List.filter Req.checkable run.P.requirements in
  let target = Seeded_violation.default_target in
  let funcs =
    Seeded_violation.tamper_discards ~fn:target run.P.codegen.P.functions
  in
  let targets =
    List.filter_map
      (fun (f : Ir.func) ->
        Option.map
          (fun sd -> (f, sd))
          (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
      funcs
  in
  let result =
    Sage_fuzz.Engine.run ~reqs ~seed:42 ~iters:300
      ~protocol:run.P.spec.P.protocol targets
  in
  checki "twelve requirements enforced" 12
    result.Sage_fuzz.Engine.reqs_checked;
  match result.Sage_fuzz.Engine.findings with
  | [ f ] ->
    checkb "requirement oracle fired" true
      (match f.Sage_fuzz.Engine.kind with
       | Sage_fuzz.Oracle.Requirement id -> id = "RQ001"
       | _ -> false);
    check Alcotest.string "finding names the target" target
      f.Sage_fuzz.Engine.fn;
    checkb "detail quotes the sentence" true
      (contains f.Sage_fuzz.Engine.detail "MUST be discarded")
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ---- renderers ---- *)

let test_render_text () =
  let reqs = (run_of "bfd").P.requirements in
  let text = Render.text ~protocol:"BFD" reqs in
  checkb "header present" true (contains text "BFD: 15 requirement");
  checkb "first id present" true (contains text "RQ001");
  checkb "sentence indented" true
    (contains text "    If the version number is not 1")

let test_render_json_shape () =
  let reqs = (run_of "bfd").P.requirements in
  let json = Render.json ~protocol:"BFD" reqs in
  checkb "protocol field" true (contains json "\"protocol\": \"BFD\"");
  checkb "counts present" true (contains json "\"mined\": 15");
  checkb "ids present" true (contains json "\"id\": \"RQ001\"");
  checkb "checkable flags" true (contains json "\"checkable\": true");
  checkb "reqs json parses" true (Json_min.is_valid json)

let test_render_json_escaping () =
  let r =
    {
      (req ~obligation:Req.Must_discard ()) with
      Req.sentence = "quote \" backslash \\ newline \n tab \t done";
    }
  in
  let json = Render.json ~protocol:"BFD" [ r ] in
  checkb "quote escaped" true (contains json "quote \\\"");
  checkb "backslash escaped" true (contains json "backslash \\\\");
  checkb "newline escaped" true (contains json "newline \\n");
  checkb "escaped json parses" true (Json_min.is_valid json)

(* `sage reqs --format json` must be byte-identical whatever --jobs or
   cache state produced the run (the ISSUE's determinism criterion) *)
let test_reqs_cli_deterministic () =
  let c1, out1, _ = Cli_harness.run_cli "reqs -p bfd --format json" in
  let c2, out2, _ = Cli_harness.run_cli "reqs -p bfd --format json --jobs 4" in
  checki "exit 0 (a)" 0 c1;
  checki "exit 0 (b)" 0 c2;
  checkb "json output" true (contains out1 "\"requirements\"");
  check Alcotest.string "byte-identical across --jobs" out1 out2

let test_reqs_cli_corpus_table () =
  let code, out, _ = Cli_harness.run_cli "reqs --corpus" in
  checki "exit 0" 0 code;
  List.iter
    (fun (name, _) ->
      checkb (name ^ " row present") true (contains out name))
    expected_counts

let suite =
  [
    Alcotest.test_case "requirement_level detection" `Quick
      test_requirement_level;
    Alcotest.test_case "per-corpus mining counts" `Slow test_mining_counts;
    Alcotest.test_case "ids follow document order" `Quick
      test_ids_document_order;
    Alcotest.test_case "checkable = rule + anchor" `Quick
      test_checkable_definition;
    Alcotest.test_case "bgp unsound anchors excluded" `Quick
      test_bgp_unsound_anchor_excluded;
    Alcotest.test_case "guard expression evaluation" `Quick test_eval_expr;
    Alcotest.test_case "must-discard semantics" `Quick test_check_must_discard;
    Alcotest.test_case "send obligations" `Quick test_check_send_obligations;
    Alcotest.test_case "call and state obligations" `Quick
      test_check_call_and_state;
    Alcotest.test_case "checksum-valid obligation" `Quick
      test_check_checksum_valid;
    Alcotest.test_case "first violation in id order" `Quick
      test_first_violation_order;
    Alcotest.test_case "tamper fixture is targeted" `Quick
      test_tamper_targeted;
    Alcotest.test_case "tampered run yields RQ001" `Quick
      test_tampered_run_violates;
    Alcotest.test_case "text renderer" `Quick test_render_text;
    Alcotest.test_case "json renderer shape" `Quick test_render_json_shape;
    Alcotest.test_case "json escaping" `Quick test_render_json_escaping;
    Alcotest.test_case "reqs cli: identical across --jobs" `Slow
      test_reqs_cli_deterministic;
    Alcotest.test_case "reqs cli: --corpus table" `Slow
      test_reqs_cli_corpus_table;
  ]
