(* Tracing layer tests: tracer unit behaviour, fuzzed properties
   (balanced spans, monotone clocks, always-well-formed Chrome JSON),
   full-corpus end-to-end trace structure, the tracing-changes-nothing
   guarantee, and the sorted-output invariants that keep metric lines
   and golden snapshots stable (the promise documented on
   {!Sage_sched.Metrics.sorted_bindings}). *)

module Trace = Sage_trace.Trace
module P = Sage.Pipeline
module Report = Sage.Report
module Metrics = Sage_sched.Metrics
module Q = Qcheck_lite
module C = Corpus_runs
module Corpora = Sage.Corpora

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let contains = Astring_contains.contains

let check_valid_json label s =
  match Json_min.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" label e

(* ---- tracer unit behaviour ---- *)

let test_empty_tracer () =
  let t = Trace.create () in
  check Alcotest.int "no events" 0 (Trace.event_count t);
  check Alcotest.bool "empty list" true (Trace.events t = []);
  check_valid_json "empty buffer renders" (Trace.to_chrome_json t)

let test_none_is_noop () =
  (* every emitter accepts None and must do nothing at all *)
  let sp = Trace.span None "ghost" in
  Trace.close None sp;
  Trace.instant None "ghost";
  Trace.counter None "ghost" 1;
  check Alcotest.int "with_span still runs body" 7
    (Trace.with_span None "ghost" (fun () -> 7));
  (* closing the inert token against a live tracer is also a no-op *)
  let t = Trace.create () in
  Trace.close (Some t) Trace.null_span;
  check Alcotest.int "nothing recorded" 0 (Trace.event_count t)

let test_instant_shape () =
  let t = Trace.create () in
  Trace.instant ~cat:"sim" ~args:[ ("seq", Trace.Int 3) ] (Some t) "tx";
  match Trace.events t with
  | [ ev ] ->
    check Alcotest.string "name" "tx" ev.Trace.name;
    check Alcotest.string "cat" "sim" ev.Trace.cat;
    check Alcotest.bool "phase" true (ev.Trace.ph = Trace.Instant);
    check Alcotest.int "no span id" 0 ev.Trace.span_id;
    check Alcotest.bool "args" true (ev.Trace.args = [ ("seq", Trace.Int 3) ])
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_counter_shape () =
  let t = Trace.create () in
  Trace.counter ~cat:"pipeline" (Some t) "sentences" 42;
  match Trace.events t with
  | [ ev ] ->
    check Alcotest.bool "phase" true (ev.Trace.ph = Trace.Counter);
    check Alcotest.bool "value arg" true
      (ev.Trace.args = [ ("value", Trace.Int 42) ])
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_pairing () =
  let t = Trace.create () in
  let sp = Trace.span ~cat:"pipeline" (Some t) "phase:prepass" in
  Trace.close ~args:[ ("n", Trace.Int 1) ] (Some t) sp;
  match Trace.events t with
  | [ b; e ] ->
    check Alcotest.bool "begin" true (b.Trace.ph = Trace.Begin);
    check Alcotest.bool "end" true (e.Trace.ph = Trace.End);
    check Alcotest.string "same name" b.Trace.name e.Trace.name;
    check Alcotest.string "same cat" b.Trace.cat e.Trace.cat;
    check Alcotest.int "same span id" b.Trace.span_id e.Trace.span_id;
    check Alcotest.bool "span id positive" true (b.Trace.span_id > 0);
    check Alcotest.bool "close args on End" true
      (e.Trace.args = [ ("n", Trace.Int 1) ])
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_ids_unique () =
  let t = Trace.create () in
  let s1 = Trace.span (Some t) "a" in
  let s2 = Trace.span (Some t) "b" in
  let s3 = Trace.span (Some t) "c" in
  Trace.close (Some t) s3;
  Trace.close (Some t) s2;
  Trace.close (Some t) s1;
  let begin_ids =
    List.filter_map
      (fun ev -> if ev.Trace.ph = Trace.Begin then Some ev.Trace.span_id else None)
      (Trace.events t)
  in
  check Alcotest.(list int) "fresh increasing ids" [ 1; 2; 3 ] begin_ids

let test_with_span_value_and_exception () =
  let t = Trace.create () in
  check Alcotest.int "returns body value" 5
    (Trace.with_span (Some t) "ok" (fun () -> 5));
  (try
     Trace.with_span (Some t) "boom" (fun () -> failwith "expected") |> ignore;
     Alcotest.fail "exception swallowed"
   with Failure m -> check Alcotest.string "propagated" "expected" m);
  (* both spans, including the raising one, must be closed *)
  let begins, ends =
    List.partition (fun ev -> ev.Trace.ph = Trace.Begin) (Trace.events t)
  in
  check Alcotest.int "begins" 2 (List.length begins);
  check Alcotest.int "ends" 2 (List.length ends)

let test_logical_clock_sequence () =
  let t = Trace.create ~clock:Trace.Logical () in
  check Alcotest.bool "clock accessor" true (Trace.clock t = Trace.Logical);
  Trace.instant (Some t) "a";
  Trace.instant (Some t) "b";
  Trace.with_span (Some t) "c" (fun () -> Trace.instant (Some t) "d");
  let stamps = List.map (fun ev -> Int64.to_int ev.Trace.ts) (Trace.events t) in
  check Alcotest.(list int) "ticks 1..n" [ 1; 2; 3; 4; 5 ] stamps

let test_wall_clock_monotone () =
  let t = Trace.create () in
  check Alcotest.bool "default clock" true (Trace.clock t = Trace.Wall);
  for i = 1 to 10 do
    Trace.instant ~args:[ ("i", Trace.Int i) ] (Some t) "tick"
  done;
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      Int64.compare a.Trace.ts b.Trace.ts <= 0 && monotone rest
    | _ -> true
  in
  let evs = Trace.events t in
  check Alcotest.bool "non-negative" true
    (List.for_all (fun ev -> Int64.compare ev.Trace.ts 0L >= 0) evs);
  check Alcotest.bool "non-decreasing" true (monotone evs)

let test_format_of_string () =
  check Alcotest.bool "json" true (Trace.format_of_string "json" = Some Trace.Json);
  check Alcotest.bool "text" true (Trace.format_of_string "text" = Some Trace.Text);
  check Alcotest.bool "unknown" true (Trace.format_of_string "yaml" = None)

let test_render_dispatch () =
  let t = Trace.create ~clock:Trace.Logical () in
  Trace.instant (Some t) "x";
  check Alcotest.string "json branch" (Trace.to_chrome_json t)
    (Trace.render Trace.Json t);
  check Alcotest.string "text branch" (Trace.to_text t)
    (Trace.render Trace.Text t)

let test_summary () =
  let t = Trace.create () in
  Trace.with_span (Some t) "s" (fun () -> Trace.instant (Some t) "i");
  let s = Trace.summary t in
  check Alcotest.bool "mentions event count" true (contains s "3 events");
  check Alcotest.bool "mentions span count" true (contains s "1 span")

let test_chrome_json_structure () =
  let t = Trace.create ~clock:Trace.Logical () in
  Trace.with_span ~cat:"pipeline" (Some t) "document" (fun () ->
      Trace.instant (Some t) "mark";
      Trace.counter ~cat:"pipeline" (Some t) "sentences" 9);
  let js = Trace.to_chrome_json t in
  check_valid_json "structure" js;
  List.iter
    (fun needle ->
      check Alcotest.bool needle true (contains js needle))
    [
      "\"traceEvents\":[";
      "\"displayTimeUnit\":\"ms\"";
      "\"ph\":\"B\"";
      "\"ph\":\"E\"";
      "\"ph\":\"i\"";
      "\"ph\":\"C\"";
      (* instants carry a thread scope, required by the Chrome viewer *)
      "\"s\":\"t\"";
      (* the empty category renders as the catch-all "sage" *)
      "\"cat\":\"sage\"";
      "\"args\":{\"value\":9}";
      "\"pid\":1";
    ]

let test_chrome_json_escaping () =
  let t = Trace.create ~clock:Trace.Logical () in
  Trace.instant
    ~args:[ ("msg", Trace.Str "a \"quoted\" \\ back\nslash \x01 ctl") ]
    (Some t)
    "nasty \"name\"\twith\ttabs";
  let js = Trace.to_chrome_json t in
  check_valid_json "escaped" js;
  check Alcotest.bool "quote escaped" true (contains js "nasty \\\"name\\\"");
  check Alcotest.bool "backslash escaped" true (contains js "\\\\ back");
  check Alcotest.bool "newline escaped" true (contains js "back\\nslash");
  check Alcotest.bool "control escaped" true (contains js "\\u0001")

let test_text_rendering () =
  let t = Trace.create ~clock:Trace.Logical () in
  Trace.with_span ~cat:"sim" ~args:[ ("seq", Trace.Int 1) ] (Some t) "probe"
    (fun () -> Trace.instant (Some t) "rx");
  let txt = Trace.to_text t in
  let lines = String.split_on_char '\n' (String.trim txt) in
  check Alcotest.int "one line per event" (Trace.event_count t)
    (List.length lines);
  check Alcotest.bool "category prefix" true (contains txt "sim:probe");
  check Alcotest.bool "args rendered" true (contains txt "seq=1");
  check Alcotest.bool "worker id" true (contains txt "tid=")

(* ---- the JSON checker itself (everything downstream trusts it) ---- *)

let test_json_min_accepts () =
  List.iter
    (fun s ->
      match Json_min.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rejected %S: %s" s e)
    [
      "{}"; "[]"; "null"; "true"; "0"; "-1.5e3"; "\"\"";
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\n\\u0041\"}";
      "  [ 1 , 2.0 , -3e-2 ]  ";
      "{\"traceEvents\":[{\"name\":\"x\",\"ts\":12.345}]}";
    ]

let test_json_min_rejects () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "rejects %S" s) false
        (Json_min.is_valid s))
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "[1] trailing"; "01";
      "1."; "\"unterminated"; "\"bad \\x escape\""; "{'a':1}"; "nul";
      "\"raw \x01 control\"";
    ]

(* ---- fuzzed properties ---- *)

type op =
  | Inst of string * int
  | Count of string * int
  | Span of string * op list

let rec apply tr = function
  | Inst (name, v) ->
    Trace.instant ~cat:"fuzz"
      ~args:[ ("s", Trace.Str name); ("n", Trace.Int v) ]
      (Some tr) name
  | Count (name, v) -> Trace.counter (Some tr) name v
  | Span (name, children) ->
    Trace.with_span ~args:[ ("s", Trace.Str name) ] (Some tr) name (fun () ->
        List.iter (apply tr) children)

(* names draw from the full byte range below 128, including quotes,
   backslashes and raw control characters, to stress the JSON escaper *)
let gen_name r =
  String.init (Q.gen_range r 0 10) (fun _ -> Char.chr (Q.gen_range r 0 127))

let rec gen_op depth r =
  match Q.int_below r (if depth = 0 then 2 else 4) with
  | 0 -> Inst (gen_name r, Q.int_below r 1000)
  | 1 -> Count (gen_name r, Q.int_below r 1000 - 500)
  | _ ->
    Span
      (gen_name r,
       List.init (Q.int_below r 4) (fun _ -> gen_op (depth - 1) r))

let rec print_op = function
  | Inst (n, v) -> Printf.sprintf "Inst(%S,%d)" n v
  | Count (n, v) -> Printf.sprintf "Count(%S,%d)" n v
  | Span (n, ops) ->
    Printf.sprintf "Span(%S,[%s])" n (String.concat ";" (List.map print_op ops))

let ops_arb =
  Q.make
    ~print:(fun ops -> "[" ^ String.concat "; " (List.map print_op ops) ^ "]")
    (fun r -> List.init (Q.int_below r 6) (fun _ -> gen_op 3 r))

let run_ops ?clock ops =
  let t = Trace.create ?clock () in
  List.iter (apply t) ops;
  t

let prop_chrome_json_always_parses ops =
  Json_min.is_valid (Trace.to_chrome_json (run_ops ops))

(* Begin/End events must follow stack discipline per worker: every End
   matches the most recent unclosed Begin, and nothing stays open. *)
let prop_spans_balanced ops =
  let t = run_ops ops in
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let ok = ref true in
  List.iter
    (fun ev ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks ev.Trace.tid) in
      match ev.Trace.ph with
      | Trace.Begin -> Hashtbl.replace stacks ev.Trace.tid (ev.Trace.span_id :: stack)
      | Trace.End -> (
        match stack with
        | top :: rest when top = ev.Trace.span_id ->
          Hashtbl.replace stacks ev.Trace.tid rest
        | _ -> ok := false)
      | Trace.Instant | Trace.Counter -> ())
    (Trace.events t);
  Hashtbl.iter (fun _ stack -> if stack <> [] then ok := false) stacks;
  !ok

let prop_logical_strictly_increasing ops =
  let t = run_ops ~clock:Trace.Logical ops in
  let rec strict = function
    | a :: (b :: _ as rest) ->
      Int64.compare a.Trace.ts b.Trace.ts < 0 && strict rest
    | _ -> true
  in
  strict (Trace.events t)

let prop_wall_monotone_per_worker ops =
  let t = run_ops ops in
  let last : (int, int64) Hashtbl.t = Hashtbl.create 4 in
  List.for_all
    (fun ev ->
      let prev = Option.value ~default:Int64.min_int (Hashtbl.find_opt last ev.Trace.tid) in
      Hashtbl.replace last ev.Trace.tid ev.Trace.ts;
      Int64.compare prev ev.Trace.ts <= 0)
    (Trace.events t)

let prop_logical_render_deterministic ops =
  let a = run_ops ~clock:Trace.Logical ops in
  let b = run_ops ~clock:Trace.Logical ops in
  String.equal (Trace.to_chrome_json a) (Trace.to_chrome_json b)
  && String.equal (Trace.to_text a) (Trace.to_text b)

(* ---- end-to-end: the full corpus set under a tracer ---- *)

let required_span_names = [ "document"; "phase:prepass"; "phase:analysis";
                            "phase:codegen"; "phase:render";
                            "phase:static-analysis"; "sentence" ]

let test_corpus_trace_structure (c : Corpora.t) () =
  let _run, trace = C.traced_run_of c in
  let js = Trace.to_chrome_json trace in
  check_valid_json c.name js;
  let evs = Trace.events trace in
  check Alcotest.bool "events recorded" true (evs <> []);
  List.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "%s has %s span" c.name name) true
        (List.exists
           (fun ev -> ev.Trace.ph = Trace.Begin && ev.Trace.name = name)
           evs))
    required_span_names;
  (* every Begin has its End: the pipeline never leaks a span *)
  let count ph = List.length (List.filter (fun ev -> ev.Trace.ph = ph) evs) in
  check Alcotest.int "balanced spans" (count Trace.Begin) (count Trace.End)

let test_corpus_output_unaffected c () =
  let plain = C.run_of c in
  let traced, _ = C.traced_run_of c in
  check Alcotest.string "markdown byte-identical" (Report.markdown plain)
    (Report.markdown traced);
  check Alcotest.string "generated C byte-identical"
    plain.P.codegen.P.c_code traced.P.codegen.P.c_code

let test_trace_deterministic_jobs1 () =
  let c = List.hd Corpora.all in
  let _, first = C.traced_run_of c in
  let second = Trace.create ~clock:Trace.Logical () in
  let (_ : P.run) =
    Corpora.run ~jobs:1 ~trace:second c
  in
  check Alcotest.string "same trace bytes across runs"
    (Trace.to_chrome_json first) (Trace.to_chrome_json second)

let test_trace_counters_present () =
  let _, trace = C.traced_run_of (List.hd Corpora.all) in
  let counters =
    List.filter_map
      (fun ev -> if ev.Trace.ph = Trace.Counter then Some ev.Trace.name else None)
      (Trace.events trace)
  in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " counter") true (List.mem name counters))
    [ "sentences"; "functions"; "diagnostics" ]

let test_trace_worker_spans () =
  let c = List.hd Corpora.all in
  let trace = Trace.create () in
  let (_ : P.run) =
    Corpora.run ~jobs:2 ~trace c
  in
  let evs = Trace.events trace in
  check Alcotest.bool "worker-0 span" true
    (List.exists (fun ev -> ev.Trace.name = "worker-0") evs);
  let count ph = List.length (List.filter (fun ev -> ev.Trace.ph = ph) evs) in
  check Alcotest.int "balanced under workers" (count Trace.Begin) (count Trace.End)

let test_trace_cache_events () =
  let c = List.hd Corpora.all in
  let spec = c.Corpora.spec () in
  let cache = Sage.Chart_cache.create () in
  let trace = Trace.create ~clock:Trace.Logical () in
  let sentence = "The checksum is zero." in
  let (_ : P.sentence_report) =
    P.analyze_sentence spec ~cache ~trace sentence
  in
  let (_ : P.sentence_report) =
    P.analyze_sentence spec ~cache ~trace sentence
  in
  let names = List.map (fun ev -> ev.Trace.name) (Trace.events trace) in
  check Alcotest.bool "first parse misses" true (List.mem "cache-miss" names);
  check Alcotest.bool "second parse hits" true (List.mem "cache-hit" names)

(* ---- sorted-output invariants (metrics feed snapshots and bench) ---- *)

let is_sorted keys = List.sort compare keys = keys

let test_metrics_bindings_sorted () =
  let m = Metrics.create () in
  (* insert deliberately out of order: hashtable iteration order must
     never leak into the readers *)
  List.iter
    (fun s -> Metrics.add_ns m s 10L)
    [ "winnow"; "chunk"; "parse"; "render"; "codegen" ];
  List.iter (fun c -> Metrics.incr m c) [ "zeta"; "alpha"; "cache-hit" ];
  check Alcotest.bool "stage_ns sorted" true
    (is_sorted (List.map fst (Metrics.stage_ns m)));
  check Alcotest.bool "stage_calls sorted" true
    (is_sorted (List.map fst (Metrics.stage_calls m)));
  check Alcotest.bool "counters sorted" true
    (is_sorted (List.map fst (Metrics.counters m)))

let test_report_stats_sorted () =
  let run = C.run_of (List.hd Corpora.all) in
  let stats = Report.stats run in
  (* the stage table lines (between the "stage total calls ..." header
     and the next blank line) must be alphabetically sorted by name *)
  let lines = String.split_on_char '\n' stats in
  let rec after_header = function
    | [] -> []
    | l :: tl when String.length l >= 6 && String.sub l 0 6 = "stage " -> tl
    | _ :: tl -> after_header tl
  in
  let rec take acc = function
    | [] -> List.rev acc
    | "" :: _ -> List.rev acc
    | l :: tl -> take (l :: acc) tl
  in
  let stage_lines = take [] (after_header lines) in
  let first_word l =
    match String.split_on_char ' ' (String.trim l) with
    | w :: _ -> w
    | [] -> ""
  in
  let stages = List.map first_word stage_lines in
  check Alcotest.bool "has stage lines" true (stages <> []);
  check Alcotest.bool "stage lines sorted" true (is_sorted stages)

(* ---- suite ---- *)

let corpus_tests =
  List.concat_map
    (fun (c : Corpora.t) ->
      [
        tc (c.name ^ " trace valid + structured") (test_corpus_trace_structure c);
        tc (c.name ^ " output unaffected by tracing")
          (test_corpus_output_unaffected c);
      ])
    Corpora.all

let suite =
  [
    tc "empty tracer" test_empty_tracer;
    tc "None tracer is a no-op" test_none_is_noop;
    tc "instant event shape" test_instant_shape;
    tc "counter event shape" test_counter_shape;
    tc "span Begin/End pairing" test_span_pairing;
    tc "span ids fresh and increasing" test_span_ids_unique;
    tc "with_span value and exception safety" test_with_span_value_and_exception;
    tc "logical clock counts 1..n" test_logical_clock_sequence;
    tc "wall clock monotone" test_wall_clock_monotone;
    tc "format_of_string" test_format_of_string;
    tc "render dispatches on format" test_render_dispatch;
    tc "summary counts" test_summary;
    tc "chrome json structure" test_chrome_json_structure;
    tc "chrome json escaping" test_chrome_json_escaping;
    tc "text rendering" test_text_rendering;
    tc "json checker accepts valid documents" test_json_min_accepts;
    tc "json checker rejects malformed documents" test_json_min_rejects;
    Q.test ~count:120 "fuzzed trace renders valid chrome json" ops_arb
      prop_chrome_json_always_parses;
    Q.test ~count:120 "fuzzed spans balanced per worker" ops_arb
      prop_spans_balanced;
    Q.test ~count:120 "logical clock strictly increasing" ops_arb
      prop_logical_strictly_increasing;
    Q.test ~count:120 "wall clock monotone per worker" ops_arb
      prop_wall_monotone_per_worker;
    Q.test ~count:80 "logical rendering deterministic" ops_arb
      prop_logical_render_deterministic;
  ]
  @ corpus_tests
  @ [
      tc "trace bytes deterministic at jobs 1" test_trace_deterministic_jobs1;
      tc "pipeline counters present" test_trace_counters_present;
      tc "worker spans under jobs 2" test_trace_worker_spans;
      tc "chart-cache hit/miss instants" test_trace_cache_events;
      tc "metrics bindings sorted" test_metrics_bindings_sorted;
      tc "report stats stage lines sorted" test_report_stats_sorted;
    ]
