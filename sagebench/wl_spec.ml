(* spec-compile: the spec author's loop.  Each op compiles one whole
   corpus document with [Pipeline.run_document] at its defaults (one
   job, no chart cache — a one-shot `sage run`) and renders the report
   and static-analysis JSON.  Cycles pass over all eight corpora in a
   seeded order; each output must equal its golden snapshot. *)

module P = Sage.Pipeline
module Metrics = Sage_sched.Metrics

type doc = {
  corpus : Corpora.t;
  spec : P.spec;
  report : string;
  analysis : string;
}

type st = {
  seed : int;
  docs : doc array;
  counts : Replay.counts;
  stages : Metrics.t;  (* stage table summed over traced ops *)
  mutable traced_docs : int;
  mutable ir_stmts : int;
  mutable c_bytes : int;
  mutable diagnostics : int;
  mutable reqs_mined : int;
  mutable reqs_checkable : int;
  mutable diag_mismatches : int;
}

let rec stmt_count stmts =
  List.fold_left
    (fun acc s ->
      acc + 1
      + match s with
        | Sage_codegen.Ir.If (_, a, b) -> stmt_count a + stmt_count b
        | _ -> 0)
    0 stmts

(* One op: the document run plus its two rendered artifacts. *)
let compile ?metrics ?trace rec_ d =
  let run =
    Spans.span rec_ "core.run_document" (fun () ->
        Corpora.run ?metrics ?trace d.spec d.corpus)
  in
  let md, json =
    Spans.span rec_ "core.report" (fun () ->
        (Sage.Report.markdown run, Sage.Report.analysis_json run))
  in
  (run, md, json)

let check m d (run, md, json) =
  let name = d.corpus.Corpora.name in
  if md <> d.report then Meter.fail m "%s: report differs from golden" name
  else if json <> d.analysis then Meter.fail m "%s: analysis JSON differs from golden" name
  else if P.crashed_sentences run <> [] then Meter.fail m "%s: a sentence crashed" name

let order ~seed ~cycle n =
  let a = Array.init n Fun.id in
  Stats.shuffle (Random.State.make [| seed; cycle |]) a;
  a

let setup ~seed =
  let docs =
    Array.of_list
      (List.map
         (fun c ->
           { corpus = c; spec = c.Corpora.spec ();
             report = Corpora.golden_report c; analysis = Corpora.golden_analysis c })
         Corpora.all)
  in
  (* warm-up: one checked pass *)
  let m = Meter.create () in
  Array.iter (fun d -> check m d (compile None d)) docs;
  if m.Meter.failed > 0 then
    failwith ("spec-compile warm-up: " ^ String.concat "; " m.Meter.failures);
  { seed; docs; counts = Replay.counts (); stages = Metrics.create ();
    traced_docs = 0; ir_stmts = 0; c_bytes = 0; diagnostics = 0; reqs_mined = 0;
    reqs_checkable = 0; diag_mismatches = 0 }

(* The traced op, then (outside the timed span) the layer replay:
   document parse, chunk/parse/winnow per sentence, static analysis. *)
let traced_op st m r d =
  let metrics = Metrics.create () in
  Spans.set_op r m.Meter.n;
  let rec_ = Some r in
  let ((run, _, _) as out) =
    Meter.time m (fun () -> compile ~metrics ~trace:r.Spans.trace rec_ d)
  in
  check m d out;
  Metrics.merge_into st.stages metrics;
  st.traced_docs <- st.traced_docs + 1;
  let cg = run.P.codegen in
  st.ir_stmts <-
    st.ir_stmts
    + List.fold_left (fun a f -> a + stmt_count f.Sage_codegen.Ir.body) 0 cg.P.functions;
  st.c_bytes <- st.c_bytes + String.length cg.P.c_code;
  st.diagnostics <- st.diagnostics + List.length run.P.diagnostics;
  st.reqs_mined <- st.reqs_mined + List.length run.P.requirements;
  st.reqs_checkable <-
    st.reqs_checkable + List.length (List.filter Sage_reqs.Req.checkable run.P.requirements);
  ignore
    (Spans.span rec_ "rfc.doc_parse" (fun () ->
         Sage_rfc.Document.parse ~title:d.corpus.Corpora.title d.corpus.Corpora.text));
  List.iter (Replay.check rec_ st.counts d.spec) run.P.sentences;
  let diags =
    Spans.span rec_ "analysis.analyze" (fun () ->
        Sage_analysis.Analyzer.analyze_program
          ~struct_of_function:cg.P.struct_of_function cg.P.functions)
  in
  if List.length diags <> List.length run.P.diagnostics then
    st.diag_mismatches <- st.diag_mismatches + 1

let cycle st m rec_ c =
  Array.iter
    (fun i ->
      let d = st.docs.(i) in
      match rec_ with
      | None -> check m d (Meter.time m (fun () -> compile None d))
      | Some r -> traced_op st m r d)
    (order ~seed:st.seed ~cycle:c (Array.length st.docs))

let layers st agg =
  let docs = float_of_int (max 1 st.traced_docs) in
  let per_doc x = x /. docs in
  let stage = Replay.stage_ns st.stages in
  Replay.layers st.counts agg ~stages:st.stages
  @ [ ("rfc.doc_parse_ms", Spans.median_in agg "rfc.doc_parse" ~per:1e6);
      ("codegen.us_per_doc", per_doc (stage "codegen" +. stage "assemble" +. stage "render") /. 1e3);
      ("codegen.ir_stmts_per_doc", per_doc (float_of_int st.ir_stmts));
      ("codegen.c_bytes_per_doc", per_doc (float_of_int st.c_bytes));
      ("analysis.ms_per_doc", per_doc (stage "analysis") /. 1e6);
      ("analysis.words_per_doc", Spans.mean_words agg "analysis.analyze");
      ("analysis.diagnostics_per_doc", per_doc (float_of_int st.diagnostics));
      ("reqs.mine_us_per_doc", per_doc (stage "reqs") /. 1e3);
      ("reqs.checkable_ratio", Stats.ratio st.reqs_checkable st.reqs_mined);
      ( "core.self_ms_per_doc",
        per_doc (Spans.total_ns agg "core.run_document" -. Replay.all_stage_ns st.stages) /. 1e6 ) ]

let cross_check st agg =
  Replay.cross_check st.counts agg ~stages:st.stages ~op:"core.run_document"
  @
  if st.diag_mismatches > 0 then
    [ Printf.sprintf "%d documents: analyzer replay found another diagnostic count"
        st.diag_mismatches ]
  else []

let workload =
  { Bench.name = "spec-compile";
    setup; cycle; layers; cross_check;
    notes = (fun st agg -> Option.fold ~none:[] ~some:(Replay.notes ~stages:st.stages) agg) }
