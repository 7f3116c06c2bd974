(* The analysis phase of [Pipeline.run_document], re-driven from outside
   through the layers' public entry points (Chunker, Parser, Winnow) so
   each layer call gets its own span.  It follows
   [Pipeline.analyze_sentence] step by step: the annotated-prefix skip,
   chunking with the terminator dropped, the parse, winnowing, and the
   subject-supply retries for zero-LF field descriptions.  The traced
   run checks that every replayed sentence reaches the status the
   pipeline reported and that the call counts equal the stage table's,
   so a drift between the two shows as a failed cross-check. *)

module P = Sage.Pipeline
module Metrics = Sage_sched.Metrics
module Chunker = Sage_nlp.Chunker
module Token = Sage_nlp.Token
module Winnow = Sage_disambig.Winnow

type counts = {
  mutable sentences : int;
  mutable parses : int;
  mutable zero_lf_parses : int;
  mutable lfs : int;
  mutable winnows : int;
  mutable lfs_in : int;
  mutable killed : int;
  mutable mismatches : int;
}

let counts () =
  { sentences = 0; parses = 0; zero_lf_parses = 0; lfs = 0; winnows = 0;
    lfs_in = 0; killed = 0; mismatches = 0 }

let norm s =
  String.concat " " (List.filter (fun w -> w <> "") (String.split_on_char ' ' s))

let prefix_matches sentence prefix =
  let s = norm sentence and p = norm prefix in
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let word_chunk w = { Chunker.text = w; is_np = false; tokens = [ Token.v Token.Word w ] }
let subject_chunk field = { (word_chunk field) with Chunker.is_np = true }

let drop_terminator chunks =
  match List.rev chunks with
  | { Chunker.tokens = [ t ]; _ } :: rest when t.Token.kind = Token.Terminator ->
    List.rev rest
  | _ -> chunks

let rec insert_after_comma field = function
  | [] -> [ subject_chunk field ]
  | ({ Chunker.tokens = [ t ]; _ } as c) :: rest when t.Token.text = "," ->
    c :: subject_chunk field :: rest
  | c :: rest -> c :: insert_after_comma field rest

(* Replay one sentence; returns the status label the pipeline should
   have reported. *)
let sentence rec_ c (spec : P.spec) ?field text =
  c.sentences <- c.sentences + 1;
  if List.exists (prefix_matches text) spec.P.annotated_non_actionable then
    "annotated-non-actionable"
  else begin
    let chunks =
      Spans.span rec_ "nlp.chunk" (fun () ->
          drop_terminator (Chunker.chunk_sentence ~dict:spec.P.dictionary text))
    in
    let parse chunks =
      let r =
        Spans.span rec_ "ccg.parse" (fun () ->
            Sage_ccg.Parser.parse_chunks ~lexicon:spec.P.lexicon chunks)
      in
      let n = List.length r.Sage_ccg.Parser.lfs in
      c.parses <- c.parses + 1;
      c.lfs <- c.lfs + n;
      if n = 0 then c.zero_lf_parses <- c.zero_lf_parses + 1;
      r.Sage_ccg.Parser.lfs
    in
    let winnow lfs =
      let tr =
        Spans.span rec_ "disambig.winnow" (fun () ->
            Winnow.winnow ~extra_checks:spec.P.extra_checks lfs)
      in
      c.winnows <- c.winnows + 1;
      c.lfs_in <- c.lfs_in + tr.Winnow.base;
      c.killed <- c.killed + (tr.Winnow.base - List.length tr.Winnow.survivors);
      tr.Winnow.survivors
    in
    let label ~supplied = function
      | [ _ ] -> if supplied then "subject-supplied" else "parsed"
      | [] -> "zero-lf"
      | _ -> "ambiguous"
    in
    match parse chunks with
    | _ :: _ as lfs -> label ~supplied:false (winnow lfs)
    | [] -> (
      match field with
      | None -> "zero-lf"
      | Some f ->
        let attempts =
          [ subject_chunk f :: word_chunk "is" :: chunks;
            insert_after_comma f chunks;
            subject_chunk f :: chunks ]
        in
        let rec go = function
          | [] -> "zero-lf"
          | a :: rest -> (
            match parse a with
            | [] -> go rest
            | lfs -> (
              match winnow lfs with
              | [ _ ] as one -> label ~supplied:true one
              | _ -> go rest))
        in
        go attempts)
  end

(* Replay and compare with the status the pipeline reported. *)
let check rec_ c spec (r : P.sentence_report) =
  let got = sentence rec_ c spec ?field:r.P.field r.P.sentence in
  if got <> Corpora.status_label r.P.status then c.mismatches <- c.mismatches + 1

(* ---- the stage table the pipeline fills through [?metrics] ---- *)

let stage_ns (stages : Metrics.t) name =
  match List.assoc_opt name (Metrics.stage_ns stages) with
  | Some ns -> Int64.to_float ns
  | None -> 0.

let all_stage_ns stages =
  List.fold_left (fun a (_, ns) -> a +. Int64.to_float ns) 0. (Metrics.stage_ns stages)

let stage_calls stages name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.stage_calls stages))

(* The sentence-analysis layers, from the replay's spans and counts. *)
let layers c agg ~stages =
  [ ("nlp.chunk_us", Spans.median_in agg "nlp.chunk" ~per:1e3);
    ("nlp.words_per_sentence", Spans.mean_words agg "nlp.chunk");
    ("ccg.parse_ms_p50", Spans.median_in agg "ccg.parse" ~per:1e6);
    ("ccg.parse_ms_p99", Spans.percentile_in agg "ccg.parse" ~permille:990 ~per:1e6);
    ("ccg.parse_share", stage_ns stages "parse" /. all_stage_ns stages);
    ("ccg.words_per_parse", Spans.mean_words agg "ccg.parse");
    ("ccg.words_per_parse_max", Spans.max_words agg "ccg.parse");
    ("ccg.lfs_per_parse", Stats.ratio c.lfs c.parses);
    ("ccg.zero_lf_ratio", Stats.ratio c.zero_lf_parses c.parses);
    ("disambig.winnow_us", Spans.median_in agg "disambig.winnow" ~per:1e3);
    ("disambig.lfs_in", Stats.ratio c.lfs_in c.winnows);
    ("disambig.killed_ratio", Stats.ratio c.killed c.lfs_in) ]

(* Replayed span totals may differ from the pipeline's own stage timer
   by this share before the traced run fails. *)
let tolerance = 0.25

let replayed = [ ("chunk", "nlp.chunk"); ("parse", "ccg.parse"); ("winnow", "disambig.winnow") ]

let notes agg ~stages =
  List.map
    (fun (stage, span) ->
      Printf.sprintf "replayed %s: %.1f ms in spans, %.1f ms in the stage table" stage
        (Spans.total_ns agg span /. 1e6) (stage_ns stages stage /. 1e6))
    replayed

(* The replay must reach the pipeline's statuses with the same number of
   calls per stage and about the same time.  The stage table's layers
   run inside the end-to-end [op] spans, so their summed time must fit
   in those spans' wall time (give or take the stage timer's
   microsecond rounding, 2 us a call). *)
let cross_check c agg ~stages ~op =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if c.mismatches > 0 then problem "%d replayed sentences reached another status" c.mismatches;
  List.iter
    (fun (stage, span) ->
      let calls = stage_calls stages stage and spans = Spans.count agg span in
      if calls <> spans then problem "%s: %d stage calls but %d %s spans" stage calls spans span;
      let staged = stage_ns stages stage and replayed = Spans.total_ns agg span in
      if staged > 0. && Float.abs (replayed -. staged) /. staged > tolerance then
        problem "%s: replayed %.1f ms vs stage table %.1f ms (tolerance %.0f%%)" stage
          (replayed /. 1e6) (staged /. 1e6) (tolerance *. 100.))
    replayed;
  let calls = List.fold_left (fun a (_, n) -> a + n) 0 (Metrics.stage_calls stages) in
  let inside = all_stage_ns stages and wall = Spans.total_ns agg op in
  if inside > wall +. (2e3 *. float_of_int calls) then
    problem "stage times sum to %.1f ms, more than the %s wall %.1f ms" (inside /. 1e6) op
      (wall /. 1e6);
  List.rev !problems
