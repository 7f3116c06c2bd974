(* mutated-text: the CCG layer on malformed, comma-heavy input.  Each op
   analyses one sentence with [Pipeline.analyze_sentence] in its
   message/field context.  A cycle holds every distinct corpus sentence
   as an unmutated control plus its seeded mutants (see [Mutate]).

   A mutant fails if its analysis raises; a control fails if it loses the
   status the golden-checked corpus run gave it.  A sentence that
   allocates more than [work_bound] words is over budget: that share is
   the known chart blowup, reported as measured (core.over_budget_ratio
   and on stderr), not counted as a failure. *)

module P = Sage.Pipeline
module Metrics = Sage_sched.Metrics

(* Comma phrases are repeated up to this many extra times.  At k = 2 the
   heaviest mutant allocates ~134M words (about 900x the median
   sentence) and a cycle takes seconds; at k = 3 a run takes tens of
   seconds. *)
let cap = 2

(* Minor-heap words one sentence may allocate before it counts as over
   budget; the heaviest clean corpus sentence allocates 6.5M. *)
let work_bound = 16_000_000

type source = { spec : P.spec; report : P.sentence_report; golden : string }

type st = {
  seed : int;
  sources : source array;
  counts : Replay.counts;
  stages : Metrics.t;
  clean_max : int;  (* words of the heaviest clean sentence *)
  mutable over_budget : int;
  mutable ops : int;
  mutable heaviest : int;
  mutable heaviest_text : string;
  mutable op_words : float list;
}

let setup ~seed =
  (* icmp-rw and bfd-rw repeat most sentences of icmp and bfd: each
     distinct sentence in its context is analysed once per family *)
  let key s = (s.spec.P.protocol, s.report.P.message, s.report.P.field, s.report.P.sentence) in
  let seen = Hashtbl.create 256 in
  let sources =
    List.concat_map
      (fun c ->
        let spec = c.Corpora.spec () in
        let run = Corpora.run spec c in
        if Sage.Report.markdown run <> Corpora.golden_report c then
          failwith ("mutated-text: " ^ c.Corpora.name ^ " report differs from golden");
        List.map
          (fun (r : P.sentence_report) ->
            { spec; report = r; golden = Corpora.status_key r.P.status })
          run.P.sentences)
      Corpora.all
    |> List.filter (fun s ->
           let fresh = not (Hashtbl.mem seen (key s)) in
           Hashtbl.replace seen (key s) ();
           fresh)
    |> Array.of_list
  in
  (* every clean sentence, alone, must reach its golden status within
     the work bound *)
  let clean_max = ref 0 in
  Array.iter
    (fun s ->
      let w0 = Clock.words () in
      let r =
        P.analyze_sentence s.spec ?message:s.report.P.message ?field:s.report.P.field
          s.report.P.sentence
      in
      let w = Clock.words () - w0 in
      clean_max := max !clean_max w;
      if Corpora.status_key r.P.status <> s.golden then
        failwith ("mutated-text: standalone status differs for: " ^ s.report.P.sentence);
      if w > work_bound then
        failwith (Printf.sprintf "mutated-text: clean sentence allocates %d words: %s" w
                    s.report.P.sentence))
    sources;
  { seed; sources; clean_max = !clean_max; counts = Replay.counts (); stages = Metrics.create (); over_budget = 0;
    ops = 0; heaviest = 0; heaviest_text = ""; op_words = [] }

let inputs st c =
  Mutate.cycle ~seed:st.seed ~cap ~cycle:c
    (Array.map (fun s -> s.report.P.sentence) st.sources)

let analyze ?metrics ?trace rec_ src (mu : Mutate.mutant) =
  Spans.span rec_ "core.analyze_sentence" (fun () ->
      P.analyze_sentence src.spec ?message:src.report.P.message ?field:src.report.P.field
        ?metrics ?trace mu.Mutate.text)

let cycle st m rec_ c =
  Array.iter
    (fun (mu : Mutate.mutant) ->
      let src = st.sources.(mu.Mutate.source) in
      let metrics = Option.map (fun _ -> Metrics.create ()) rec_ in
      let trace = Option.map (fun r -> r.Spans.trace) rec_ in
      Option.iter (fun r -> Spans.set_op r m.Meter.n) rec_;
      match Meter.time_op m (fun () -> analyze ?metrics ?trace rec_ src mu) with
      | exception exn ->
        Meter.fail m "%s raised %s: %s" (Mutate.family_name mu.Mutate.family)
          (Printexc.to_string exn) mu.Mutate.text
      | report, _, words ->
        st.ops <- st.ops + 1;
        st.op_words <- float_of_int words :: st.op_words;
        if words > work_bound then st.over_budget <- st.over_budget + 1;
        if words > st.heaviest then begin
          st.heaviest <- words;
          st.heaviest_text <- mu.Mutate.text
        end;
        if mu.Mutate.family = Mutate.Control
           && Corpora.status_key report.P.status <> src.golden
        then Meter.fail m "control lost its golden status: %s" mu.Mutate.text;
        (match (rec_, metrics) with
         | Some _, Some mt ->
           Metrics.merge_into st.stages mt;
           Replay.check rec_ st.counts src.spec report
         | _ -> ()))
    (inputs st c)

let heaviest_over_median st =
  match st.op_words with
  | [] -> 0.
  | l -> float_of_int st.heaviest /. Stats.median (Array.of_list l)

let layers st agg =
  Replay.layers st.counts agg ~stages:st.stages
  @ [ ("core.over_budget_ratio", Stats.ratio st.over_budget st.ops);
      ("core.heaviest_over_median", heaviest_over_median st) ]

let cross_check st agg =
  Replay.cross_check st.counts agg ~stages:st.stages ~op:"core.analyze_sentence"

let notes st agg =
  Option.fold ~none:[] ~some:(Replay.notes ~stages:st.stages) agg
  @ [ Printf.sprintf "mutated-text: %d/%d sentences over the %d-word bound (%.2f%%); \
                     the heaviest clean sentence allocates %d words"
      st.over_budget st.ops work_bound (100. *. Stats.ratio st.over_budget st.ops) st.clean_max;
    Printf.sprintf "mutated-text: heaviest sentence allocates %d words, %.0fx the median: %s"
      st.heaviest (heaviest_over_median st) st.heaviest_text ]

let workload =
  { Bench.name = "mutated-text";
    setup; cycle; layers; cross_check; notes }
