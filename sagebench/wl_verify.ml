(* verify: spec-derived fuzzing and chaos.  An op is one verdict: for
   each of the eight corpora, the SA007 proofs of its generated
   functions and a compiled-backend differential fuzz run
   ([Sage_fuzz.Engine.run] with the proofs and the mined requirements);
   then one chaos campaign over the built-in scenarios with the
   requirement oracles on.  Any finding, proof violation or chaos
   violation fails the verdict.  Each verdict draws its fuzz and chaos
   seeds from the run's seed. *)

module P = Sage.Pipeline
module Engine = Sage_fuzz.Engine
module Campaign = Sage_chaos.Campaign
module Metrics = Sage_sched.Metrics
module Backend = Sage_backend.Backend
module Trace = Sage_trace.Trace

(* fuzz iterations per corpus in one verdict *)
let iters = 1000

type target = {
  corpus : Corpora.t;
  run : P.run;
  targets : (Sage_codegen.Ir.func * Sage_rfc.Header_diagram.t) list;
}

type st = {
  seed : int;
  corpora : target list;
  cases : Campaign.corpus_case list;
  mutable verdicts : int;  (* traced *)
  mutable fuzz_iters : int;
  mutable executions : int;
  mutable rejected : int;
  mutable covered : int;
  mutable reqs_checked : int;
  mutable chaos_ticks : int;
  mutable chaos_cases : int;
  mutable faults : int;
}

let verdict_seed ~seed ~verdict ~part = Hashtbl.hash (seed, verdict, part) land 0x3fffffff

(* One verdict; returns the failures it found. *)
let verdict ?trace rec_ st ~index =
  let metrics = Metrics.create () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iteri
    (fun i t ->
      let funcs = t.run.P.codegen.P.functions in
      let proved =
        Spans.span rec_ "analysis.prove" (fun () ->
            let diags =
              Sage_analysis.Analyzer.analyze_program
                ~struct_of_function:t.run.P.codegen.P.struct_of_function funcs
            in
            Sage_analysis.Analyzer.proved_functions diags funcs)
      in
      let fz =
        Spans.span rec_ "fuzz.run" (fun () ->
            Engine.run ?trace ~metrics ~backend:Backend.Compiled ~proved
              ~reqs:t.run.P.requirements
              ~seed:(verdict_seed ~seed:st.seed ~verdict:index ~part:i)
              ~iters ~protocol:t.run.P.spec.P.protocol t.targets)
      in
      if fz.Engine.findings <> [] then
        fail "%s: %d fuzz findings" t.corpus.Corpora.name (List.length fz.Engine.findings);
      if fz.Engine.proof_violations <> [] then
        fail "%s: %d proof violations" t.corpus.Corpora.name
          (List.length fz.Engine.proof_violations);
      if rec_ <> None then begin
        st.fuzz_iters <- st.fuzz_iters + fz.Engine.iters;
        st.executions <- st.executions + fz.Engine.executions;
        st.rejected <- st.rejected + fz.Engine.rejected;
        st.covered <- st.covered + fst (Sage_interp.Coverage.totals fz.Engine.coverage fz.Engine.funcs);
        st.reqs_checked <- st.reqs_checked + fz.Engine.reqs_checked
      end)
    st.corpora;
  let campaign =
    Spans.span rec_ "chaos.run" (fun () ->
        Campaign.run ?trace ~metrics ~check_reqs:true
          ~seed:(verdict_seed ~seed:st.seed ~verdict:index ~part:(-1))
          ~scenarios:Sage_chaos.Scenario.builtins ~corpora:st.cases ())
  in
  if Campaign.failed campaign then fail "chaos: %s" (Campaign.summary campaign);
  if rec_ <> None then begin
    st.verdicts <- st.verdicts + 1;
    st.chaos_ticks <- st.chaos_ticks + Metrics.counter metrics "chaos.ticks";
    st.chaos_cases <- st.chaos_cases + Metrics.counter metrics "chaos.cases"
  end;
  List.rev !failures

let setup ~seed =
  let runs = Hashtbl.create 8 in
  let run_of name =
    match Hashtbl.find_opt runs name with
    | Some r -> r
    | None ->
      let c = Corpora.find name in
      let r = Corpora.run (c.Corpora.spec ()) c in
      Hashtbl.replace runs name r;
      r
  in
  let corpora =
    List.map
      (fun c ->
        let run = run_of c.Corpora.name in
        let targets =
          List.filter_map
            (fun (f : Sage_codegen.Ir.func) ->
              Option.map (fun sd -> (f, sd))
                (List.assoc_opt f.Sage_codegen.Ir.fn_name run.P.codegen.P.struct_of_function))
            run.P.codegen.P.functions
        in
        { corpus = c; run; targets })
      Corpora.all
  in
  let cases =
    List.map
      (fun c ->
        { Campaign.corpus = c.Corpora.name;
          generated_run = Lazy.from_val (run_of (Corpora.generated_backing c.Corpora.name)) })
      Corpora.all
  in
  let st =
    { seed; corpora; cases; verdicts = 0; fuzz_iters = 0; executions = 0; rejected = 0;
      covered = 0; reqs_checked = 0; chaos_ticks = 0; chaos_cases = 0; faults = 0 }
  in
  (* warm-up: one verdict on a throwaway seed *)
  (match verdict None { st with seed = -1 } ~index:0 with
   | [] -> ()
   | f -> failwith ("verify warm-up: " ^ String.concat "; " f));
  st

let cycle st m rec_ c =
  let trace = Option.map (fun r -> r.Spans.trace) rec_ in
  Option.iter (fun r -> Spans.set_op r m.Meter.n) rec_;
  (match rec_ with
   | Some _ ->
     List.iter
       (fun t ->
         List.iter
           (fun (f, layout) ->
             ignore (Spans.span rec_ "backend.load" (fun () -> Backend.load Backend.Compiled ~layout f)))
           t.targets)
       st.corpora
   | None -> ());
  let failures = Meter.time m (fun () -> verdict ?trace rec_ st ~index:c) in
  List.iter (fun f -> Meter.fail m "verdict %d: %s" c f) failures;
  match trace with
  | Some tr ->
    List.iter
      (fun (e : Trace.event) -> if e.Trace.name = "fault" then st.faults <- st.faults + 1)
      (Trace.events tr)
  | None -> ()

let layers st agg =
  let per_verdict x = float_of_int x /. float_of_int (max 1 st.verdicts) in
  let exec_ns =
    Hashtbl.fold
      (fun name (s : Spans.series) acc ->
        if String.length name > 5 && String.sub name 0 5 = "exec:" then s.Spans.ns @ acc else acc)
      agg []
    |> Array.of_list |> Stats.sorted
  in
  let exec_at p = if exec_ns = [||] then 0. else Stats.percentile_sorted exec_ns p /. 1e3 in
  [ ("analysis.prove_ms", Spans.median_in agg "analysis.prove" ~per:1e6);
    ("reqs.checked", per_verdict st.reqs_checked);
    ("backend.load_us", Spans.median_in agg "backend.load" ~per:1e3);
    ("backend.exec_us_p50", exec_at 500);
    ("backend.exec_us_p99", exec_at 990);
    ("sim.faults_fired", per_verdict st.faults);
    ("fuzz.iters_per_s", float_of_int st.fuzz_iters /. (Spans.total_ns agg "fuzz.run" /. 1e9));
    ("fuzz.execs_per_iter", Stats.ratio st.executions st.fuzz_iters);
    ("fuzz.rejected_ratio", Stats.ratio st.rejected st.executions);
    ("fuzz.coverage_stmts", per_verdict st.covered);
    ("chaos.ticks_per_s", float_of_int st.chaos_ticks /. (Spans.total_ns agg "chaos.run" /. 1e9));
    ("chaos.cases", per_verdict st.chaos_cases) ]

let workload =
  { Bench.name = "verify";
    setup; cycle; layers; cross_check = (fun _ _ -> []); notes = (fun _ _ -> []) }
