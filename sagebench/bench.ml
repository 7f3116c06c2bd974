(* What the four workloads share: set-up, the untraced run that
   gives the end-to-end metrics, the traced run that gives the per-layer
   metrics, and the one-line JSON result. *)

module Trace = Sage_trace.Trace

(* An op is one document (spec-compile), one sentence (mutated-text),
   one datagram (packet-path) or one verdict (verify). *)
let end_to_end =
  [ ("setup_s", "s"); ("op_iqm_ms", "ms"); ("ops_per_s", "1/s");
    ("alloc_words_per_op", "words"); ("peak_heap_mb", "MB") ]

(* Every per-layer metric, named <lib module>.<metric>.  A workload that
   never calls a layer reports its metrics as 0.  op.tail_ms is the
   end-to-end tail latency; it lives here because it does not repeat
   between runs closely enough to gate on (see README.md). *)
let per_layer =
  [ ("op.tail_ms", "ms");
    ("rfc.doc_parse_ms", "ms");
    ("nlp.chunk_us", "us"); ("nlp.words_per_sentence", "words");
    ("ccg.parse_ms_p50", "ms"); ("ccg.parse_ms_p99", "ms");
    ("ccg.parse_share", "ratio"); ("ccg.words_per_parse", "words");
    ("ccg.words_per_parse_max", "words"); ("ccg.lfs_per_parse", "count");
    ("ccg.zero_lf_ratio", "ratio");
    ("disambig.winnow_us", "us"); ("disambig.lfs_in", "count");
    ("disambig.killed_ratio", "ratio");
    ("codegen.us_per_doc", "us"); ("codegen.ir_stmts_per_doc", "count");
    ("codegen.c_bytes_per_doc", "bytes");
    ("analysis.ms_per_doc", "ms"); ("analysis.words_per_doc", "words");
    ("analysis.diagnostics_per_doc", "count"); ("analysis.prove_ms", "ms");
    ("reqs.mine_us_per_doc", "us"); ("reqs.checkable_ratio", "ratio");
    ("reqs.checked", "count");
    ("core.self_ms_per_doc", "ms"); ("core.over_budget_ratio", "ratio");
    ("core.heaviest_over_median", "ratio");
    ("backend.load_us", "us"); ("backend.exec_us_p50", "us");
    ("backend.exec_us_p99", "us"); ("backend.words_per_exec", "words");
    ("backend.known_defect_ratio", "ratio");
    ("net.decode_ns", "ns"); ("net.encode_ns", "ns");
    ("net.checksum_ns", "ns"); ("net.decode_errors", "ratio");
    ("sim.self_us", "us"); ("sim.slow_path_ratio", "ratio");
    ("sim.faults_fired", "count");
    ("fuzz.iters_per_s", "1/s"); ("fuzz.execs_per_iter", "count");
    ("fuzz.rejected_ratio", "ratio"); ("fuzz.coverage_stmts", "count");
    ("chaos.ticks_per_s", "1/s"); ("chaos.cases", "count");
    ("gc.minor_collections_per_op", "count");
    ("gc.major_collections_per_op", "count");
    ("gc.promoted_words_per_op", "words");
    ("trace.overhead_frac", "ratio") ]

type 'st workload = {
  name : string;
  setup : seed:int -> 'st;
  cycle : 'st -> Meter.t -> Spans.recorder option -> int -> unit;
      (** one cycle of ops; with a recorder, the same ops traced *)
  layers : 'st -> Spans.agg -> (string * float) list;
  cross_check : 'st -> Spans.agg -> string list;
      (** traced-run consistency failures *)
  notes : 'st -> Spans.agg option -> string list;
      (** stderr lines after the run, given the traced run's spans *)
}

type packed = W : 'st workload -> packed

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json o =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

(* setup_s is the median of [setups] set-ups, back to back, each scaled
   by the host's speed sampled just before and after it.  The first is
   timed from process start, so runtime start-up and first-touch costs
   count once. *)
let setups = 11

let setup_median w ~seed ~process_start ~calib =
  let spans = Array.make setups (0, 0) in
  let set_up i t0 =
    let st = w.setup ~seed in
    spans.(i) <- (t0, Clock.now_ns ());
    Calib.burst calib;
    st
  in
  let st = set_up 0 process_start in
  for i = 1 to setups - 1 do
    ignore (set_up i (Clock.now_ns ()))
  done;
  let ns (t0, t1) = float_of_int (t1 - t0) in
  let scaled ((t0, t1) as span) = ns span *. Calib.factor calib ~t0 ~t1 in
  (st, Array.map ns spans, Array.map scaled spans)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The tail: the highest candidate percentile with at least ten
   samples beyond it, over every op of the run. *)
let tail (m : Meter.t) =
  let s = Stats.sorted (Meter.latencies m) in
  let p = Stats.tail_permille (Array.length s) in
  (Stats.percentile_sorted s p /. 1e6, p)

(* Counted work: one untimed pass over cycle 0, whose inputs are fixed
   by the seed, counting all the words of each op exactly, so
   alloc_words_per_op repeats exactly for a fixed build.  Its ops are
   checked like any other but are left out of every latency and
   throughput figure. *)
let count_words w st =
  let m = Meter.create ~exact:true () in
  w.cycle st m None 0;
  (m, m.Meter.exact_words /. float_of_int (max 1 m.Meter.n))

(* Latency and throughput over every op of the run, each op scaled by
   the host's speed around it. *)
let e2e_metrics (m : Meter.t) ~calib ~setup_s ~words_per_op ~peak_heap_mb =
  let scaled = Meter.scaled m calib in
  [ ("setup_s", setup_s);
    ("op_iqm_ms", Stats.iqm scaled /. 1e6);
    ("ops_per_s", float_of_int m.Meter.n /. (Array.fold_left ( +. ) 0. scaled /. 1e9));
    ("alloc_words_per_op", words_per_op);
    ("peak_heap_mb", peak_heap_mb) ]

let with_units table names =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name table), unit))
    names

(* A metric that came out infinite or NaN (a division by an empty
   measurement) fails the run rather than printing invalid JSON. *)
let not_finite metrics =
  List.filter_map
    (fun (name, v, _) ->
      if Float.is_finite v then None else Some (name ^ " is not a finite number"))
    metrics

let outcome ~attempted ~failed ~problems metrics =
  let problems = problems @ not_finite metrics in
  List.iter prerr_endline (List.map (fun p -> "FAILED: " ^ p) problems);
  let failed = failed + List.length problems in
  { correct = failed = 0; attempted; failed;
    metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) metrics }

let report_failures (m : Meter.t) =
  List.iter prerr_endline (List.rev_map (fun s -> "FAILED: " ^ s) m.Meter.failures)

let run_plain w ~seed ~seconds ~process_start =
  let calib = Calib.create () in
  let st, raw_setups, setups = setup_median w ~seed ~process_start ~calib in
  let setup_s = Stats.median setups /. 1e9 in
  let counted, words_per_op = count_words w st in
  let m = Meter.create ~calib () in
  Calib.burst calib;
  let cycles = Meter.run_cycles ~seconds (w.cycle st m None) in
  let peak_heap_mb = peak_heap_mb () in
  Calib.burst calib;
  let table = e2e_metrics m ~calib ~setup_s ~words_per_op ~peak_heap_mb in
  let tail_ms, p = tail m in
  let ms a = String.concat " " (Array.to_list (Array.map (fun t -> Printf.sprintf "%.0f" (t /. 1e6)) a)) in
  Printf.eprintf "%s: %d cycles, %d ops, %s %.3f ms unscaled, %d failed\n" w.name cycles
    m.Meter.n (Stats.permille_label p) tail_ms m.Meter.failed;
  Printf.eprintf "%s: host speed %.3f of nominal over %d samples; unscaled op iqm %.4f ms, \
                  %.2f ops/s; set-ups %s ms, unscaled %s ms\n"
    w.name (Calib.overall calib) calib.Calib.n
    (Stats.iqm (Meter.latencies m) /. 1e6)
    (float_of_int m.Meter.n /. (float_of_int m.Meter.timed_ns /. 1e9))
    (ms setups) (ms raw_setups);
  List.iter prerr_endline (w.notes st None);
  report_failures counted;
  report_failures m;
  outcome ~attempted:(counted.Meter.n + m.Meter.n) ~failed:(counted.Meter.failed + m.Meter.failed)
    ~problems:[]
    (with_units table end_to_end)

let write_trace path tr =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Trace.to_chrome_json tr))

(* Each cycle runs twice on the same inputs: untraced (for the GC
   counts and the overhead baseline) and then traced.  A fresh tracer
   per cycle keeps memory bounded; the first cycle's spans are written
   out for Perfetto. *)
let run_traced w ~seed ~seconds ~trace_out =
  let st = w.setup ~seed in
  let plain = Meter.create () and traced = Meter.create () in
  let agg = Spans.agg () in
  let minor = ref 0 and major = ref 0 and promoted = ref 0. in
  let written = ref false in
  let cycles =
    Meter.run_cycles ~seconds (fun c ->
        let g0 = Gc.quick_stat () in
        w.cycle st plain None c;
        let g1 = Gc.quick_stat () in
        minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
        major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
        promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
        let r = Spans.recorder () in
        w.cycle st traced (Some r) c;
        List.iter (Spans.add agg) (Spans.nodes (Trace.events r.Spans.trace));
        if not !written then begin
          write_trace trace_out r.Spans.trace;
          written := true
        end)
  in
  let per_op x = x /. float_of_int (max 1 plain.Meter.n) in
  let mean_ns (m : Meter.t) = float_of_int m.Meter.timed_ns /. float_of_int (max 1 m.Meter.n) in
  let table =
    w.layers st agg
    @ [ ("op.tail_ms", fst (tail plain));
        ("gc.minor_collections_per_op", per_op (float_of_int !minor));
        ("gc.major_collections_per_op", per_op (float_of_int !major));
        ("gc.promoted_words_per_op", per_op !promoted);
        ("trace.overhead_frac", (mean_ns traced /. mean_ns plain) -. 1.) ]
  in
  let problems = w.cross_check st agg in
  Printf.eprintf "%s (traced): %d cycles, %d traced ops, spans in %s\n" w.name cycles
    traced.Meter.n trace_out;
  List.iter prerr_endline (w.notes st (Some agg));
  report_failures plain;
  report_failures traced;
  outcome ~attempted:(plain.Meter.n + traced.Meter.n)
    ~failed:(plain.Meter.failed + traced.Meter.failed)
    ~problems:(List.map (fun p -> "cross-check: " ^ p) problems)
    (with_units table per_layer)
