(* Golden snapshots: the full `report --analyze` artifacts (markdown
   report + static-analysis JSON) for every corpus, compared
   byte-for-byte against checked-in files under test/golden/.  Any
   behaviour change anywhere in the pipeline — chunker, parser,
   winnower, codegen, static analysis, report rendering — shows up
   here as a readable diff.

   Regenerate intentionally with:

     SAGE_UPDATE_GOLDEN=1 dune runtest

   which rewrites the snapshots in the source tree (the tests run in
   _build/default/test/, so the update path climbs back out). *)

module Report = Sage.Report
module C = Corpus_runs
module Corpora = Sage.Corpora

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* dune copies test/golden/* next to the test binary; the source-tree
   copy (for SAGE_UPDATE_GOLDEN) lives three levels up from
   _build/default/test/. *)
let build_dir = "golden"
let source_dir = Filename.concat (Filename.concat "../../.." "test") "golden"

let updating =
  match Sys.getenv_opt "SAGE_UPDATE_GOLDEN" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let update_snapshot file actual =
  let dir = if Sys.file_exists source_dir then source_dir else build_dir in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (Filename.concat dir file) actual

let compare_snapshot file actual =
  if updating then update_snapshot file actual
  else
    let path = Filename.concat build_dir file in
    if not (Sys.file_exists path) then
      Alcotest.failf
        "missing snapshot %s — regenerate with SAGE_UPDATE_GOLDEN=1 dune runtest"
        file
    else check Alcotest.string file (read_file path) actual

let test_report_snapshot (c : Corpora.t) () =
  compare_snapshot (c.name ^ ".report.md") (Report.markdown (C.run_of c))

let test_analysis_snapshot (c : Corpora.t) () =
  let json = Report.analysis_json (C.run_of c) in
  (match Json_min.validate json with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s analysis json malformed: %s" c.name e);
  compare_snapshot (c.name ^ ".analysis.json") json

(* The text trace sink under --trace-clock logical --jobs 1 is
   byte-deterministic, so it snapshots like any other artifact: any
   change to span structure, event names or the renderer shows up as a
   diff here. *)
let test_trace_text_snapshot (c : Corpora.t) () =
  let _run, trace = C.traced_run_of c in
  compare_snapshot (c.name ^ ".trace.txt")
    (Sage_trace.Trace.render Sage_trace.Trace.Text trace)

let trace_snapshot_corpora = [ "icmp"; "igmp" ]

let suite =
  List.concat_map
    (fun (c : Corpora.t) ->
      [
        tc (c.name ^ " report snapshot") (test_report_snapshot c);
        tc (c.name ^ " analysis snapshot") (test_analysis_snapshot c);
      ]
      @
      if List.mem c.name trace_snapshot_corpora then
        [ tc (c.name ^ " trace-text snapshot") (test_trace_text_snapshot c) ]
      else [])
    Corpora.all
