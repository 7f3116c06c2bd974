(* The SAGE command-line interface.

   Subcommands mirror the pipeline stages (paper Figure 1):

     sage parse      <sentence>   chunk, CCG-parse and winnow one sentence
     sage derivation <sentence>   show a CCG derivation tree (Appendix B)
     sage run                     run the full pipeline over a corpus
     sage code                    print the generated C translation unit
     sage analyze                 static-analysis findings over generated code
     sage ambiguities             list sentences needing a human rewrite
     sage interop                 ping/traceroute against generated code
     sage corpus                  show the pre-processed document structure
*)

module P = Sage.Pipeline
module Lf = Sage_logic.Lf
module Winnow = Sage_disambig.Winnow
module Parser = Sage_ccg.Parser
module Chunker = Sage_nlp.Chunker

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments.                                                   *)
(* ------------------------------------------------------------------ *)

module Corpora = Sage.Corpora

(* -p names a protocol by its original corpus; --rewritten then selects
   that protocol's rewrite *)
let protocol_arg =
  let originals = List.filter (fun c -> not c.Corpora.rewritten) Corpora.all in
  let parse s =
    let s = String.lowercase_ascii s in
    match List.find_opt (fun c -> c.Corpora.name = s) originals with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print ppf c = Fmt.string ppf c.Corpora.name in
  let names = List.rev_map (fun c -> c.Corpora.name) originals in
  let doc =
    Printf.sprintf "Protocol corpus to use: %s or %s."
      (String.concat ", " (List.rev (List.tl names)))
      (List.hd names)
  in
  Arg.(value
       & opt (conv (parse, print)) (List.hd originals)
       & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let rewritten_arg =
  let doc =
    "Use the rewritten (disambiguated) specification instead of the original \
     RFC text."
  in
  Arg.(value & flag & info [ "rewritten" ] ~doc)

(* the corpus that -p and --rewritten select together; asking for the
   rewrite of a protocol that has none is a usage error *)
let corpus_term =
  let resolve (c : Corpora.t) rewritten =
    match Corpora.lookup c.Corpora.protocol ~rewritten with
    | Some c -> `Ok c
    | None ->
      let with_rewrite =
        List.filter_map
          (fun c ->
            if c.Corpora.rewritten then
              Some (Corpora.protocol_name c.Corpora.protocol)
            else None)
          Corpora.all
      in
      `Error
        ( true,
          Printf.sprintf
            "--rewritten: %s has no rewritten text (protocols with one: %s)"
            c.Corpora.name
            (String.concat ", " with_rewrite) )
  in
  Term.(ret (const resolve $ protocol_arg $ rewritten_arg))

let verbose_arg =
  let doc = "Verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs_arg =
  let doc =
    "Parallel workers for the sentence-analysis phase (0 = one per core). \
     Capped at the host's core count, since extra workers only contend. \
     Needs OCaml 5 domains; on older compilers the run degrades to \
     sequential.  Output is byte-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let stats_arg =
  let doc =
    "After the run, print per-stage wall times, counters and the chart \
     cache hit rate."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cache_arg =
  let doc =
    "Memoize CCG charts in an LRU cache of the given capacity (entries); \
     repeated token sequences across sections then parse once."
  in
  Arg.(value & opt (some int) None & info [ "cache" ] ~docv:"CAP" ~doc)

(* --trace[=FILE]: record a structured event trace.  The trace is
   buffered in memory and written only after the run, so stdout stays
   byte-identical to an untraced run; the summary goes to stderr. *)
let trace_arg =
  let doc =
    "Record a structured event trace of the run and write it to $(i,FILE) \
     ($(b,sage-trace.json) / $(b,sage-trace.txt) when no file is given).  \
     The JSON output is the Chrome-trace format, loadable in \
     chrome://tracing or Perfetto.  Stdout output is unchanged."
  in
  Arg.(value
       & opt ~vopt:(Some "") (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc = "Trace output format: $(b,json) (Chrome-trace) or $(b,text)." in
  Arg.(value
       & opt
           (enum
              [ ("json", Sage_trace.Trace.Json); ("text", Sage_trace.Trace.Text) ])
           Sage_trace.Trace.Json
       & info [ "trace-format" ] ~docv:"FMT" ~doc)

let trace_clock_arg =
  let doc =
    "Trace timestamp source: $(b,wall) (nanosecond wall clock, for \
     profiling) or $(b,logical) (a deterministic sequence counter — with \
     $(b,--jobs 1) the trace file is then byte-identical across runs)."
  in
  Arg.(value
       & opt
           (enum
              [ ("wall", Sage_trace.Trace.Wall);
                ("logical", Sage_trace.Trace.Logical) ])
           Sage_trace.Trace.Wall
       & info [ "trace-clock" ] ~docv:"CLOCK" ~doc)

let with_trace ?(clock = Sage_trace.Trace.Wall) trace_file trace_format f =
  match trace_file with
  | None -> f None
  | Some file ->
    let tracer = Sage_trace.Trace.create ~clock () in
    let result = f (Some tracer) in
    let file =
      if file <> "" then file
      else
        match trace_format with
        | Sage_trace.Trace.Json -> "sage-trace.json"
        | Sage_trace.Trace.Text -> "sage-trace.txt"
    in
    let oc = open_out file in
    output_string oc (Sage_trace.Trace.render trace_format tracer);
    close_out oc;
    Printf.eprintf "trace: %s -> %s\n%!" (Sage_trace.Trace.summary tracer) file;
    result

(* --analyze[=strict]: run the static analyzer after the pipeline and
   print its findings; strict additionally turns Error-severity findings
   into a nonzero exit *)
type analyze_mode = Analyze_off | Analyze | Analyze_strict

let analyze_arg =
  let mode_conv =
    let parse = function
      | "" | "plain" -> Ok Analyze
      | "strict" -> Ok Analyze_strict
      | other ->
        Error (`Msg (Printf.sprintf "bad --analyze mode %S (use strict)" other))
    in
    let print ppf m =
      Fmt.string ppf
        (match m with
         | Analyze_off -> "off" | Analyze -> "plain" | Analyze_strict -> "strict")
    in
    Arg.conv (parse, print)
  in
  let doc =
    "Print the static-analysis findings over the generated code \
     (definite-assignment/field coverage, dead code, width/overflow, \
     checksum ordering).  With $(i,--analyze=strict), Error-severity \
     findings make the exit status nonzero."
  in
  Arg.(value & opt ~vopt:Analyze mode_conv Analyze_off
       & info [ "analyze" ] ~docv:"MODE" ~doc)

(* --fail-on error/warning: the generalized exit policy; --strict and
   --analyze=strict are the Fail_error spelling *)
let fail_on_arg =
  let doc =
    "Exit nonzero when findings at or above $(docv) severity exist: \
     $(b,error) or $(b,warning).  Generalizes $(b,--strict), which is \
     $(b,--fail-on error)."
  in
  Arg.(value
       & opt
           (some
              (enum
                 [ ("error", Sage_analysis.Analyzer.Fail_error);
                   ("warning", Sage_analysis.Analyzer.Fail_warning) ]))
           None
       & info [ "fail-on" ] ~docv:"SEV" ~doc)

let analysis_exit ?fail_on mode (result : P.run) =
  match fail_on with
  | Some f ->
    Sage_analysis.Analyzer.exit_code_on ~fail_on:f result.P.diagnostics
  | None -> (
    match mode with
    | Analyze_off -> 0
    | Analyze | Analyze_strict ->
      Sage_analysis.Analyzer.exit_code
        ~strict:(mode = Analyze_strict)
        result.P.diagnostics)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let status_string = function
  | P.Parsed _ -> "parsed (1 LF)"
  | P.Subject_supplied _ -> "parsed (subject supplied)"
  | P.Zero_lf -> "ZERO LFs - needs rewriting"
  | P.Ambiguous lfs ->
    Printf.sprintf "AMBIGUOUS (%d LFs) - needs rewriting" (List.length lfs)
  | P.Annotated_non_actionable -> "annotated non-actionable"
  | P.Crashed e -> Printf.sprintf "CRASHED: %s" e

(* ------------------------------------------------------------------ *)
(* sage parse                                                          *)
(* ------------------------------------------------------------------ *)

let parse_cmd =
  let sentence_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")
  in
  let field_arg =
    let doc = "Field name providing context (enables subject supply)." in
    Arg.(value & opt (some string) None & info [ "field" ] ~docv:"FIELD" ~doc)
  in
  let run proto verbose field sentence =
    setup_logs verbose;
    let spec = proto.Corpora.spec () in
    (* chunking *)
    let chunks = Chunker.chunk_sentence ~dict:spec.P.dictionary sentence in
    Printf.printf "chunks   : %s\n"
      (String.concat " " (List.map (Fmt.str "%a" Chunker.pp_chunk) chunks));
    (* raw parse *)
    let result =
      Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence
    in
    Printf.printf "base LFs : %d%s\n"
      (List.length result.Parser.lfs)
      (if result.Parser.truncated then " (chart truncated)" else "");
    (* full analysis with winnowing *)
    let report = P.analyze_sentence spec ?field sentence in
    (match report.P.trace with
     | Some tr ->
       Printf.printf "winnowing: %s\n"
         (String.concat " -> "
            (List.map
               (fun (label, n) -> Printf.sprintf "%s=%d" label n)
               (Winnow.stage_counts tr)))
     | None -> ());
    Printf.printf "status   : %s\n" (status_string report.P.status);
    (match report.P.status with
     | P.Parsed lf | P.Subject_supplied lf ->
       Printf.printf "LF       : %s\n" (Lf.to_string lf)
     | P.Ambiguous lfs ->
       List.iteri
         (fun i lf -> Printf.printf "LF[%d]    : %s\n" i (Lf.to_string lf))
         lfs
     | P.Zero_lf | P.Annotated_non_actionable | P.Crashed _ -> ());
    0
  in
  let doc = "Chunk, CCG-parse and winnow a single specification sentence." in
  Cmd.v
    (Cmd.info "parse" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ field_arg $ sentence_arg)

(* ------------------------------------------------------------------ *)
(* sage derivation                                                     *)
(* ------------------------------------------------------------------ *)

let derivation_cmd =
  let sentence_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SENTENCE")
  in
  let run proto verbose sentence =
    setup_logs verbose;
    let spec = proto.Corpora.spec () in
    let result =
      Parser.parse ~lexicon:spec.P.lexicon ~dict:spec.P.dictionary sentence
    in
    match result.Parser.items with
    | [] ->
      Printf.printf "no derivation (0 logical forms)\n";
      1
    | item :: rest ->
      Printf.printf "%d derivation(s); showing the first:\n\n"
        (List.length rest + 1);
      Printf.printf "%s\n" (Fmt.str "%a" Parser.pp_deriv item.Parser.deriv);
      0
  in
  let doc = "Show a CCG derivation tree for a sentence (paper Appendix B)." in
  Cmd.v
    (Cmd.info "derivation" ~doc)
    Term.(const run $ protocol_arg $ verbose_arg $ sentence_arg)

(* ------------------------------------------------------------------ *)
(* sage run                                                            *)
(* ------------------------------------------------------------------ *)

let run_pipeline ?(jobs = 1) ?cache_cap ?trace corpus =
  let jobs = if jobs <= 0 then Sage_sched.Pool.default_jobs () else jobs in
  let cache =
    Option.map (fun capacity -> Sage.Chart_cache.create ~capacity ()) cache_cap
  in
  Corpora.run ~jobs ?cache ?trace corpus

let run_cmd =
  let run corpus verbose jobs cache_cap stats analyze fail_on trace_file
      trace_format trace_clock =
    setup_logs verbose;
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let result = run_pipeline ~jobs ?cache_cap ?trace corpus in
    Printf.printf "document  : %s\n" result.P.document.Sage_rfc.Document.title;
    Printf.printf "sections  : %d\n"
      (List.length result.P.document.Sage_rfc.Document.sections);
    Printf.printf "sentences : %d\n" (List.length result.P.sentences);
    Printf.printf "parsed    : %d\n" (List.length (P.parsed_sentences result));
    Printf.printf "ambiguous : %d\n" (List.length (P.ambiguous_sentences result));
    Printf.printf "zero-LF   : %d\n" (List.length (P.zero_lf_sentences result));
    Printf.printf "annotated : %d\n"
      (List.length
         (List.filter
            (fun r -> r.P.status = P.Annotated_non_actionable)
            result.P.sentences));
    Printf.printf "non-actionable (discovered): %d\n"
      (List.length result.P.codegen.P.non_actionable);
    Printf.printf "functions : %d\n" (List.length result.P.codegen.P.functions);
    List.iter
      (fun f ->
        Printf.printf "  %-45s (%d statements)\n" f.Sage_codegen.Ir.fn_name
          (List.length f.Sage_codegen.Ir.body))
      result.P.codegen.P.functions;
    if verbose then begin
      Printf.printf "\nper-sentence detail:\n";
      List.iter
        (fun r ->
          Printf.printf "  [%-28s] %s\n" (status_string r.P.status)
            (if String.length r.P.sentence > 70 then
               String.sub r.P.sentence 0 67 ^ "..."
             else r.P.sentence))
        result.P.sentences
    end;
    if analyze <> Analyze_off then begin
      print_newline ();
      print_string (Sage.Report.analysis result)
    end;
    if stats then begin
      print_newline ();
      print_string (Sage.Report.stats result)
    end;
    analysis_exit ?fail_on analyze result
  in
  let doc = "Run the full pipeline (parse, winnow, generate) over a corpus." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg $ cache_arg
          $ stats_arg $ analyze_arg $ fail_on_arg $ trace_arg
          $ trace_format_arg $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage code                                                           *)
(* ------------------------------------------------------------------ *)

let code_cmd =
  let fn_arg =
    let doc = "Print only this generated function." in
    Arg.(value & opt (some string) None & info [ "f"; "function" ] ~docv:"NAME" ~doc)
  in
  let run corpus verbose jobs fn =
    setup_logs verbose;
    let result = run_pipeline ~jobs corpus in
    (match fn with
     | None -> print_string result.P.codegen.P.c_code
     | Some name ->
       (match P.find_function result name with
        | Some f -> print_endline (Sage_codegen.C_printer.render_func f)
        | None ->
          Printf.eprintf "no function %S; available:\n" name;
          List.iter
            (fun f -> Printf.eprintf "  %s\n" f.Sage_codegen.Ir.fn_name)
            result.P.codegen.P.functions));
    0
  in
  let doc = "Print the generated C code (structs, framework, functions)." in
  Cmd.v
    (Cmd.info "code" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg $ fn_arg)

(* ------------------------------------------------------------------ *)
(* sage analyze                                                        *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let strict_arg =
    let doc =
      "Exit nonzero when any Error-severity finding exists (alias for \
       $(b,--fail-on error))."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,text) (default) or $(b,json)." in
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let prove_arg =
    let doc =
      "Report the SA007 proof summary on stderr — which functions are \
       statically proved in-bounds for every packet length — and exit \
       nonzero on any Error-severity finding (unless $(b,--fail-on) says \
       otherwise)."
    in
    Arg.(value & flag & info [ "prove" ] ~doc)
  in
  let seeded_wedge_arg =
    let doc =
      "Tamper the generated IR by deleting the BFD session-recovery \
       transitions before analyzing (SA011 self-test: the run must report \
       a wedge-state Error and, under $(b,--prove), exit 1)."
    in
    Arg.(value & flag & info [ "seeded-wedge" ] ~doc)
  in
  let seeded_divergence_arg =
    let doc =
      "Arm the compiled backend's seeded mis-compilation fixture before \
       analyzing (SA012 self-test: the run must report a slot-consistency \
       Error and, under $(b,--prove), exit 1)."
    in
    Arg.(value & flag & info [ "seeded-divergence" ] ~doc)
  in
  let run corpus verbose jobs cache_cap strict fail_on prove seeded_wedge
      seeded_divergence format =
    setup_logs verbose;
    let result = run_pipeline ~jobs ?cache_cap corpus in
    let funcs = result.P.codegen.P.functions in
    let funcs =
      if seeded_wedge then Sage_chaos.Seeded_wedge.tamper_fsm funcs else funcs
    in
    let divergence =
      if seeded_divergence then
        Some Sage_backend.Seeded_divergence.default_target
      else None
    in
    let diagnostics =
      (* fixtures change the program under analysis, so they re-analyze;
         the untampered path reuses the pipeline's diagnostics, sentence
         provenance included *)
      if seeded_wedge || seeded_divergence then
        Sage_analysis.Analyzer.analyze_program ?divergence
          ~struct_of_function:result.P.codegen.P.struct_of_function funcs
      else result.P.diagnostics
    in
    let protocol = result.P.spec.P.protocol in
    (match format with
     | `Text ->
       print_string (Sage_analysis.Diagnostic.render_text ~protocol diagnostics)
     | `Json ->
       print_endline
         (Sage_analysis.Diagnostic.render_json ~protocol diagnostics));
    if prove then begin
      let proved = Sage_analysis.Analyzer.proved_functions diagnostics funcs in
      Printf.eprintf
        "SA007: %d/%d functions proved in-bounds for all packet lengths\n"
        (List.length proved) (List.length funcs);
      List.iter
        (fun (f : Sage_codegen.Ir.func) ->
          if not (List.mem f.Sage_codegen.Ir.fn_name proved) then
            Printf.eprintf "  unproved: %s\n" f.Sage_codegen.Ir.fn_name)
        funcs
    end;
    let fail_on =
      match fail_on with
      | Some f -> f
      | None ->
        if strict || prove then Sage_analysis.Analyzer.Fail_error
        else Sage_analysis.Analyzer.Fail_never
    in
    Sage_analysis.Analyzer.exit_code_on ~fail_on diagnostics
  in
  let doc =
    "Run the pipeline and report the static-analysis findings over the \
     generated code: definite-assignment/field coverage against the \
     recovered packet layout (the paper's under-specification failure \
     mode), dead stores and unreachable code, constant-width/overflow \
     checks, checksum ordering, and the abstract-interpretation proof \
     layer — packet-bounds safety (SA007), value ranges (SA008), \
     statically decided branches (SA009), checksum-window coverage \
     (SA010), FSM wedge states (SA011) and interp/compiled slot-layout \
     consistency (SA012).  Findings carry stable SA0xx codes, statement \
     ids and, where recoverable, the specification sentence involved; \
     JSON output is sorted and byte-identical across $(b,--jobs)."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg $ cache_arg
          $ strict_arg $ fail_on_arg $ prove_arg
          $ seeded_wedge_arg $ seeded_divergence_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* sage ambiguities                                                    *)
(* ------------------------------------------------------------------ *)

let ambiguities_cmd =
  let run corpus verbose jobs =
    setup_logs verbose;
    let result = run_pipeline ~jobs corpus in
    let ambiguous = P.ambiguous_sentences result in
    let zero = P.zero_lf_sentences result in
    if ambiguous = [] && zero = [] then begin
      Printf.printf
        "no ambiguities: every sentence parses to exactly one logical form\n";
      0
    end
    else begin
      if ambiguous <> [] then begin
        Printf.printf
          "sentences with MULTIPLE logical forms after winnowing (rewrite\n\
           them; the surviving LFs below show where the ambiguity lies):\n\n";
        List.iter
          (fun r ->
            Printf.printf "* %s\n" r.P.sentence;
            (match r.P.status with
             | P.Ambiguous lfs ->
               List.iter
                 (fun lf -> Printf.printf "    %s\n" (Lf.to_string lf))
                 lfs
             | _ -> ());
            print_newline ())
          ambiguous
      end;
      if zero <> [] then begin
        Printf.printf "sentences with ZERO logical forms (rewrite them):\n\n";
        List.iter (fun r -> Printf.printf "* %s\n\n" r.P.sentence) zero
      end;
      1
    end
  in
  let doc =
    "List the sentences a human must rewrite (the Figure 4 feedback loop): \
     those with more than one logical form after winnowing, and those with \
     none."
  in
  Cmd.v
    (Cmd.info "ambiguities" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* execution backend selection (interop / fuzz / chaos)                *)
(* ------------------------------------------------------------------ *)

let backend_conv =
  let parse s =
    match Sage_backend.Backend.choice_of_string s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown backend %S (choose from %s)" s
              (String.concat ", "
                 (List.map Sage_backend.Backend.choice_name
                    Sage_backend.Backend.all_choices))))
  in
  Arg.conv
    (parse, fun ppf c -> Fmt.string ppf (Sage_backend.Backend.choice_name c))

let backend_arg =
  let doc =
    "Execution backend for the generated IR: $(b,interp) (the tree-walk \
     interpreter) or $(b,compiled) (bodies compiled to closures at load \
     time; fuzz runs additionally check every iteration against the \
     interpreter through the backend-agreement oracle)."
  in
  Arg.(value
       & opt backend_conv Sage_backend.Backend.Interp
       & info [ "backend" ] ~docv:"NAME" ~doc)

(* ------------------------------------------------------------------ *)
(* sage interop                                                        *)
(* ------------------------------------------------------------------ *)

let interop_cmd =
  let run verbose rewritten backend fault_seed fault_plan trace_file
      trace_format trace_clock =
    setup_logs verbose;
    let faults =
      match fault_plan with
      | None -> None
      | Some spec -> (
        match Sage_sim.Faults.plan_of_string spec with
        | Ok plan ->
          Some (Sage_sim.Faults.create ~plan ~seed:fault_seed ())
        | Error e ->
          Printf.eprintf "bad --fault-plan: %s\n" e;
          exit 2)
    in
    let under_faults = Option.is_some faults in
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let result =
      run_pipeline ?trace (Option.get (Corpora.lookup Corpora.Icmp ~rewritten))
    in
    let stack = Sage_sim.Generated_stack.of_run ?trace ~backend result in
    let service = Sage_sim.Icmp_service.generated stack in
    let net = Sage_sim.Network.default_topology ~service ?faults ?trace () in
    let target = Sage_sim.Network.server1_addr net in
    let ping_res = Sage_sim.Ping.ping ~net target in
    Printf.printf "ping %s: %s (%d/%d replies)\n"
      (Sage_net.Addr.to_string target)
      (if Sage_sim.Ping.success ping_res then "ok"
       else if under_faults then "degraded"
       else "FAILED")
      ping_res.Sage_sim.Ping.received ping_res.Sage_sim.Ping.sent;
    if under_faults then
      Printf.printf "  %d packets transmitted, %d received, %.0f%% packet loss\n"
        ping_res.Sage_sim.Ping.sent ping_res.Sage_sim.Ping.received
        (Sage_sim.Ping.loss_rate ping_res);
    List.iter
      (fun c ->
        match c with
        | Sage_sim.Ping.Ok_reply -> ()
        | Sage_sim.Ping.No_reply r -> Printf.printf "  no reply: %s\n" r
        | Sage_sim.Ping.Bad_reply fs ->
          List.iter
            (fun f -> Printf.printf "  FAIL: %s\n" (Sage_sim.Ping.failure_label f))
            fs)
      ping_res.Sage_sim.Ping.checks;
    let tr = Sage_sim.Traceroute.traceroute ~net target in
    Printf.printf "traceroute %s: %s\n"
      (Sage_net.Addr.to_string target)
      (if tr.Sage_sim.Traceroute.reached then "reached" else "FAILED");
    List.iter
      (fun (h : Sage_sim.Traceroute.hop) ->
        Printf.printf "  %2d  %-16s icmp type %s  quote %s\n"
          h.Sage_sim.Traceroute.ttl
          (match h.Sage_sim.Traceroute.responder with
           | Some a -> Sage_net.Addr.to_string a
           | None -> "*")
          (match h.Sage_sim.Traceroute.response_type with
           | Some t -> string_of_int t
           | None -> "-")
          (if h.Sage_sim.Traceroute.quoted_probe_ok then "ok" else "BAD"))
      tr.Sage_sim.Traceroute.hops;
    if under_faults then
      Printf.printf "  %d probes unanswered, %.0f%% probe loss\n"
        (Sage_sim.Traceroute.lost_probes tr)
        (Sage_sim.Traceroute.loss_rate tr);
    (* under injected faults, loss is expected: report statistics and
       exit 0; the strict pass/fail verdict applies to clean runs only *)
    if under_faults then 0
    else if Sage_sim.Ping.success ping_res && tr.Sage_sim.Traceroute.reached
    then 0
    else 1
  in
  let fault_seed_arg =
    let doc = "Seed for the deterministic fault-injection PRNG." in
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc)
  in
  let fault_plan_arg =
    let doc =
      "Inject faults into the simulated wire.  Comma-separated rules of the \
       form $(i,KIND[:ARGS]\\@PROBABILITY), e.g. \
       'drop\\@0.1,dup\\@0.05,delay:3\\@0.2,corrupt:8:0x04\\@0.02,\
       truncate:20\\@0.1,reorder\\@0.1'.  Runs are reproducible for a fixed \
       $(b,--fault-seed)."
    in
    Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)
  in
  let doc =
    "Run ping and traceroute against the SAGE-generated ICMP implementation \
     in the simulated network (the paper's 6.2 experiment), optionally \
     through a seeded fault-injection plan."
  in
  Cmd.v (Cmd.info "interop" ~doc)
    Term.(const run $ verbose_arg $ rewritten_arg $ backend_arg
          $ fault_seed_arg $ fault_plan_arg $ trace_arg $ trace_format_arg
          $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage corpus                                                         *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let run (corpus : Corpora.t) verbose =
    setup_logs verbose;
    let doc = Sage_rfc.Document.parse ~title:corpus.title corpus.text in
    Fmt.pr "%a@." Sage_rfc.Document.pp doc;
    List.iter
      (fun (s : Sage_rfc.Document.section) ->
        match s.Sage_rfc.Document.diagram with
        | Some d ->
          Printf.printf "\n%s\n" (Sage_rfc.Header_diagram.to_c_struct d)
        | None -> ())
      doc.Sage_rfc.Document.sections;
    0
  in
  let doc = "Show the pre-processed document structure and recovered structs." in
  Cmd.v
    (Cmd.info "corpus" ~doc)
    Term.(const run $ corpus_term $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* sage reqs                                                           *)
(* ------------------------------------------------------------------ *)

let reqs_cmd =
  let format_arg =
    let doc = "Output format: $(b,text) (default) or $(b,json)." in
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let corpus_arg =
    let doc =
      "Mine every corpus (all 8, including the rewritten variants) and \
       print a per-corpus summary table instead of one protocol's \
       requirement list."
    in
    Arg.(value & flag & info [ "corpus" ] ~doc)
  in
  let run corpus verbose jobs cache_cap all_corpora format =
    setup_logs verbose;
    if all_corpora then begin
      Printf.printf "%-8s  %5s  %8s  %9s\n" "corpus" "mined" "compiled"
        "checkable";
      List.iter
        (fun (c : Corpora.t) ->
          let result = run_pipeline ~jobs ?cache_cap c in
          let mined, compiled, checkable =
            Sage_reqs.Render.summary_counts result.P.requirements
          in
          Printf.printf "%-8s  %5d  %8d  %9d\n" c.name mined compiled
            checkable)
        Corpora.all;
      0
    end
    else begin
      let result = run_pipeline ~jobs ?cache_cap corpus in
      let protocol = result.P.spec.P.protocol in
      (match format with
       | `Text ->
         print_string
           (Sage_reqs.Render.text ~protocol result.P.requirements)
       | `Json ->
         print_string
           (Sage_reqs.Render.json ~protocol result.P.requirements));
      0
    end
  in
  let doc =
    "Mine the RFC 2119 requirement sentences (MUST / MUST NOT / SHALL / \
     SHOULD) from a corpus and show which compiled into executable \
     rules: a guard over the decoded packet, session state and \
     environment plus an obligation over the execution outcome \
     (discard, transmission, procedure calls, state clearing, checksum \
     validity), anchored to the generated functions via sentence \
     provenance.  Checkable requirements are enforced by \
     $(b,sage fuzz --check-reqs) and $(b,sage chaos --check-reqs).  \
     Output is deterministic: byte-identical across $(b,--jobs) values \
     and cache states."
  in
  Cmd.v (Cmd.info "reqs" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg $ cache_arg
          $ corpus_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* sage fuzz                                                           *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let seed_arg =
    let doc = "PRNG seed: the same seed reproduces the identical run." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let iters_arg =
    let doc = "Number of fuzz iterations." in
    Arg.(value & opt int 2000 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let coverage_out_arg =
    let doc = "Write per-function IR statement coverage as JSON to $(docv)." in
    Arg.(value
         & opt (some string) None
         & info [ "coverage-out" ] ~docv:"FILE" ~doc)
  in
  let seeded_bug_arg =
    let doc =
      "Tamper the generated IR with a known checksum bug before fuzzing \
       (oracle-suite self-test: the run must report exactly one finding)."
    in
    Arg.(value & flag & info [ "seeded-bug" ] ~doc)
  in
  let check_proofs_arg =
    let doc =
      "Cross-validate the static SA007 bounds proofs: run the analyzer \
       first and assert no never-raise finding ever fires on a proved \
       function.  A violation means the static proof layer is unsound."
    in
    Arg.(value & flag & info [ "check-proofs" ] ~doc)
  in
  let seeded_divergence_arg =
    let doc =
      "Deliberately mis-compile one function's checksum assignment in the \
       compiled backend (differential-oracle self-test: the run must report \
       exactly one backend-agreement finding).  Implies \
       $(b,--backend compiled)."
    in
    Arg.(value & flag & info [ "seeded-divergence" ] ~doc)
  in
  let check_reqs_arg =
    let doc =
      "Enforce the mined RFC 2119 requirements (see $(b,sage reqs)) as a \
       seventh oracle: a checkable requirement whose guard holds on the \
       input must see its obligation met by the outcome, or the run \
       reports a finding carrying the RQ id and source sentence."
    in
    Arg.(value & flag & info [ "check-reqs" ] ~doc)
  in
  let seeded_violation_arg =
    let doc =
      "Tamper the generated IR by deleting the guarded discard statements \
       from one BFD function before fuzzing (requirement-oracle \
       self-test: the run must report exactly one requirement finding \
       with its RQ id, source sentence and a shrunk witness packet).  \
       Implies $(b,--check-reqs)."
    in
    Arg.(value & flag & info [ "seeded-violation" ] ~doc)
  in
  let run corpus verbose jobs backend seed iters seeded_bug
      seeded_divergence check_proofs check_reqs seeded_violation coverage_out
      stats trace_file trace_format trace_clock =
    setup_logs verbose;
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let check_reqs = check_reqs || seeded_violation in
    let result = run_pipeline ~jobs ?trace corpus in
    let funcs = result.P.codegen.P.functions in
    let funcs =
      if seeded_bug then
        Sage_fuzz.Seeded_bug.tamper_checksum
          ~fn:Sage_fuzz.Seeded_bug.default_target funcs
      else funcs
    in
    let funcs =
      if seeded_violation then begin
        if
          not
            (List.exists
               (fun (f : Sage_codegen.Ir.func) ->
                 f.Sage_codegen.Ir.fn_name
                 = Sage_reqs.Seeded_violation.default_target)
               funcs)
        then begin
          Printf.eprintf
            "--seeded-violation targets %s; run it on the %s corpus (-p %s)\n"
            Sage_reqs.Seeded_violation.default_target
            Sage_reqs.Seeded_violation.default_protocol
            Sage_reqs.Seeded_violation.default_protocol;
          exit 2
        end;
        Sage_reqs.Seeded_violation.tamper_discards
          ~fn:Sage_reqs.Seeded_violation.default_target funcs
      end
      else funcs
    in
    let proved =
      (* static pass over the very functions being fuzzed (tampering
         included), so a proof the fuzzer then refutes is always the
         analyzer's fault *)
      if check_proofs then
        let diags =
          Sage_analysis.Analyzer.analyze_program
            ~struct_of_function:result.P.codegen.P.struct_of_function funcs
        in
        Sage_analysis.Analyzer.proved_functions diags funcs
      else []
    in
    let targets =
      List.filter_map
        (fun (f : Sage_codegen.Ir.func) ->
          Option.map
            (fun sd -> (f, sd))
            (List.assoc_opt f.Sage_codegen.Ir.fn_name
               result.P.codegen.P.struct_of_function))
        funcs
    in
    let backend =
      if seeded_divergence then Sage_backend.Backend.Compiled else backend
    in
    let divergence =
      if seeded_divergence then
        Some Sage_backend.Seeded_divergence.default_target
      else None
    in
    let reqs = if check_reqs then result.P.requirements else [] in
    let fz =
      Sage_fuzz.Engine.run ?trace ~metrics:result.P.metrics ~backend
        ?divergence ~proved ~reqs ~seed ~iters
        ~protocol:result.P.spec.P.protocol targets
    in
    print_string (Sage_fuzz.Engine.summary fz);
    (match coverage_out with
     | None -> ()
     | Some file ->
       let oc = open_out file in
       output_string oc
         (Sage_interp.Coverage.to_json fz.Sage_fuzz.Engine.coverage
            fz.Sage_fuzz.Engine.funcs);
       close_out oc);
    if stats then begin
      print_newline ();
      print_string (Sage.Report.stats result)
    end;
    if fz.Sage_fuzz.Engine.findings = [] then 0 else 1
  in
  let doc =
    "Fuzz the generated code under the interpreter: grammar-based packets \
     from the recovered layouts, IR statement coverage guidance, and a \
     differential oracle suite (reference decoders, round-trip identity, \
     checksum verification).  Deterministic for a fixed seed; exits \
     nonzero when any oracle finding is reported."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg $ backend_arg
          $ seed_arg $ iters_arg $ seeded_bug_arg
          $ seeded_divergence_arg $ check_proofs_arg $ check_reqs_arg
          $ seeded_violation_arg $ coverage_out_arg $ stats_arg $ trace_arg
          $ trace_format_arg $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* sage chaos                                                          *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let chaos_corpus_conv =
    let parse s =
      match Corpora.find s with
      | Some c -> Ok c
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown corpus %S (choose from %s)" s
                (String.concat ", "
                   (List.map (fun c -> c.Corpora.name) Corpora.all))))
    in
    Arg.conv (parse, fun ppf c -> Fmt.string ppf c.Corpora.name)
  in
  let corpus_arg =
    let doc =
      "Restrict the campaign to this corpus (repeatable; default: all 8)."
    in
    Arg.(value & opt_all chaos_corpus_conv [] & info [ "corpus" ] ~docv:"NAME" ~doc)
  in
  let scenario_conv =
    let parse s =
      match Sage_chaos.Scenario.find s with
      | Some _ -> Ok s
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S (built-ins: %s)" s
                (String.concat ", " Sage_chaos.Scenario.names)))
    in
    Arg.conv (parse, Fmt.string)
  in
  let scenario_arg =
    let doc =
      "Run a single built-in scenario instead of all of them: $(b,flaky), \
       $(b,partition), $(b,outage) or $(b,blackout)."
    in
    Arg.(value & opt (some scenario_conv) None
         & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let schedule_conv =
    (* accepts an inline schedule or a file containing one; the episode
       grammar embeds the --fault-plan rule grammar in storm(...) *)
    let parse s =
      let spec =
        if Sys.file_exists s && not (Sys.is_directory s) then (
          let ic = open_in_bin s in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> String.trim (really_input_string ic (in_channel_length ic))))
        else s
      in
      match Sage_chaos.Episode.of_string spec with
      | Ok sched -> Ok sched
      | Error e -> Error (`Msg e)
    in
    let print ppf s = Fmt.string ppf (Sage_chaos.Episode.to_string s) in
    Arg.conv (parse, print)
  in
  let schedule_arg =
    let doc =
      "Run a custom schedule instead of the built-in scenarios: either an \
       inline spec or a file containing one.  Grammar: episodes separated \
       by $(b,;), each $(b,partition:N), $(b,crash:N), $(b,heal:N) or \
       $(b,storm(PLAN):N) where PLAN is the $(b,--fault-plan) grammar; the \
       schedule must end with a heal episode."
    in
    Arg.(value & opt (some schedule_conv) None
         & info [ "schedule" ] ~docv:"SPEC|FILE" ~doc)
  in
  let soak_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "--soak must be >= 0, got %d" n))
      | None -> Error (`Msg (Printf.sprintf "bad --soak value %S" s))
    in
    Arg.conv (parse, Fmt.int)
  in
  let soak_arg =
    let doc = "Stretch every schedule's final heal window by $(docv) ticks." in
    Arg.(value & opt soak_conv 0 & info [ "soak" ] ~docv:"TICKS" ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed: the same seed reproduces the identical run." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let wedge_arg =
    let doc =
      "Arm the seeded no-recovery fixture (restart handlers die after the \
       first crash) — oracle self-test: scenarios with a crash episode must \
       fail and the run exits 1 with a shrunk minimal schedule."
    in
    Arg.(value & flag & info [ "seeded-wedge" ] ~doc)
  in
  let check_reqs_arg =
    let doc =
      "Assert the mined RFC 2119 requirements (see $(b,sage reqs)) on \
       every generated-function execution during the campaign: a \
       requirement violated mid-chaos is a case violation carrying the \
       RQ id and source sentence."
    in
    Arg.(value & flag & info [ "check-reqs" ] ~doc)
  in
  let run verbose jobs backend seed scenario schedule soak wedge check_reqs
      corpora_sel stats trace_file trace_format trace_clock =
    setup_logs verbose;
    if scenario <> None && schedule <> None then
      `Error (true, "--scenario and --schedule cannot be combined")
    else
      `Ok
        (with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
         let selected = if corpora_sel = [] then Corpora.all else corpora_sel in
         (* one pipeline run per distinct backing corpus, shared across
            the corpora it backs *)
         let runs : (string, P.run) Hashtbl.t = Hashtbl.create 8 in
         let pipeline_of (c : Corpora.t) =
           match Hashtbl.find_opt runs c.name with
           | Some r -> r
           | None ->
             let r = run_pipeline ~jobs ?trace c in
             Hashtbl.replace runs c.name r;
             r
         in
         let corpora =
           List.map
             (fun (c : Corpora.t) ->
               { Sage_chaos.Campaign.corpus = c.name;
                 generated_run =
                   lazy (pipeline_of (Corpora.generated_backing c)) })
             selected
         in
         let scenarios =
           match (scenario, schedule) with
           | Some s, _ -> [ (s, Option.get (Sage_chaos.Scenario.find s)) ]
           | None, Some sched -> [ ("schedule", sched) ]
           | None, None -> Sage_chaos.Scenario.builtins
         in
         let metrics = Sage_sched.Metrics.create () in
         let campaign =
           Sage_chaos.Campaign.run ?trace ~metrics ~backend ~soak ~wedge
             ~check_reqs ~seed ~scenarios ~corpora ()
         in
         print_string (Sage_chaos.Campaign.summary campaign);
         if stats then begin
           print_newline ();
           print_string (Sage_sched.Metrics.summary metrics)
         end;
         Sage_chaos.Campaign.exit_code campaign)
  in
  let doc =
    "Run chaos campaigns against the reference and generated stacks: timed \
     schedules of partitions, fault storms and crash/restart episodes over \
     the simulated network, with RFC-derived recovery oracles checked in \
     the final heal window (BFD detection-time reconvergence, ping and \
     traceroute recovery, IGMP report reconvergence, NTP reachability, FSM \
     re-establishment, and a generic no-silent-wedge check).  Deterministic \
     for a fixed seed; exits 1 with a shrunk minimal schedule when any \
     oracle is violated."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(ret
            (const run $ verbose_arg $ jobs_arg $ backend_arg $ seed_arg
             $ scenario_arg $ schedule_arg $ soak_arg $ wedge_arg
             $ check_reqs_arg $ corpus_arg $ stats_arg $ trace_arg
             $ trace_format_arg $ trace_clock_arg))

(* ------------------------------------------------------------------ *)
(* sage report                                                         *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run corpus verbose jobs cache_cap stats analyze fail_on trace_file
      trace_format trace_clock =
    setup_logs verbose;
    with_trace ~clock:trace_clock trace_file trace_format @@ fun trace ->
    let result = run_pipeline ~jobs ?cache_cap ?trace corpus in
    print_string (Sage.Report.markdown result);
    if stats then begin
      print_newline ();
      print_string (Sage.Report.stats result)
    end;
    (* the markdown already carries the findings; --analyze/--fail-on
       here only select the exit policy *)
    analysis_exit ?fail_on analyze result
  in
  let doc =
    "Produce the markdown report a spec author reads in the feedback loop: \
     summary, rewrite worklist, non-actionable sentences, static-analysis \
     findings, generated functions and recovered layouts."
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run $ corpus_term $ verbose_arg $ jobs_arg $ cache_arg
          $ stats_arg $ analyze_arg $ fail_on_arg $ trace_arg
          $ trace_format_arg $ trace_clock_arg)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "SAGE: semi-automated protocol disambiguation and code generation \
     (reproduction of Yen et al., SIGCOMM 2021)"
  in
  let info = Cmd.info "sage" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      parse_cmd; derivation_cmd; run_cmd; code_cmd; analyze_cmd;
      ambiguities_cmd; interop_cmd; corpus_cmd; reqs_cmd; fuzz_cmd;
      chaos_cmd; report_cmd;
    ]

(* exit 2 on CLI usage errors (unknown flags, malformed values) — the
   cmdliner default (124) reads like a timeout in CI logs *)
let () =
  match Cmd.eval_value main_cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
