(** The SAGE pipeline (paper Figure 1): RFC text → pre-processing →
    semantic parsing → disambiguation → code generation, with the paper's
    two human-in-the-loop feedback points — rewriting truly ambiguous
    sentences (Figure 4) and confirming non-actionable sentences (§5.2).

    A {!run} captures everything the evaluation needs: per-sentence parse
    and winnow traces (Figures 5/6, Tables 6/8), the generated functions
    and structs (§6.2), and the discovered non-actionable sentences. *)

type spec = {
  protocol : string;
  lexicon : Sage_ccg.Lexicon.t;
  dictionary : Sage_nlp.Term_dictionary.t;
  extra_checks : Sage_disambig.Checks.check list;
  annotated_non_actionable : string list;
      (** sentence prefixes a human marked non-actionable *)
}

val icmp_spec : unit -> spec
val igmp_spec : unit -> spec
val ntp_spec : unit -> spec
val bfd_spec : unit -> spec

val bgp_spec : unit -> spec
(** The second §7 teaser: BGP's OPEN header and FSM prose ("the state is
    changed to Connect") parse with modest lexicon extensions. *)

val tcp_spec : unit -> spec
(** The §7 extension teaser: TCP's header format and simple constraints
    parse with the BFD-level lexicon; the state-machine prose measures
    what "complex state management" support still requires. *)

type status =
  | Annotated_non_actionable
      (** human-annotated before the run; tagged @AdvComment *)
  | Zero_lf
      (** no parse, even after supplying the field as subject — needs a
          human rewrite *)
  | Ambiguous of Sage_logic.Lf.t list
      (** more than one LF survives winnowing — needs a human rewrite *)
  | Parsed of Sage_logic.Lf.t
  | Subject_supplied of Sage_logic.Lf.t
      (** parsed only after the pre-processor supplied the field name as
          the missing subject (paper §4.1) *)
  | Crashed of string
      (** analysing this sentence raised an exception; the crash is
          confined to this report and the rest of the run completes *)

type sentence_report = {
  sentence : string;
  message : string option;
  field : string option;
  base_lf_count : int;        (** LFs before winnowing *)
  trace : Sage_disambig.Winnow.trace option;
  status : status;
}

type codegen_report = {
  functions : Sage_codegen.Ir.func list;
  structs : Sage_rfc.Header_diagram.t list;
  struct_of_function : (string * Sage_rfc.Header_diagram.t) list;
      (** generated function name → the header layout it operates on *)
  non_actionable : (string * string) list;
      (** (sentence, codegen failure reason) — discovered iteratively *)
  c_code : string;
}

type run = {
  spec : spec;
  document : Sage_rfc.Document.t;
  sentences : sentence_report list;
  codegen : codegen_report;
  diagnostics : Sage_analysis.Diagnostic.t list;
      (** sorted findings of the static-analysis pass over the generated
          functions (field coverage, dead code, width/overflow), with
          per-sentence provenance where a finding traces back to a
          specific specification sentence *)
  requirements : Sage_reqs.Req.t list;
      (** RFC 2119 requirement sentences mined from the document
          (RQ001... in document order), compiled to checkable rules
          where their logical forms lower, and anchored to the
          generated functions via statement provenance *)
  metrics : Sage_sched.Metrics.t;
      (** stage wall times and counters collected during the run (always
          populated; pass [?metrics] to {!run_document} to accumulate
          several runs into one record) *)
}

val analyze_sentence :
  spec ->
  ?message:string ->
  ?field:string ->
  ?cache:Chart_cache.t ->
  ?metrics:Sage_sched.Metrics.t ->
  ?trace:Sage_trace.Trace.t ->
  string ->
  sentence_report
(** Parse and winnow one sentence (with subject-supply retry for field
    descriptions).  [cache] memoizes the CCG chart on the post-chunking
    token sequence; [metrics] accumulates stage times ("chunk", "parse",
    "winnow") and counters.  [trace] wraps the analysis in a
    ["sentence"] span whose Begin event carries provenance (clipped
    sentence text, message, field) and whose End event carries the
    outcome (status, LF count before winnowing), with ["winnow"]
    instants recording LF counts before/after each winnow pass. *)

val run : spec -> title:string -> text:string -> run
(** The full pipeline over an RFC document, sequentially:
    [run_document ~jobs:1]. *)

val run_document :
  ?jobs:int ->
  ?cache:Chart_cache.t ->
  ?metrics:Sage_sched.Metrics.t ->
  ?trace:Sage_trace.Trace.t ->
  spec ->
  title:string ->
  text:string ->
  run
(** The full pipeline with an explicit execution policy.  [jobs] (default
    [1]) is the number of workers the sentence-analysis phase may use;
    when OCaml 5 domains are unavailable the run silently degrades to
    sequential.  The output is {e deterministic}: for a given input it is
    byte-identical whatever [jobs] is and whether or not [cache] is warm
    (timings in [metrics] of course vary).  [cache] may be shared across
    runs and protocols; [metrics] defaults to a fresh record, returned in
    the [run].

    [trace] records the run as structured events: a ["document"] span
    enclosing ["phase:prepass"] / ["phase:analysis"] /
    ["phase:codegen"] / ["phase:render"] / ["phase:static-analysis"]
    spans, per-worker ["worker-N"] spans inside the analysis phase, one
    ["sentence"] span per analysed sentence (see {!analyze_sentence}),
    cache hit/miss instants, one ["diagnostic"] instant per
    static-analysis finding and final sentence/function/diagnostic
    counters.  Tracing never changes the run's output — with [trace]
    absent every emission helper is a no-op. *)

val ambiguous_sentences : run -> sentence_report list
val zero_lf_sentences : run -> sentence_report list
val parsed_sentences : run -> sentence_report list

val crashed_sentences : run -> sentence_report list
(** Sentences whose analysis raised (status {!Crashed}); non-empty means
    the run degraded gracefully rather than aborting. *)

val find_function : run -> string -> Sage_codegen.Ir.func option
(** Look up a generated function by name. *)
