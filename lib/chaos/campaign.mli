(** The chaos campaign runner: every (corpus x stack x scenario) case,
    deterministically, with oracle evaluation over the final heal window
    and schedule minimization on the first failure.

    Determinism: each case derives its own seed from the campaign seed
    and the case name; all randomness inside a case flows from the
    splitmix64 streams of its {!Sage_sim.Faults} wires.  Two runs with
    the same seed, scenarios and corpora produce byte-identical
    {!summary} output. *)

type corpus_case = {
  corpus : string;  (** a {!Sage.Corpora} name *)
  generated_run : Sage.Pipeline.run Lazy.t;
      (** pipeline run backing the generated stack; only forced for
          generated-stack cases (see {!Workload.for_corpus}) *)
}

type case_result = {
  corpus : string;
  stack : Workload.stack;
  scenario : string;
  schedule : Episode.schedule;  (** as run, soak included *)
  violations : Oracle.violation list;
}

type shrunk = {
  case : string;  (** "corpus/stack/scenario" *)
  kind : Oracle.kind;  (** the oracle the minimization preserved *)
  detail : string;
  schedule : Episode.schedule;  (** the minimal still-failing schedule *)
  steps : int;  (** shrink steps taken *)
}

type t = {
  seed : int;
  soak : int;
  results : case_result list;
  shrunk : shrunk option;  (** first failing case, minimized *)
}

val run :
  ?trace:Sage_trace.Trace.t ->
  ?metrics:Sage_sched.Metrics.t ->
  ?backend:Sage_backend.Backend.choice ->
  ?soak:int ->
  ?wedge:bool ->
  ?check_reqs:bool ->
  seed:int ->
  scenarios:(string * Episode.schedule) list ->
  corpora:corpus_case list ->
  unit ->
  t
(** [backend] selects the execution backend for generated stacks
    (default: the interpreter).  [soak] stretches every schedule's
    final heal window by that many ticks.  [wedge] arms the {!Seeded_wedge} no-recovery fixture on
    every workload.  [check_reqs] asserts the mined checkable RFC 2119
    requirements (see {!Sage_reqs.Extract.mine}) on every
    generated-function execution a case performs; a violation is a
    case violation of kind {!Oracle.Requirement} carrying the RQ id
    and source sentence, deduplicated per RQ id within a case.
    [metrics] receives the [chaos.*] counters
    ([chaos.cases], [chaos.ticks], [chaos.episodes], [chaos.violations],
    [chaos.req_violations], [chaos.shrink_steps]) that
    {!Sage.Report.stats} surfaces.  [trace]
    records ["chaos-case"] and ["chaos-episode"] instants (category
    ["chaos"]); shrink re-runs are untraced. *)

val run_schedule :
  ?trace:Sage_trace.Trace.t ->
  workload:Workload.t ->
  Episode.schedule ->
  Oracle.violation list
(** Interpret one schedule against one workload and evaluate its
    oracles.  Exposed for tests and for the shrinker. *)

val failed : t -> bool
val exit_code : t -> int
(** 1 when any case violated an oracle, else 0. *)

val summary : t -> string
(** Deterministic multi-line report: one line per case, totals, and the
    shrunk first failure if any. *)

val case_label : case_result -> string
