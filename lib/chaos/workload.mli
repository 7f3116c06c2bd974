(** One protocol conversation under chaos, per corpus and per stack.

    A workload binds a corpus to concrete traffic over the fault-injected
    simulator: ICMP runs ping/traceroute against the router service
    ({!Sage_sim.Icmp_service}), IGMP a query/report cycle against the
    snooping switch, NTP a poll loop feeding the RFC 5905 reachability
    register, BFD the persistent {!Sage_sim.Bfd_link}, TCP a
    segment-echo through the generated header-validation rules, and BGP
    the ManualStart FSM re-establishment.  The [Generated] stack drives
    SAGE-generated functions through the interpreter; [Reference] drives
    the hand-written implementations — the chaos analogue of the paper's
    two-sided interoperation runs (§6.2). *)

type stack = Reference | Generated

val stack_name : stack -> string

type t = {
  name : string;
  step : healed:bool -> unit;
      (** one campaign tick of traffic; [healed] marks ticks inside the
          schedule's final heal window, where the oracles observe *)
  set_plan : Sage_sim.Faults.plan -> unit;
      (** swap the wire's fault regime (episode boundary) *)
  crash : unit -> unit;  (** kill the serving node *)
  restart : unit -> unit;  (** respawn it (fresh protocol state) *)
  check : heal_ticks:int -> Oracle.violation list;
      (** evaluate the recovery oracles after the schedule has run *)
  fsm_state : unit -> (string * int64) option;
      (** the live FSM state-variable binding of a generated stack that
          has one ([("bfd.SessionState", v)] / [("bgp.State", v)]),
          [None] otherwise.  The campaign uses it to cross-validate a
          dynamic wedge against the static SA011 model: a stack stuck
          in a state the static analyzer cannot even enter is a
          static/dynamic disagreement. *)
}

val for_corpus :
  corpus:string ->
  stack:stack ->
  run:Sage.Pipeline.run Lazy.t ->
  ?trace:Sage_trace.Trace.t ->
  ?backend:Sage_backend.Backend.choice ->
  ?observer:Sage_sim.Generated_stack.observer ->
  seed:int ->
  unit ->
  (t, string) result
(** Build the workload for a {!Sage.Corpora} name; [Error] for a name
    the registry does not hold.  [run] backs the generated stack and is
    only forced for [Generated]; for the ambiguous original texts (icmp,
    bfd) callers pass the run of {!Sage.Corpora.generated_backing} —
    the original texts' interoperation failures are the fuzz/interop
    tiers' subject, chaos asserts recovery of functioning stacks.
    [observer] is handed to the generated stack, seeing every
    generated-function execution the workload performs (the campaign's
    requirement-assertion hook); reference-stack workloads never invoke
    it. *)
