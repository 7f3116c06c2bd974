(** The registry of specification corpora the pipeline runs on: the
    paper's ICMP, IGMP, NTP and BFD texts (§5-6), the human-rewritten
    ICMP and BFD texts (§6.5), and the TCP and BGP teasers (§7).  Every
    consumer — the CLI, chaos campaigns, the evaluation harness and the
    tests — takes the corpus set, and which text backs a generated
    stack, from here.  Building the registry does no work: specs are
    constructed only when an entry's [spec] is called. *)

type protocol = Icmp | Igmp | Ntp | Bfd | Tcp | Bgp

type t = {
  name : string;
      (** CLI spelling: the protocol name ("icmp"), with a "-rw" suffix
          for the rewritten (disambiguated) text ("icmp-rw") *)
  protocol : protocol;
  rewritten : bool;
  spec : unit -> Pipeline.spec;
  title : string;
  text : string;
}

val all : t list
(** The eight corpora, in evaluation order: icmp, icmp-rw, igmp, ntp,
    bfd, bfd-rw, tcp, bgp. *)

val find : string -> t option
(** Look a corpus up by its CLI name. *)

val lookup : protocol -> rewritten:bool -> t option
(** The original or rewritten text of a protocol; [None] when
    [rewritten] is asked of a protocol that has no rewrite. *)

val protocol_name : protocol -> string
(** The protocol's CLI spelling: the name of its original corpus. *)

val generated_backing : t -> t
(** The corpus whose generated stack stands in for [t] when the stack
    must interoperate: the ambiguous original texts (icmp, bfd) do not
    (§6.5), so they are backed by their rewrites; every other corpus
    backs itself. *)

val run :
  ?jobs:int ->
  ?cache:Chart_cache.t ->
  ?metrics:Sage_sched.Metrics.t ->
  ?trace:Sage_trace.Trace.t ->
  t ->
  Pipeline.run
(** {!Pipeline.run_document} over the corpus's own spec, title and
    text. *)
