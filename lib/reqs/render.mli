(** Deterministic text and JSON renderers for mined requirements, shared
    by [sage reqs] and the markdown report.  Byte-identical for a given
    requirement list — ids are assigned in document order, so output
    does not depend on --jobs. *)

val summary_counts : Req.t list -> int * int * int
(** (mined, compiled, checkable). *)

val text : protocol:string -> Req.t list -> string

val json : protocol:string -> Req.t list -> string
(** Stable field order; sorted by construction (document order). *)
