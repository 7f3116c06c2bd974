(** JSON string literals, shared by every JSON emitter in the tree
    (trace events, static-analysis findings, mined requirements, fuzz
    coverage) so they all escape alike: double quote, backslash,
    newline, carriage return and tab in their two-character short
    forms, every other control character as a [\u00XX] escape, all
    other bytes verbatim. *)

val add_string : Buffer.t -> string -> unit
(** Append the quoted, escaped literal for a string. *)

val string : string -> string
(** The quoted, escaped literal for a string. *)
