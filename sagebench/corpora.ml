(* The eight specification corpora, spelled as the CLI spells them: the
   "-rw" suffix marks the rewritten (disambiguated) text. *)

module P = Sage.Pipeline

type t = {
  name : string;
  spec : unit -> P.spec;
  title : string;
  text : string;
}

let all =
  [
    { name = "icmp"; spec = P.icmp_spec; title = Sage_corpus.Icmp_rfc.title;
      text = Sage_corpus.Icmp_rfc.text };
    { name = "icmp-rw"; spec = P.icmp_spec; title = Sage_corpus.Icmp_rfc.title;
      text = Sage_corpus.Icmp_rfc.rewritten_text };
    { name = "igmp"; spec = P.igmp_spec; title = Sage_corpus.Igmp_rfc.title;
      text = Sage_corpus.Igmp_rfc.text };
    { name = "ntp"; spec = P.ntp_spec; title = Sage_corpus.Ntp_rfc.title;
      text = Sage_corpus.Ntp_rfc.text };
    { name = "bfd"; spec = P.bfd_spec; title = Sage_corpus.Bfd_rfc.title;
      text = Sage_corpus.Bfd_rfc.text };
    { name = "bfd-rw"; spec = P.bfd_spec; title = Sage_corpus.Bfd_rfc.title;
      text = Sage_corpus.Bfd_rfc.rewritten_text };
    { name = "tcp"; spec = P.tcp_spec; title = Sage_corpus.Tcp_rfc.title;
      text = Sage_corpus.Tcp_rfc.text };
    { name = "bgp"; spec = P.bgp_spec; title = Sage_corpus.Bgp_rfc.title;
      text = Sage_corpus.Bgp_rfc.text };
  ]

let find name = List.find (fun c -> c.name = name) all

(* The corpus whose generated stack interoperates: the ambiguous
   original texts are replaced by their rewrites, as `sage chaos` does. *)
let generated_backing = function
  | "icmp" -> "icmp-rw"
  | "bfd" -> "bfd-rw"
  | name -> name

let run ?metrics ?trace spec c =
  P.run_document ?metrics ?trace spec ~title:c.title ~text:c.text

(* The checked-in golden artifacts, read relative to the repository
   root the benchmark runs from. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_report c =
  read_file (Filename.concat "test/golden" (c.name ^ ".report.md"))

let golden_analysis c =
  read_file (Filename.concat "test/golden" (c.name ^ ".analysis.json"))

let status_label = function
  | P.Annotated_non_actionable -> "annotated-non-actionable"
  | P.Zero_lf -> "zero-lf"
  | P.Ambiguous _ -> "ambiguous"
  | P.Parsed _ -> "parsed"
  | P.Subject_supplied _ -> "subject-supplied"
  | P.Crashed _ -> "crashed"

(* A status with its logical forms, for exact comparison. *)
let status_key = function
  | P.Ambiguous lfs ->
    "ambiguous:" ^ String.concat " | " (List.map Sage_logic.Lf.to_string lfs)
  | P.Parsed lf -> "parsed:" ^ Sage_logic.Lf.to_string lf
  | P.Subject_supplied lf -> "subject-supplied:" ^ Sage_logic.Lf.to_string lf
  | s -> status_label s
