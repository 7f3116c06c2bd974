module P = Pipeline

type protocol = Icmp | Igmp | Ntp | Bfd | Tcp | Bgp

type t = {
  name : string;
  protocol : protocol;
  rewritten : bool;
  spec : unit -> P.spec;
  title : string;
  text : string;
}

let all =
  let open Sage_corpus in
  [
    { name = "icmp"; protocol = Icmp; rewritten = false; spec = P.icmp_spec;
      title = Icmp_rfc.title; text = Icmp_rfc.text };
    { name = "icmp-rw"; protocol = Icmp; rewritten = true; spec = P.icmp_spec;
      title = Icmp_rfc.title; text = Icmp_rfc.rewritten_text };
    { name = "igmp"; protocol = Igmp; rewritten = false; spec = P.igmp_spec;
      title = Igmp_rfc.title; text = Igmp_rfc.text };
    { name = "ntp"; protocol = Ntp; rewritten = false; spec = P.ntp_spec;
      title = Ntp_rfc.title; text = Ntp_rfc.text };
    { name = "bfd"; protocol = Bfd; rewritten = false; spec = P.bfd_spec;
      title = Bfd_rfc.title; text = Bfd_rfc.text };
    { name = "bfd-rw"; protocol = Bfd; rewritten = true; spec = P.bfd_spec;
      title = Bfd_rfc.title; text = Bfd_rfc.rewritten_text };
    { name = "tcp"; protocol = Tcp; rewritten = false; spec = P.tcp_spec;
      title = Tcp_rfc.title; text = Tcp_rfc.text };
    { name = "bgp"; protocol = Bgp; rewritten = false; spec = P.bgp_spec;
      title = Bgp_rfc.title; text = Bgp_rfc.text };
  ]

let find name = List.find_opt (fun c -> c.name = name) all

let lookup protocol ~rewritten =
  List.find_opt (fun c -> c.protocol = protocol && c.rewritten = rewritten) all

let protocol_name protocol =
  (Option.get (lookup protocol ~rewritten:false)).name

let generated_backing c =
  Option.value ~default:c (lookup c.protocol ~rewritten:true)

let run ?jobs ?metrics ?trace c =
  P.run_document ?jobs ?metrics ?trace (c.spec ()) ~title:c.title
    ~text:c.text
