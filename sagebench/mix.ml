(* The seeded datagram mix for packet-path.  A cycle is a whole number
   of rounds; every round holds exactly [round] of each kind, in a seeded
   order, with seeded payload lengths, identifiers and field values, so
   every cycle does the same mix of work on fresh bytes.

   Where the weights come from:
   - Measured source: `sage interop`, the paper's section 6 experiment,
     sends per session three echo requests with ping's 56-byte default
     payload ([Sage_sim.Ping.ping]: count 3, payload_len 56, as iputils
     ping's default -s 56) and a traceroute to the server, one UDP probe
     per TTL with 24 bytes of data ([Sage_sim.Traceroute]): in the
     default topology TTL 1 draws Time Exceeded from the router and
     TTL 2 Port Unreachable from the server.
   - Chosen, not measured: [sessions] such sessions per round, plus one
     datagram of every other kind.  That makes the interop traffic about
     four fifths of the mix and ICMP echo, timestamp and information
     requests a majority, while each other path still runs about forty
     times a cycle.  The other kinds are ping's payload extremes
     (-s 0; any length up to 1471; -s 1472, the largest that fits an
     unfragmented 1500-byte datagram), the other two ICMP requests,
     every other router error trigger, each other generated protocol
     function, and four malformed datagrams that must be discarded. *)

module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Bfd = Sage_net.Bfd
module Udp = Sage_net.Udp

type dst = Server1 | Server2 | Router

type kind =
  (* one `sage interop` session: ping, then traceroute *)
  | Echo_ping  (** 56 bytes, to the server *)
  | Trace_ttl  (** TTL 1: the router's Time Exceeded *)
  | Trace_port  (** TTL 2: the server's Port Unreachable *)
  (* requests the generated ICMP stack answers *)
  | Echo_empty
  | Echo_sized  (** 1-1471 bytes *)
  | Echo_max  (** 1472: a full 1500-byte datagram *)
  | Timestamp
  | Info
  (* the other router error triggers *)
  | Unknown_dst
  | Bad_tos
  | Buffer_full
  | Df_over_mtu
  | Redirect
  (* the other generated functions *)
  | Igmp_query
  | Ntp_send
  | Bfd_control
  | Tcp_segment
  | Bgp_open
  (* malformed: must be discarded *)
  | Bad_icmp_checksum
  | Truncated_icmp
  | Unknown_icmp_type
  | Bad_ip_version

let sessions = 16

let round =
  [ (Echo_ping, 3 * sessions); (Trace_ttl, sessions); (Trace_port, sessions);
    (Echo_empty, 1); (Echo_sized, 1); (Echo_max, 1); (Timestamp, 1); (Info, 1);
    (Unknown_dst, 1); (Bad_tos, 1); (Buffer_full, 1); (Df_over_mtu, 1); (Redirect, 1);
    (Igmp_query, 1); (Ntp_send, 1); (Bfd_control, 1); (Tcp_segment, 1); (Bgp_open, 1);
    (Bad_icmp_checksum, 1); (Truncated_icmp, 1); (Unknown_icmp_type, 1);
    (Bad_ip_version, 1) ]

let round_len = List.fold_left (fun a (_, n) -> a + n) 0 round

let kind_name = function
  | Echo_ping -> "echo-ping" | Trace_ttl -> "traceroute-ttl"
  | Trace_port -> "traceroute-port" | Echo_empty -> "echo-empty"
  | Echo_sized -> "echo-sized" | Echo_max -> "echo-max" | Timestamp -> "timestamp"
  | Info -> "info" | Unknown_dst -> "unknown-dst"
  | Bad_tos -> "bad-tos" | Buffer_full -> "buffer-full"
  | Df_over_mtu -> "df-over-mtu" | Redirect -> "redirect" | Igmp_query -> "igmp-query"
  | Ntp_send -> "ntp" | Bfd_control -> "bfd-control" | Tcp_segment -> "tcp"
  | Bgp_open -> "bgp-open" | Bad_icmp_checksum -> "bad-icmp-checksum"
  | Truncated_icmp -> "truncated-icmp" | Unknown_icmp_type -> "unknown-icmp-type"
  | Bad_ip_version -> "bad-ip-version"

type item = {
  kind : kind;
  dst : dst;
  len : int;  (** payload length for echo-like kinds *)
  ident : int;
  seq : int;
  fill : int;  (** payload fill byte seed *)
  bfd : Bfd.packet;  (** for Bfd_control *)
  flag : bool;  (** TCP: RST set (must be discarded) *)
}

let a = Addr.of_string_exn
let client = a "10.0.1.50"
let server1 = a "192.168.2.10"
let server2 = a "172.64.3.10"
let router = a "10.0.1.1"
let unknown = a "203.0.113.77"
let same_subnet = a "10.0.1.99"  (* on the client's subnet, no such host *)
let addr_of = function Server1 -> server1 | Server2 -> server2 | Router -> router

(* Egress MTU the router is switched to for a Df_over_mtu datagram. *)
let small_mtu = 576

let bfd_local_discr = 7l

let gen_item rng kind =
  let int n = Random.State.int rng n in
  let dst =
    match (kind, int 4) with
    | (Echo_ping | Trace_ttl | Trace_port), _ -> Server1
    | _, (0 | 1) -> Server1
    | _, 2 -> Server2
    | _ -> Router
  in
  let len =
    match kind with
    | Echo_empty -> 0
    | Echo_ping -> 56
    | Echo_sized -> 1 + int 1471
    | Echo_max -> 1472
    | Trace_ttl | Trace_port -> 24
    | Df_over_mtu -> small_mtu + int 800
    | _ -> 8 + int 56
  in
  let bfd =
    match Bfd.state_of_code (int 4) with
    | Ok state ->
      { Bfd.default_packet with
        Bfd.state; poll = int 2 = 0; final = int 2 = 0; demand = int 2 = 0;
        diag = int 8; detect_mult = 1 + int 4;
        my_discriminator = Int32.of_int (1 + int 3);
        your_discriminator = bfd_local_discr;
        desired_min_tx = Int32.of_int (int 3 * 1000);
        required_min_rx = Int32.of_int (int 3 * 1000);
        required_min_echo_rx = Int32.of_int (int 2) }
    | Error e -> failwith e
  in
  { kind; dst; len; ident = int 0x10000; seq = int 0x10000; fill = int 256; bfd;
    flag = int 4 = 0 }

let cycle ~seed ~cycle rounds =
  let rng = Random.State.make [| seed; cycle; 0x706b |] in
  let kinds =
    List.concat_map (fun (k, n) -> List.init (n * rounds) (fun _ -> k)) round |> Array.of_list
  in
  Stats.shuffle rng kinds;
  Array.map (gen_item rng) kinds

(* ---- wire bytes ---- *)

let payload it = Bytes.init it.len (fun i -> Char.chr ((it.fill + i) land 0xff))

let ip ?(tos = 0) ?(ttl = 64) ?(df = false) ~protocol ~dst body =
  let hdr = Ipv4.make ~tos ~ttl ~protocol ~src:client ~dst ~payload_len:(Bytes.length body) () in
  let hdr = if df then { hdr with Ipv4.flags = Ipv4.flag_dont_fragment } else hdr in
  Ipv4.encode hdr ~payload:body

let echo it =
  Icmp.encode
    (Icmp.Echo { Icmp.echo_code = 0; identifier = it.ident; sequence = it.seq; payload = payload it })

let icmp ?tos ?ttl ?df ~dst body = ip ?tos ?ttl ?df ~protocol:Ipv4.protocol_icmp ~dst body

(* A traceroute probe as [Sage_sim.Traceroute] sends it: UDP from port
   43210 to 33434 + TTL - 1, with 24 bytes of 0x40. *)
let probe ~ttl =
  let body = Bytes.make 24 '\x40' in
  let udp = Udp.make ~src_port:43210 ~dst_port:(33434 + ttl - 1) ~payload_len:(Bytes.length body) in
  ip ~ttl ~protocol:Ipv4.protocol_udp ~dst:server1
    (Udp.encode ~src:client ~dst:server1 udp ~payload:body)

(* The datagram the client injects, for every kind whose input is a
   fixed packet ([Igmp_query] and [Ntp_send] are built by the generated
   sender functions, and [Tcp_segment]/[Bgp_open] by the workload from
   the generated layouts). *)
let datagram it =
  let dst = addr_of it.dst in
  match it.kind with
  | Echo_ping | Echo_empty | Echo_sized | Echo_max -> icmp ~dst (echo it)
  | Trace_ttl -> probe ~ttl:1
  | Trace_port -> probe ~ttl:2
  | Timestamp ->
    icmp ~dst
      (Icmp.encode
         (Icmp.Timestamp
            { Icmp.ts_code = 0; ts_identifier = it.ident; ts_sequence = it.seq;
              originate = Int32.of_int (it.fill * 1000); receive = 0l; transmit = 0l }))
  | Info ->
    icmp ~dst
      (Icmp.encode
         (Icmp.Information_request
            { Icmp.info_code = 0; info_identifier = it.ident; info_sequence = it.seq }))
  | Unknown_dst -> icmp ~dst:unknown (echo it)
  | Bad_tos -> icmp ~tos:0x10 ~dst:server1 (echo it)
  | Buffer_full -> icmp ~dst:server1 (echo it)
  | Df_over_mtu -> icmp ~df:true ~dst:server1 (echo it)
  | Redirect -> icmp ~dst:same_subnet (echo it)
  | Bfd_control ->
    let body = Bfd.encode it.bfd in
    ip ~protocol:Ipv4.protocol_udp ~dst:server1
      (Udp.encode ~src:client ~dst:server1
         (Udp.make ~src_port:49152 ~dst_port:3784 ~payload_len:(Bytes.length body))
         ~payload:body)
  | Bad_icmp_checksum ->
    let body = echo it in
    Bytes.set body 2 (Char.chr (Char.code (Bytes.get body 2) lxor 0xff));
    icmp ~dst (body)
  | Truncated_icmp -> icmp ~dst (Bytes.sub (echo it) 0 4)
  | Unknown_icmp_type ->
    let body = echo it in
    Bytes.set body 0 (Char.chr 42);
    Bytes.set body 2 '\000';
    Bytes.set body 3 '\000';
    let sum = Sage_net.Checksum.checksum body in
    Sage_net.Bytes_util.set_u16 body 2 sum;
    icmp ~dst body
  | Bad_ip_version ->
    let d = icmp ~dst (echo it) in
    Bytes.set d 0 (Char.chr ((6 lsl 4) lor 5));
    d
  | Igmp_query | Ntp_send | Tcp_segment | Bgp_open -> Bytes.empty
