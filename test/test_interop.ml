(* End-to-end interoperation (§6.2): SAGE-generated code vs the
   independently written ping/traceroute/tcpdump, plus IGMP/NTP generality
   (§6.3) and BFD state-management cross-checks (§6.4). *)

module P = Sage.Pipeline
module Gs = Sage_sim.Generated_stack
module Svc = Sage_sim.Icmp_service
module Net = Sage_sim.Network
module Ping = Sage_sim.Ping
module Tr = Sage_sim.Traceroute
module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Rt = Sage_interp.Runtime
module Pcap = Sage_net.Pcap
module Tcpdump = Sage_net.Tcpdump
module Bfd = Sage_net.Bfd

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let run_of name = Corpus_runs.run_of (Corpus_runs.corpus name)
let icmp_run = lazy (run_of "icmp-rw")
let icmp_orig_run = lazy (run_of "icmp")

let stack = lazy (Gs.of_run (Lazy.force icmp_run))
let gen_net = lazy (Net.default_topology ~service:(Svc.generated (Lazy.force stack)) ())

let a = Addr.of_string_exn

(* ---- ping / traceroute interop (the headline result) ---- *)

let test_ping_interop () =
  let net = Lazy.force gen_net in
  let res = Ping.ping ~net (Net.server1_addr net) in
  check Alcotest.bool "ping interoperates with generated code" true
    (Ping.success res)

let test_ping_interop_various_payloads () =
  let net = Lazy.force gen_net in
  List.iter
    (fun len ->
      let res = Ping.ping ~count:1 ~payload_len:len ~net (Net.server1_addr net) in
      check Alcotest.bool (Printf.sprintf "payload %d" len) true (Ping.success res))
    [ 0; 8; 9; 56; 120 ]

let test_traceroute_interop () =
  let net = Lazy.force gen_net in
  let r = Tr.traceroute ~net (Net.server1_addr net) in
  check Alcotest.bool "reached" true r.Tr.reached;
  List.iter
    (fun (h : Tr.hop) ->
      check Alcotest.bool
        (Printf.sprintf "hop %d quote valid" h.Tr.ttl)
        true h.Tr.quoted_probe_ok)
    r.Tr.hops

let test_destination_unreachable_interop () =
  let net = Lazy.force gen_net in
  let probe =
    let payload =
      Icmp.encode
        (Icmp.Echo { Icmp.echo_code = 0; identifier = 5; sequence = 1;
                     payload = Bytes.of_string "probe" })
    in
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_icmp ~src:(Net.client_addr net)
         ~dst:(Net.unknown_addr net) ~payload_len:(Bytes.length payload) ())
      ~payload
  in
  match Net.send net ~from:(Net.client_addr net) probe with
  | Net.Icmp_response resp ->
    (match Ipv4.decode resp with
     | Ok (hdr, body) ->
       check Alcotest.int "type 3" 3 (Sage_net.Bytes_util.get_u8 body 0);
       check Alcotest.bool "checksum valid" true (Icmp.checksum_ok body);
       check Alcotest.string "addressed to the client"
         (Addr.to_string (Net.client_addr net))
         (Addr.to_string hdr.Ipv4.dst);
       (* the quoted excerpt starts with the original IP header *)
       let quoted = Bytes.sub body 8 (Bytes.length body - 8) in
       check Alcotest.int "quote is header + 64 bits" 28 (Bytes.length quoted)
     | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
  | _ -> Alcotest.fail "expected destination unreachable"

let test_original_corpus_fails_ping () =
  (* the pre-rewrite spec's generated receiver zeroes the identifier —
     the non-interoperability the paper's unit testing discovers *)
  let net =
    Net.default_topology
      ~service:(Svc.generated (Gs.of_run (Lazy.force icmp_orig_run))) ()
  in
  let res = Ping.ping ~count:1 ~net (Net.server1_addr net) in
  check Alcotest.bool "original corpus does not interoperate" false
    (Ping.success res)

(* ---- packet-capture verification (§6.2 first experiment) ---- *)

let sender_functions =
  [
    ("icmp_echo_sender", None);
    ("icmp_timestamp_sender", None);
    ("icmp_information_request_sender", None);
  ]

let error_functions =
  [
    ("icmp_destination_unreachable_sender", []);
    ("icmp_time_exceeded_sender", []);
    ("icmp_source_quench_sender", []);
    ( "icmp_parameter_problem_sender",
      [ ("error_pointer", Rt.VInt 1L) ] );
    ( "icmp_redirect_sender",
      [ ("gateway_address",
         Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 (a "10.0.1.1"))) 0xffffffffL)) ] );
  ]

let original_datagram () =
  let payload = Bytes.make 16 'q' in
  Ipv4.encode
    (Ipv4.make ~protocol:Ipv4.protocol_udp ~src:(a "10.0.1.50")
       ~dst:(a "203.0.113.77") ~payload_len:(Bytes.length payload) ())
    ~payload

let test_pcap_all_message_types_clean () =
  (* generate every message type (sender and receiver side), store in a
     pcap capture, verify with the tcpdump-like inspector: no warnings *)
  let st = Lazy.force stack in
  let cap = Pcap.create () in
  (* request-type senders *)
  List.iter
    (fun (fn, _) ->
      match
        Gs.build_message ~data:(Bytes.of_string "sage-data") ~src:(a "10.0.1.50")
          ~dst:(a "192.168.2.10") st ~fn
      with
      | Ok dgram -> Pcap.add_packet cap dgram
      | Error e -> Alcotest.failf "%s: %s" fn e)
    sender_functions;
  (* receiver-side replies *)
  List.iter
    (fun fn ->
      let request =
        match fn with
        | "icmp_echo_reply_receiver" ->
          Icmp.encode
            (Icmp.Echo { Icmp.echo_code = 0; identifier = 3; sequence = 4;
                         payload = Bytes.of_string "abcdefgh" })
        | "icmp_timestamp_reply_receiver" ->
          Icmp.encode
            (Icmp.Timestamp { Icmp.ts_code = 0; ts_identifier = 3; ts_sequence = 4;
                              originate = 5l; receive = 0l; transmit = 0l })
        | _ ->
          Icmp.encode
            (Icmp.Information_request { Icmp.info_code = 0; info_identifier = 3;
                                        info_sequence = 4 })
      in
      let dgram =
        Ipv4.encode
          (Ipv4.make ~protocol:Ipv4.protocol_icmp ~src:(a "10.0.1.50")
             ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length request) ())
          ~payload:request
      in
      match Gs.process_request st ~fn ~request:dgram with
      | Ok (Some reply) -> Pcap.add_packet cap reply
      | Ok None -> Alcotest.failf "%s discarded" fn
      | Error e -> Alcotest.failf "%s: %s" fn e)
    [ "icmp_echo_reply_receiver"; "icmp_timestamp_reply_receiver";
      "icmp_information_reply_receiver" ];
  (* error messages *)
  List.iter
    (fun (fn, params) ->
      match
        Gs.build_error_message ~params ~router_addr:(a "10.0.1.1")
          ~original:(original_datagram ()) st ~fn
      with
      | Ok dgram -> Pcap.add_packet cap dgram
      | Error e -> Alcotest.failf "%s: %s" fn e)
    error_functions;
  check Alcotest.int "11 packets captured" 11 (Pcap.packet_count cap);
  match Tcpdump.inspect_capture_bytes (Pcap.to_bytes cap) with
  | Ok verdicts ->
    List.iter
      (fun v ->
        check
          Alcotest.(list string)
          (Printf.sprintf "clean: %s" v.Tcpdump.description)
          [] v.Tcpdump.warnings)
      verdicts
  | Error e -> Alcotest.fail e

let test_generated_echo_reply_matches_reference () =
  (* byte-for-byte agreement with the hand-written stack *)
  let st = Lazy.force stack in
  let request =
    let payload =
      Icmp.encode
        (Icmp.Echo { Icmp.echo_code = 0; identifier = 0x2327; sequence = 1;
                     payload = Bytes.of_string "0123456789abcdef" })
    in
    Ipv4.encode
      (Ipv4.make ~protocol:Ipv4.protocol_icmp ~src:(a "10.0.1.50")
         ~dst:(a "192.168.2.10") ~payload_len:(Bytes.length payload) ())
      ~payload
  in
  let generated =
    match Gs.process_request st ~fn:"icmp_echo_reply_receiver" ~request with
    | Ok (Some r) -> r
    | Ok None -> Alcotest.fail "generated discarded"
    | Error e -> Alcotest.fail e
  in
  let reference =
    match Svc.reference.Svc.echo_reply ~request with
    | Ok (Some r) -> r
    | _ -> Alcotest.fail "reference failed"
  in
  (* compare the ICMP payloads (IP identification fields may differ) *)
  let icmp_of d = match Ipv4.decode d with Ok (_, p) -> p | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e) in
  check Alcotest.bytes "identical ICMP bytes" (icmp_of reference) (icmp_of generated)

let test_generated_to_generated () =
  (* close the loop: the generated SENDER's echo request is answered by
     the generated RECEIVER, and the reply satisfies the reference
     decoder — both endpoints are SAGE output *)
  let st = Lazy.force stack in
  let request =
    match
      Gs.build_message ~data:(Bytes.of_string "both-sides-generated")
        ~src:(a "10.0.1.50") ~dst:(a "192.168.2.10") st ~fn:"icmp_echo_sender"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  (* the generated request itself decodes as a well-formed echo *)
  (match Ipv4.decode request with
   | Ok (_, payload) ->
     (match Icmp.decode payload with
      | Ok (Icmp.Echo e) ->
        check Alcotest.bytes "payload carried"
          (Bytes.of_string "both-sides-generated") e.Icmp.payload;
        check Alcotest.bool "checksum" true (Icmp.checksum_ok payload)
      | Ok _ -> Alcotest.fail "not an echo request"
      | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
   | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e));
  match Gs.process_request st ~fn:"icmp_echo_reply_receiver" ~request with
  | Ok (Some reply) ->
    (match Ipv4.decode reply with
     | Ok (hdr, payload) ->
       check Alcotest.string "reply to the sender" "10.0.1.50"
         (Addr.to_string hdr.Ipv4.dst);
       (match Icmp.decode payload with
        | Ok (Icmp.Echo_reply e) ->
          check Alcotest.bytes "payload echoed"
            (Bytes.of_string "both-sides-generated") e.Icmp.payload
        | Ok _ -> Alcotest.fail "not an echo reply"
        | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
     | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
  | Ok None -> Alcotest.fail "receiver discarded"
  | Error e -> Alcotest.fail e

(* ---- IGMP (§6.3) ---- *)

let test_igmp_interop () =
  let run = run_of "igmp" in
  let st = Gs.of_run run in
  match
    Gs.build_message
      ~params:[ ("all_hosts_group",
                 Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 (a "224.0.0.1"))) 0xffffffffL)) ]
      ~src:(a "10.0.1.1") ~dst:(a "224.0.0.1") st
      ~fn:"igmp_host_membership_query_sender"
  with
  | Error e -> Alcotest.fail e
  | Ok dgram ->
    (match Ipv4.decode dgram with
     | Ok (hdr, payload) ->
       check Alcotest.int "protocol 2" 2 hdr.Ipv4.protocol;
       check Alcotest.string "sent to all-hosts" "224.0.0.1"
         (Addr.to_string hdr.Ipv4.dst);
       (* the reference IGMP "switch" decodes it *)
       (match Sage_net.Igmp.decode payload with
        | Ok m ->
          check Alcotest.bool "is a query" true
            (m.Sage_net.Igmp.kind = Sage_net.Igmp.Host_membership_query);
          check Alcotest.bool "checksum ok" true (Sage_net.Igmp.checksum_ok payload)
        | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
     | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))

let test_igmp_report_carries_group () =
  let run = run_of "igmp" in
  let st = Gs.of_run run in
  let group = a "224.9.9.9" in
  match
    Gs.build_message
      ~params:[ ("host_group",
                 Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 group)) 0xffffffffL)) ]
      ~src:(a "10.0.1.50") ~dst:group st ~fn:"igmp_host_membership_report_sender"
  with
  | Error e -> Alcotest.fail e
  | Ok dgram ->
    (match Ipv4.decode dgram with
     | Ok (_, payload) ->
       (match Sage_net.Igmp.decode payload with
        | Ok m ->
          check Alcotest.string "group address" "224.9.9.9"
            (Addr.to_string m.Sage_net.Igmp.group)
        | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))
     | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e))

(* ---- NTP (§6.3): generated packet with both NTP and UDP headers ---- *)

let test_ntp_generated_packet () =
  let run = run_of "ntp" in
  let st = Gs.of_run run in
  match
    Gs.build_message ~src:(a "10.0.1.50") ~dst:(a "192.168.2.10") st
      ~fn:"ntp_ntp_sender"
  with
  | Error e -> Alcotest.fail e
  | Ok dgram ->
    (match Ipv4.decode dgram with
     | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e)
     | Ok (_, payload) ->
       (* the generated NTP message itself (48 bytes) *)
       (match Sage_net.Ntp.decode payload with
        | Ok pkt ->
          check Alcotest.int "poll 6" 6 pkt.Sage_net.Ntp.poll;
          check Alcotest.bool "transmit timestamp set" true
            (not (Int64.equal pkt.Sage_net.Ntp.transmit_timestamp 0L))
        | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e)))

(* ---- BFD (§6.4): generated state management vs the reference ---- *)

let bfd_run = lazy (run_of "bfd-rw")

let run_generated_bfd ~state packet =
  let st = Gs.of_run (Lazy.force bfd_run) in
  match
    Gs.run_state_update ~state st
      ~fn:"bfd_reception_of_bfd_control_packets_sender"
      ~packet:(Bfd.encode packet)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let get k bindings = Option.value ~default:0L (List.assoc_opt k bindings)

let test_bfd_generated_discards_bad_version () =
  let pkt = { Bfd.default_packet with Bfd.my_discriminator = 5l } in
  let wire = Bfd.encode pkt in
  Sage_net.Bytes_util.set_u8 wire 0 ((2 lsl 5) lor 0) (* version 2 *);
  let st = Gs.of_run (Lazy.force bfd_run) in
  match
    Gs.run_state_update ~state:[] st
      ~fn:"bfd_reception_of_bfd_control_packets_sender" ~packet:wire
  with
  | Ok (_, discarded) -> check Alcotest.bool "discarded" true discarded
  | Error e -> Alcotest.fail e

let test_bfd_generated_discards_zero_discr () =
  let pkt = { Bfd.default_packet with Bfd.my_discriminator = 0l } in
  let _, discarded =
    run_generated_bfd ~state:[ ("bfd.SessionState", 1L) ] pkt
  in
  check Alcotest.bool "discarded" true discarded

let test_bfd_generated_state_machine_matches_reference () =
  (* drive both implementations with the same packets and compare the
     resulting session state *)
  let scenarios =
    [
      (* (initial local state code, packet state, expected) *)
      (1L (* Down *), Bfd.Down, 2L (* Init *));
      (1L, Bfd.Init, 3L (* Up *));
      (2L (* Init *), Bfd.Init, 3L);
      (2L, Bfd.Up, 3L);
      (3L (* Up *), Bfd.Down, 1L);
    ]
  in
  List.iter
    (fun (initial, pkt_state, expected) ->
      let pkt =
        { Bfd.default_packet with
          Bfd.my_discriminator = 9l; your_discriminator = 7l; state = pkt_state }
      in
      (* generated *)
      let bindings, discarded =
        run_generated_bfd
          ~state:[ ("bfd.SessionState", initial); ("bfd.LocalDiscr", 7L) ]
          pkt
      in
      check Alcotest.bool "not discarded" false discarded;
      check Alcotest.int64
        (Printf.sprintf "state %Ld + packet %s" initial (Bfd.state_name pkt_state))
        expected
        (get "bfd.SessionState" bindings);
      (* reference *)
      let s = Bfd.new_session ~local_discr:7l in
      s.Bfd.session_state <- Result.get_ok (Bfd.state_of_code (Int64.to_int initial));
      (match Bfd.receive_control_packet s pkt with
       | `Ok -> ()
       | `Discard r -> Alcotest.failf "reference discarded: %s" r);
      check Alcotest.int64 "generated agrees with reference" expected
        (Int64.of_int (Bfd.state_code s.Bfd.session_state)))
    scenarios

let test_bfd_generated_copies_remote_vars () =
  let pkt =
    { Bfd.default_packet with
      Bfd.my_discriminator = 42l; your_discriminator = 7l; state = Bfd.Up;
      demand = true; required_min_rx = 5000l }
  in
  let bindings, _ =
    run_generated_bfd
      ~state:[ ("bfd.SessionState", 3L); ("bfd.LocalDiscr", 7L) ]
      pkt
  in
  check Alcotest.int64 "remote discr" 42L (get "bfd.RemoteDiscr" bindings);
  check Alcotest.int64 "remote state" 3L (get "bfd.RemoteSessionState" bindings);
  check Alcotest.int64 "remote demand" 1L (get "bfd.RemoteDemandMode" bindings);
  check Alcotest.int64 "remote min rx" 5000L (get "bfd.RemoteMinRxInterval" bindings)

let test_bfd_generated_transmit_guards () =
  (* 6.8.7: the generated transmit procedure refuses to send before the
     remote discriminator is known, and fills the discriminators from
     session state *)
  let st = Gs.of_run (Lazy.force bfd_run) in
  let fn = "bfd_transmitting_bfd_control_packets_sender" in
  let zero_packet = Bytes.make 24 '\000' in
  (match
     Gs.run_state_update
       ~state:[ ("bfd.RemoteDiscr", 0L); ("bfd.LocalDiscr", 7L);
                ("bfd.RemoteMinRxInterval", 1000L); ("bfd.DetectMult", 3L) ]
       st ~fn ~packet:zero_packet
   with
   | Ok (_, discarded) ->
     check Alcotest.bool "no transmission before remote discr" true discarded
   | Error e -> Alcotest.fail e);
  match
    Gs.run_state_update
      ~state:[ ("bfd.RemoteDiscr", 42L); ("bfd.LocalDiscr", 7L);
               ("bfd.RemoteMinRxInterval", 1000L); ("bfd.DetectMult", 3L) ]
      st ~fn ~packet:zero_packet
  with
  | Ok (_, discarded) ->
    check Alcotest.bool "transmits once remote discr known" false discarded
  | Error e -> Alcotest.fail e

let test_bfd_generated_demand_mode_ceases_tx () =
  let pkt =
    { Bfd.default_packet with
      Bfd.my_discriminator = 42l; your_discriminator = 7l; state = Bfd.Up;
      demand = true }
  in
  let bindings, _ =
    run_generated_bfd
      ~state:
        [ ("bfd.SessionState", 3L); ("bfd.LocalDiscr", 7L);
          ("bfd.PeriodicTx", 1L); ("bfd.RemoteDemandMode", 1L) ]
      pkt
  in
  check Alcotest.int64 "periodic tx ceased" 0L (get "bfd.PeriodicTx" bindings)

let test_bfd_fsm_recovery () =
  (* Fsm.extract drives the generated code over every (state x input)
     pair; the recovered machine matches RFC 5880 exactly *)
  let st = Gs.of_run (Lazy.force bfd_run) in
  match Sage_sim.Fsm.bfd_machine st with
  | Error e -> Alcotest.fail e
  | Ok machine ->
    check Alcotest.int "9 transitions" 9
      (List.length machine.Sage_sim.Fsm.transitions);
    let expect from_state input to_state =
      match
        List.find_opt
          (fun (tr : Sage_sim.Fsm.transition) ->
            tr.Sage_sim.Fsm.from_state = from_state && tr.Sage_sim.Fsm.input = input)
          machine.Sage_sim.Fsm.transitions
      with
      | Some tr ->
        check Alcotest.int64
          (Printf.sprintf "%Ld x %Ld" from_state input)
          to_state tr.Sage_sim.Fsm.to_state
      | None -> Alcotest.failf "no transition %Ld x %Ld" from_state input
    in
    (* Down=1 Init=2 Up=3 *)
    expect 1L 1L 2L;
    expect 1L 2L 3L;
    expect 1L 3L 1L;
    expect 2L 2L 3L;
    expect 2L 3L 3L;
    expect 3L 1L 1L;
    expect 3L 3L 3L

(* ---- interop under seeded fault injection (§6.2 + fault harness) ----

   The fault stream is a seeded splitmix64 PRNG, so for a fixed plan,
   seed and traffic pattern the delivery schedule is byte-reproducible:
   these tests pin the exact reply counts the CLI's
   `sage interop --fault-plan ... --fault-seed ...` reports. *)

module Faults = Sage_sim.Faults
module Trace = Sage_trace.Trace

let fault_net ?trace ~plan ~seed () =
  match Faults.plan_of_string plan with
  | Error e -> Alcotest.failf "bad fault plan %S: %s" plan e
  | Ok plan ->
    let faults = Faults.create ~plan ~seed () in
    Net.default_topology
      ~service:(Svc.generated (Lazy.force stack))
      ~faults ?trace ()

let count_checks pred checks = List.length (List.filter pred checks)

let test_interop_under_drop_faults () =
  let net = fault_net ~plan:"drop@0.2" ~seed:7 () in
  let target = Net.server1_addr net in
  let res = Ping.ping ~net target in
  check Alcotest.int "packets sent" 3 res.Ping.sent;
  check Alcotest.int "replies under 20% drop (seed 7)" 2 res.Ping.received;
  check Alcotest.bool "degraded, not clean" false (Ping.success res);
  (* the lost probe classifies as a drop — never as a malformed reply,
     which would indict the generated code instead of the wire *)
  check Alcotest.int "one unanswered probe" 1
    (count_checks (function Ping.No_reply _ -> true | _ -> false) res.Ping.checks);
  check Alcotest.int "no malformed replies" 0
    (count_checks (function Ping.Bad_reply _ -> true | _ -> false) res.Ping.checks);
  let tr = Tr.traceroute ~net target in
  check Alcotest.bool "traceroute still reaches" true tr.Tr.reached;
  check Alcotest.int "hop count" 2 (Tr.hop_count tr);
  check Alcotest.int "no probes lost" 0 (Tr.lost_probes tr)

let test_interop_under_mixed_faults () =
  let net =
    fault_net ~plan:"drop@0.3,dup@0.1,corrupt:20:0xff@0.2" ~seed:11 ()
  in
  let target = Net.server1_addr net in
  let res = Ping.ping ~net target in
  check Alcotest.int "replies under mixed plan (seed 11)" 2 res.Ping.received;
  check Alcotest.bool "degraded, not clean" false (Ping.success res);
  let tr = Tr.traceroute ~net target in
  check Alcotest.bool "reaches despite losses" true tr.Tr.reached;
  check Alcotest.int "retries stretch the path to 4 probes" 4 (Tr.hop_count tr);
  check Alcotest.int "two probes lost" 2 (Tr.lost_probes tr);
  check (Alcotest.float 0.001) "50% probe loss" 50.0 (Tr.loss_rate tr)

let test_interop_fault_trace_events () =
  let trace = Trace.create ~clock:Trace.Logical () in
  let net = fault_net ~trace ~plan:"drop@0.2" ~seed:7 () in
  let target = Net.server1_addr net in
  let res = Ping.ping ~net target in
  (* the fault observer is purely observational: attaching a tracer
     must not perturb the seeded schedule (same 2/3 as untraced) *)
  check Alcotest.int "observer does not perturb the schedule" 2
    res.Ping.received;
  let evs = Trace.events trace in
  let names = List.map (fun (ev : Trace.event) -> ev.Trace.name) evs in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " events present") true (List.mem n names))
    [ "tx"; "rx"; "fault"; "ping-probe" ];
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.name = "fault" then
        check Alcotest.bool "fault kind is drop" true
          (List.mem ("kind", Trace.Str "drop") ev.Trace.args))
    evs

let suite =
  [
    tc "ping <-> generated code (6.2)" test_ping_interop;
    tc "ping payload sizes" test_ping_interop_various_payloads;
    tc "traceroute <-> generated code (6.2)" test_traceroute_interop;
    tc "destination unreachable <-> generated code" test_destination_unreachable_interop;
    tc "original corpus fails ping (6.5)" test_original_corpus_fails_ping;
    tc "pcap of all message types is clean (6.2)" test_pcap_all_message_types_clean;
    tc "generated echo reply = reference bytes" test_generated_echo_reply_matches_reference;
    tc "generated sender <-> generated receiver" test_generated_to_generated;
    tc "IGMP query interop (6.3)" test_igmp_interop;
    tc "IGMP report carries group" test_igmp_report_carries_group;
    tc "NTP generated packet (6.3)" test_ntp_generated_packet;
    tc "BFD: generated discards bad version" test_bfd_generated_discards_bad_version;
    tc "BFD: generated discards zero discriminator" test_bfd_generated_discards_zero_discr;
    tc "BFD: state machine matches reference (6.4)"
      test_bfd_generated_state_machine_matches_reference;
    tc "BFD: remote variables copied" test_bfd_generated_copies_remote_vars;
    tc "BFD: demand mode ceases periodic tx" test_bfd_generated_demand_mode_ceases_tx;
    tc "BFD: transmit guards (6.8.7)" test_bfd_generated_transmit_guards;
    tc "BFD: FSM recovered from generated code" test_bfd_fsm_recovery;
    tc "fault plan drop@0.2 seed 7: pinned degradation"
      test_interop_under_drop_faults;
    tc "fault plan drop+dup+corrupt seed 11: pinned degradation"
      test_interop_under_mixed_faults;
    tc "fault injection emits trace events without perturbing"
      test_interop_fault_trace_events;
  ]
