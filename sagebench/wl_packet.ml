(* packet-path: the deployed-code path.  One closed-loop client injects
   each datagram of a seeded mix (see [Mix]) into the simulated network,
   whose router and hosts run the ICMP stack generated from the
   rewritten RFC 792 text; the other generated functions (IGMP query,
   NTP, BFD reception, TCP header rules, BGP OPEN) handle their own
   share.  Everything runs on the generated stack's default backend, as
   `sage interop` does.  No text is parsed after set-up.

   An op is one datagram round trip: the network send plus the
   generated function that builds or consumes it.  Only the independent
   side judges the outcome, outside the timed span: the lib/net
   decoders, [Icmp_service.reference], and once per cycle the Linux-
   faithful ping and traceroute clients. *)

module P = Sage.Pipeline
module Gs = Sage_sim.Generated_stack
module Net = Sage_sim.Network
module Svc = Sage_sim.Icmp_service
module Rt = Sage_interp.Runtime
module Pv = Sage_interp.Packet_view
module Ipv4 = Sage_net.Ipv4
module Icmp = Sage_net.Icmp
module Addr = Sage_net.Addr
module Bfd = Sage_net.Bfd

(* rounds of the mix (see [Mix.round]) per cycle *)
let rounds = 40

type st = {
  seed : int;
  runs : P.run list;
  icmp : Gs.t;
  igmp : Gs.t;
  ntp : Gs.t;
  bfd : Gs.t;
  tcp : Gs.t;
  bgp : Gs.t;
  tcp_layout : Sage_rfc.Header_diagram.t;
  switch : Sage_sim.Igmp_switch.t;
  bgp_open : bytes;
  defects : (string, int) Hashtbl.t;  (* known defect -> ops showing it *)
  mutable ops : int;
  mutable sends : int;
  mutable slow : int;
  mutable decode_errors : int;
}

let addr_value addr = Rt.VInt (Int64.logand (Int64.of_int32 (Addr.to_int32 addr)) 0xffffffffL)

let all_hosts = Addr.of_string_exn "224.0.0.1"
let groups = [ Addr.of_string_exn "224.1.1.1"; Addr.of_string_exn "224.2.2.2" ]
let igmp_fn = "igmp_host_membership_query_sender"
let ntp_fn = "ntp_ntp_sender"
let bfd_fn = "bfd_reception_of_bfd_control_packets_sender"
let tcp_fn = "tcp_tcp_segment_header_sender"
let bgp_fn = "bgp_bgp_open_sender"

let bfd_state =
  [ ("bfd.SessionState", 1L); ("bfd.LocalDiscr", Int64.of_int32 Mix.bfd_local_discr);
    ("bfd.AuthType", 0L); ("bfd.PeriodicTx", 1L) ]

let bfd_params = [ ("remote_system", addr_value Mix.server1) ]

let bgp_params =
  [ ("event_ManualStart", Rt.VInt 1L); ("event_ManualStop", Rt.VInt 0L);
    ("remote_system", Rt.VInt 0L); ("interface_address", Rt.VInt 0x0a000101L) ]

(* the variables the generated BFD reception and the reference session
   both track *)
let bfd_vars =
  [ "bfd.SessionState"; "bfd.RemoteDiscr"; "bfd.RemoteSessionState";
    "bfd.RemoteDemandMode"; "bfd.RemoteMinRxInterval" ]

type result =
  | Sent of Net.delivery
  | Built of (bytes, string) Stdlib.result * Net.delivery option
  | Queried of (bytes, string) Stdlib.result * (bytes list, string) Stdlib.result
  | State of ((string * int64) list * bool, string) Stdlib.result * Net.delivery
  | Filtered of (bytes option, string) Stdlib.result * Net.delivery

(* The generated ICMP service; traced, each closure the network calls
   becomes a backend.exec span, so sim.send's self time is the
   simulator's own. *)
let service rec_ st =
  let gen = Svc.generated st.icmp in
  match rec_ with
  | None -> gen
  | Some _ ->
    { gen with
      Svc.echo_reply =
        (fun ~request -> Spans.span rec_ "backend.exec" (fun () -> gen.Svc.echo_reply ~request));
      error =
        (fun ~kind ~original ~router ->
          Spans.span rec_ "backend.exec" (fun () -> gen.Svc.error ~kind ~original ~router)) }

let send rec_ net dgram = Spans.span rec_ "sim.send" (fun () -> Net.send net ~from:Mix.client dgram)
let exec rec_ f = Spans.span rec_ "backend.exec" f

let ntp_datagram built =
  match Ipv4.decode built with
  | Error e -> Error (Sage_net.Decode_error.to_string e)
  | Ok (_, body) -> (
    match Sage_net.Ntp.decode body with
    | Error e -> Error (Sage_net.Decode_error.to_string e)
    | Ok pkt ->
      let seg = Sage_net.Ntp.encapsulate ~src:Mix.client ~dst:Mix.server1 ~src_port:123 pkt in
      Ok (Mix.ip ~protocol:Ipv4.protocol_udp ~dst:Mix.server1 seg))

(* One op.  [dgram] is the prepared input of kinds that have one. *)
let op st net rec_ (it : Mix.item) dgram =
  match it.Mix.kind with
  | Mix.Igmp_query ->
    (* the query goes to the all-hosts group: the snooping switch on the
       client's subnet answers it, not the router *)
    let built =
      exec rec_ (fun () ->
          Gs.build_message ~params:[ ("all_hosts_group", addr_value all_hosts) ]
            ~src:Mix.router ~dst:all_hosts st.igmp ~fn:igmp_fn)
    in
    Queried
      ( built,
        Result.bind built (fun q ->
            Spans.span rec_ "sim.igmp_switch" (fun () -> Sage_sim.Igmp_switch.receive st.switch q)) )
  | Mix.Ntp_send ->
    let built = exec rec_ (fun () -> Gs.build_message ~src:Mix.client ~dst:Mix.server1 st.ntp ~fn:ntp_fn) in
    let wire = Result.bind built ntp_datagram in
    Built (built, Result.to_option (Result.map (send rec_ net) wire))
  | Mix.Bfd_control ->
    let d = send rec_ net dgram in
    State
      ( exec rec_ (fun () ->
            Gs.run_state_update ~state:bfd_state ~params:bfd_params st.bfd ~fn:bfd_fn
              ~packet:(Bfd.encode it.Mix.bfd)),
        d )
  | Mix.Tcp_segment ->
    let d = send rec_ net dgram in
    Filtered (exec rec_ (fun () -> Gs.process_request st.tcp ~fn:tcp_fn ~request:dgram), d)
  | Mix.Bgp_open ->
    let d = send rec_ net dgram in
    State
      ( exec rec_ (fun () ->
            Gs.run_state_update ~state:[ ("bgp.State", 1L); ("bgp.HoldTimer", 30L) ]
              ~params:bgp_params st.bgp ~fn:bgp_fn ~packet:st.bgp_open),
        d )
  | _ -> Sent (send rec_ net dgram)

(* ---- the independent judge ---- *)

(* A verdict: [Ok None] passes, [Ok (Some defect)] is one of the known
   defects below, [Error why] fails the op.  A known defect is matched
   by its exact signature; any other deviation still fails. *)
let ( let* ) = Result.bind
let ok_if cond fmt = Printf.ksprintf (fun s -> if cond then Ok None else Error s) fmt
let expect cond fmt = Printf.ksprintf (fun s -> if cond then Ok () else Error s) fmt

(* Defects of the generated stack at the time the benchmark was
   written, counted (backend.known_defect_ratio and stderr) rather than
   failed, so that they stay visible without stopping the run. *)
let answers_bad_checksum = "generated ICMP answers an echo request whose checksum is wrong"
let tcp_reply_protocol = "generated TCP reply is sent with IP protocol 17, not 6"

let decode b = Result.map_error Sage_net.Decode_error.to_string (Ipv4.decode b)

let decode_icmp st rec_ bytes =
  match
    Spans.span rec_ "net.decode" (fun () ->
        match Ipv4.decode bytes with
        | Error e -> Error e
        | Ok (h, body) -> Result.map (fun m -> (h, body, m)) (Icmp.decode body))
  with
  | Ok v -> Ok v
  | Error e ->
    if rec_ <> None then st.decode_errors <- st.decode_errors + 1;
    Error (Sage_net.Decode_error.to_string e)

(* A reply or error datagram: decodes, re-encodes to the same bytes,
   has a valid ICMP checksum, and comes from [src] to the client. *)
let well_formed st rec_ ~src bytes =
  let* h, body, m = decode_icmp st rec_ bytes in
  let ok_sum = Spans.span rec_ "net.checksum" (fun () -> Sage_net.Checksum.checksum body = 0) in
  let again = Spans.span rec_ "net.encode" (fun () -> Ipv4.encode h ~payload:(Icmp.encode m)) in
  let* () = expect ok_sum "bad ICMP checksum" in
  let* () = expect (Bytes.equal again bytes) "does not re-encode to the same bytes" in
  let* () = expect (Addr.equal h.Ipv4.src src) "from %s" (Addr.to_string h.Ipv4.src) in
  let* () = expect (Addr.equal h.Ipv4.dst Mix.client) "to %s" (Addr.to_string h.Ipv4.dst) in
  Ok m

let reference_message st rec_ = function
  | Ok (Some b) ->
    let* _, _, m = decode_icmp st rec_ b in
    Ok m
  | Ok None -> Error "the reference discards it"
  | Error e -> Error ("reference: " ^ e)

let error_case (it : Mix.item) dgram =
  let at_router kind = Some (kind, dgram, Mix.router) in
  match it.Mix.kind with
  | Mix.Trace_ttl -> at_router Svc.Time_exceeded
  | Mix.Unknown_dst -> at_router Svc.Net_unreachable
  | Mix.Bad_tos -> at_router (Svc.Parameter_problem 1)
  | Mix.Buffer_full -> at_router Svc.Source_quench
  | Mix.Df_over_mtu -> at_router Svc.Frag_needed
  | Mix.Redirect -> at_router (Svc.Redirect Mix.router)
  | Mix.Trace_port -> (
    (* the host sees the datagram the router forwarded *)
    match Ipv4.decode dgram with
    | Ok (h, body) ->
      Some (Svc.Port_unreachable, Ipv4.encode { h with Ipv4.ttl = h.Ipv4.ttl - 1 } ~payload:body,
            Mix.server1)
    | Error _ -> None)
  | _ -> None

let delivered = function
  | Net.Delivered a when Addr.equal a Mix.server1 -> Ok ()
  | Net.Delivered a -> Error ("delivered to " ^ Addr.to_string a)
  | Net.Dropped r -> Error ("dropped: " ^ r)
  | Net.Replied _ | Net.Icmp_response _ -> Error "answered instead of delivered"

let describe = function
  | Net.Delivered a -> "delivered to " ^ Addr.to_string a
  | Net.Replied _ -> "unexpected reply"
  | Net.Icmp_response _ -> "unexpected ICMP error"
  | Net.Dropped r -> "dropped: " ^ r

let judge st rec_ (it : Mix.item) dgram result =
  match (it.Mix.kind, result) with
  | ( ( Mix.Echo_ping | Mix.Echo_empty | Mix.Echo_sized | Mix.Echo_max | Mix.Timestamp
      | Mix.Info ),
      Sent (Net.Replied reply) ) ->
    let* m = well_formed st rec_ ~src:(Mix.addr_of it.Mix.dst) reply in
    let* r = reference_message st rec_ (Svc.reference.Svc.echo_reply ~request:dgram) in
    (match (m, r) with
     | Icmp.Timestamp_reply a, Icmp.Timestamp_reply b ->
       (* the receive and transmit stamps come from each side's clock *)
       ok_if
         (a.Icmp.ts_code = b.Icmp.ts_code && a.Icmp.ts_identifier = b.Icmp.ts_identifier
          && a.Icmp.ts_sequence = b.Icmp.ts_sequence && a.Icmp.originate = b.Icmp.originate)
         "timestamp reply differs from the reference"
     | _ -> ok_if (Icmp.equal m r) "reply differs from the reference")
  | ( ( Mix.Trace_ttl | Mix.Trace_port | Mix.Unknown_dst | Mix.Bad_tos | Mix.Buffer_full
      | Mix.Df_over_mtu | Mix.Redirect ),
      Sent (Net.Icmp_response err) ) -> (
    match error_case it dgram with
    | None -> Error "no reference case"
    | Some (kind, original, router) ->
      let* m = well_formed st rec_ ~src:router err in
      let* r =
        reference_message st rec_
          (Result.map Option.some (Svc.reference.Svc.error ~kind ~original ~router))
      in
      ok_if (Icmp.equal m r) "error message differs from the reference")
  | ( (Mix.Bad_icmp_checksum | Mix.Truncated_icmp | Mix.Unknown_icmp_type | Mix.Bad_ip_version),
      Sent d ) -> (
    ignore (decode_icmp st rec_ dgram);
    let* () =
      match Svc.reference.Svc.echo_reply ~request:dgram with
      | Ok None | Error _ -> Ok ()
      | Ok (Some _) -> Error "the reference answers it: not malformed"
    in
    match (d, it.Mix.kind) with
    | (Net.Delivered _ | Net.Dropped _), _ -> Ok None
    | Net.Replied _, Mix.Bad_icmp_checksum -> Ok (Some answers_bad_checksum)
    | (Net.Replied _ | Net.Icmp_response _), _ -> Error "malformed datagram answered")
  | Mix.Igmp_query, Queried (Ok d, Ok reports) ->
    let* h, body = decode d in
    let* m = Result.map_error Sage_net.Decode_error.to_string (Sage_net.Igmp.decode_verified body) in
    let* () = expect (h.Ipv4.protocol = Ipv4.protocol_igmp) "IP protocol %d" h.Ipv4.protocol in
    let* () = expect (Sage_net.Igmp.equal m Sage_net.Igmp.query) "not an IGMP query" in
    let* got =
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let* _, body = decode r in
          let* rep =
            Result.map_error Sage_net.Decode_error.to_string (Sage_net.Igmp.decode_verified body)
          in
          Ok (rep.Sage_net.Igmp.group :: acc))
        (Ok []) reports
    in
    ok_if (List.sort compare got = List.sort compare groups)
      "the switch's reports do not cover its groups"
  | Mix.Ntp_send, Built (Ok d, Some sent) ->
    let* () = delivered sent in
    let* _, body = decode d in
    let* pkt = Result.map_error Sage_net.Decode_error.to_string (Sage_net.Ntp.decode body) in
    ok_if (pkt.Sage_net.Ntp.poll = 6 && pkt.Sage_net.Ntp.transmit_timestamp <> 0L)
      "NTP poll %d transmit %Ld" pkt.Sage_net.Ntp.poll pkt.Sage_net.Ntp.transmit_timestamp
  | Mix.Bfd_control, State (Ok (bindings, _), d) ->
    let* () = delivered d in
    let session = Bfd.new_session ~local_discr:Mix.bfd_local_discr in
    ignore (Bfd.receive_control_packet session it.Mix.bfd);
    let* () =
      List.fold_left
        (fun acc v ->
          let* () = acc in
          let got = Option.value ~default:0L (List.assoc_opt v bindings) in
          let* x = Bfd.get_var session v in
          expect (Int64.equal got (Int64.of_int32 x)) "%s: %Ld, reference %ld" v got x)
        (Ok ()) bfd_vars
    in
    Ok None
  | Mix.Tcp_segment, Filtered (Ok out, d) -> (
    let* () = delivered d in
    match (out, it.Mix.flag) with
    | None, true -> Ok None
    | Some _, true -> Error "RST segment not discarded"
    | None, false -> Error "segment discarded"
    | Some o, false ->
      let* h, body = decode o in
      let* _, sent = decode dgram in
      let* () = expect (Bytes.length body = Bytes.length sent) "TCP reply length differs" in
      if h.Ipv4.protocol = Ipv4.protocol_tcp then Ok None
      else if h.Ipv4.protocol = Ipv4.protocol_udp then Ok (Some tcp_reply_protocol)
      else Error (Printf.sprintf "TCP reply with IP protocol %d" h.Ipv4.protocol))
  | Mix.Bgp_open, State (Ok (bindings, _), d) ->
    let* () = delivered d in
    ok_if (List.assoc_opt "bgp.State" bindings = Some 2L) "ManualStart did not reach Connect"
  | _, (Built (Error e, _) | State (Error e, _) | Filtered (Error e, _) | Queried (Error e, _)
       | Queried (_, Error e)) ->
    Error e
  | _, Sent d -> Error (describe d)
  | _ -> Error "unexpected outcome"

(* ---- cycles ---- *)

let input st (it : Mix.item) =
  match it.Mix.kind with
  | Mix.Tcp_segment ->
    let v = Pv.create st.tcp_layout in
    ignore (Pv.set v "urgent_pointer" (Int64.of_int it.Mix.seq));
    if it.Mix.flag then ignore (Pv.set v "r" 1L);
    Mix.ip ~protocol:Ipv4.protocol_tcp ~dst:Mix.server1 (Pv.serialize v)
  | Mix.Bgp_open -> Mix.ip ~protocol:Ipv4.protocol_tcp ~dst:Mix.server1 st.bgp_open
  | _ -> Mix.datagram it

let defects st d = Option.value ~default:0 (Hashtbl.find_opt st.defects d)

let slow_path = function
  | Sent (Net.Icmp_response _ | Net.Dropped _) -> true
  | _ -> false

let run_items st m rec_ items =
  let net = Net.default_topology ~service:(service rec_ st) () in
  Array.iter
    (fun (it : Mix.item) ->
      let dgram = input st it in
      (match it.Mix.kind with
       | Mix.Buffer_full -> Net.set_buffer_full net true
       | Mix.Df_over_mtu -> Net.set_mtu net Mix.small_mtu
       | _ -> ());
      Option.iter (fun r -> Spans.set_op r m.Meter.n) rec_;
      let result = Meter.time m (fun () -> op st net rec_ it dgram) in
      Net.set_buffer_full net false;
      Net.set_mtu net 1500;
      st.ops <- st.ops + 1;
      if rec_ <> None then begin
        st.sends <- st.sends + 1;
        if slow_path result then st.slow <- st.slow + 1
      end;
      match judge st rec_ it dgram result with
      | Ok None -> ()
      | Ok (Some defect) -> Hashtbl.replace st.defects defect (1 + defects st defect)
      | Error e -> Meter.fail m "%s: %s" (Mix.kind_name it.Mix.kind) e)
    items;
  (* the ping and traceroute acceptance checks, on a fresh topology *)
  let net = Net.default_topology ~service:(service None st) () in
  let ping = Sage_sim.Ping.ping ~count:3 ~net Mix.server1 in
  if not (Sage_sim.Ping.success ping) then Meter.fail m "ping through the generated stack failed";
  let tr = Sage_sim.Traceroute.traceroute ~net Mix.server1 in
  if not tr.Sage_sim.Traceroute.reached then Meter.fail m "traceroute did not reach the server"

let cycle st m rec_ c =
  (match rec_ with
   | Some _ ->
     (* load every generated function once, as the stacks do lazily *)
     List.iter
       (fun (run : P.run) ->
         List.iter
           (fun (f : Sage_codegen.Ir.func) ->
             match List.assoc_opt f.Sage_codegen.Ir.fn_name run.P.codegen.P.struct_of_function with
             | Some layout ->
               ignore
                 (Spans.span rec_ "backend.load" (fun () ->
                      Sage_backend.Backend.load (Gs.backend st.icmp) ~layout f))
             | None -> ())
           run.P.codegen.P.functions)
       st.runs
   | None -> ());
  run_items st m rec_ (Mix.cycle ~seed:st.seed ~cycle:c rounds)

let setup ~seed =
  let run name =
    let c = Corpora.find name in
    Corpora.run (c.Corpora.spec ()) c
  in
  let icmp = run "icmp-rw" and igmp = run "igmp" and ntp = run "ntp"
  and bfd = run "bfd-rw" and tcp = run "tcp" and bgp = run "bgp" in
  let layout (r : P.run) fn = List.assoc fn r.P.codegen.P.struct_of_function in
  let bgp_open =
    let v = Pv.create (layout bgp bgp_fn) in
    ignore (Pv.set v "version" 4L);
    ignore (Pv.set v "hold_time" 90L);
    Pv.serialize v
  in
  let st =
    { seed; runs = [ icmp; igmp; ntp; bfd; tcp; bgp ]; icmp = Gs.of_run icmp;
      igmp = Gs.of_run igmp; ntp = Gs.of_run ntp; bfd = Gs.of_run bfd; tcp = Gs.of_run tcp;
      bgp = Gs.of_run bgp; tcp_layout = layout tcp tcp_fn;
      switch = Sage_sim.Igmp_switch.create ~groups Mix.client; defects = Hashtbl.create 2; ops = 0; bgp_open; sends = 0; slow = 0;
      decode_errors = 0 }
  in
  (* warm-up: a checked quarter cycle of a throwaway seed *)
  let m = Meter.create () in
  run_items st m None (Mix.cycle ~seed:(-1) ~cycle:0 (rounds / 4));
  if m.Meter.failed > 0 then
    failwith ("packet-path warm-up: " ^ String.concat "; " m.Meter.failures);
  Hashtbl.reset st.defects;
  st.ops <- 0;
  st

let layers st agg =
  [ ("backend.load_us", Spans.median_in agg "backend.load" ~per:1e3);
    ("backend.exec_us_p50", Spans.median_in agg "backend.exec" ~per:1e3);
    ("backend.exec_us_p99", Spans.percentile_in agg "backend.exec" ~permille:990 ~per:1e3);
    ("backend.words_per_exec", Spans.mean_words agg "backend.exec");
    ("net.decode_ns", Spans.median_in agg "net.decode" ~per:1.);
    ("net.encode_ns", Spans.median_in agg "net.encode" ~per:1.);
    ("net.checksum_ns", Spans.median_in agg "net.checksum" ~per:1.);
    ("net.decode_errors", Stats.ratio st.decode_errors st.sends);
    ( "sim.self_us",
      match Spans.count agg "sim.send" with
      | 0 -> 0.
      | _ -> Stats.median (Array.of_list (Hashtbl.find agg "sim.send").Spans.self_ns) /. 1e3 );
    ("sim.slow_path_ratio", Stats.ratio st.slow st.sends);
    ("backend.known_defect_ratio", Stats.ratio (Hashtbl.fold (fun _ n a -> a + n) st.defects 0) st.ops) ]

let notes st _ =
  Hashtbl.fold
    (fun d n acc -> Printf.sprintf "packet-path: known defect in %d/%d ops: %s" n st.ops d :: acc)
    st.defects []

let workload =
  { Bench.name = "packet-path";
    setup; cycle; layers; cross_check = (fun _ _ -> []); notes }
