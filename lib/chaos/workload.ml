module Addr = Sage_net.Addr
module Ipv4 = Sage_net.Ipv4
module Igmp = Sage_net.Igmp
module Ntp = Sage_net.Ntp
module Bfd = Sage_net.Bfd
module Faults = Sage_sim.Faults
module Network = Sage_sim.Network
module Ping = Sage_sim.Ping
module Traceroute = Sage_sim.Traceroute
module Icmp_service = Sage_sim.Icmp_service
module Igmp_switch = Sage_sim.Igmp_switch
module Bfd_link = Sage_sim.Bfd_link
module Gs = Sage_sim.Generated_stack
module Rt = Sage_interp.Runtime
module P = Sage.Pipeline

type stack = Reference | Generated

let stack_name = function Reference -> "reference" | Generated -> "generated"

(* A workload is one protocol conversation under chaos: [step] runs one
   campaign tick of traffic, [set_plan]/[crash]/[restart] are the
   episode hooks, and [check] evaluates the recovery oracles once the
   schedule (ending in its heal window) has run. *)
type t = {
  name : string;
  step : healed:bool -> unit;
  set_plan : Faults.plan -> unit;
  crash : unit -> unit;
  restart : unit -> unit;
  check : heal_ticks:int -> Oracle.violation list;
  fsm_state : unit -> (string * int64) option;
}

let a = Addr.of_string_exn

(* ------------------------------------------------------------------ *)
(* Post-heal observation log shared by the workloads                   *)
(* ------------------------------------------------------------------ *)

type probe_log = {
  mutable healed_ticks : int;
  mutable first_ok : int option;  (* healed tick of the first success *)
  mutable rev_outcomes : bool list;
}

let new_log () = { healed_ticks = 0; first_ok = None; rev_outcomes = [] }

let log_probe log ~healed ok =
  if healed then begin
    log.healed_ticks <- log.healed_ticks + 1;
    log.rev_outcomes <- ok :: log.rev_outcomes;
    if ok && log.first_ok = None then log.first_ok <- Some log.healed_ticks
  end

let first_within log budget =
  match log.first_ok with Some t -> t <= budget | None -> false

let wedge_check log ~what =
  if first_within log Oracle.wedge_budget then None
  else
    match log.first_ok with
    | Some t ->
      Some
        (Oracle.v No_silent_wedge "first %s only %d ticks after heal (budget %d)"
           what t Oracle.wedge_budget)
    | None ->
      Some
        (Oracle.v No_silent_wedge "no %s in %d post-heal ticks" what
           log.healed_ticks)

let recovery_check log ~kind ~what =
  if first_within log Oracle.recovery_budget then None
  else
    match log.first_ok with
    | Some t ->
      Some
        (Oracle.v kind "first %s only %d ticks after heal (budget %d)" what t
           Oracle.recovery_budget)
    | None ->
      Some (Oracle.v kind "no %s in %d post-heal ticks" what log.healed_ticks)

(* ------------------------------------------------------------------ *)
(* ICMP: ping + traceroute against the reference or generated service  *)
(* ------------------------------------------------------------------ *)

let icmp ~stack ~run ?trace ?backend ?observer ~seed () =
  let faults = Faults.create ~plan:[] ~seed () in
  let up = ref true in
  let base =
    match stack with
    | Reference -> Icmp_service.reference
    | Generated -> Icmp_service.generated (Gs.of_run ?trace ?backend ?observer (Lazy.force run))
  in
  let service = Icmp_service.with_availability ~up:(fun () -> !up) base in
  let net = Network.default_topology ~service ~faults ?trace () in
  let target = Network.server1_addr net in
  let log = new_log () in
  let step ~healed =
    (* one probe per campaign tick, with one client-side retry so a
       single lost packet doesn't read as an outage *)
    let r = Ping.ping ~count:1 ~retries:1 ~net target in
    log_probe log ~healed (Ping.success r)
  in
  let check ~heal_ticks:_ =
    (* steady state: after a short settle window every healed probe
       must succeed (RFC 792: the echo data must come back) *)
    let settle = 4 in
    let outcomes = List.rev log.rev_outcomes in
    let late = List.filteri (fun i _ -> i >= settle) outcomes in
    let late_ok = List.length (List.filter Fun.id late) in
    let late_n = List.length late in
    let ping_v =
      if first_within log Oracle.recovery_budget
         && late_n > 0
         && float_of_int late_ok >= 0.9 *. float_of_int late_n
      then None
      else if late_n = 0 then
        Some
          (Oracle.v Ping_recovery
             "heal window yielded only %d probes (need more than %d to judge \
              recovery)"
             (List.length outcomes) settle)
      else
        Some
          (Oracle.v Ping_recovery
             "post-heal echo success %d/%d (first reply %s); RFC 792 requires \
              every echo to draw its reply once the path heals"
             late_ok late_n
             (match log.first_ok with
              | Some t -> Printf.sprintf "at healed tick %d" t
              | None -> "never"))
    in
    let tr = Traceroute.traceroute ~retries:2 ~net target in
    let tr_v =
      if tr.Traceroute.reached then None
      else
        Some
          (Oracle.v Traceroute_recovery
             "post-heal traceroute to %s never drew the port-unreachable that \
              terminates it"
             (Addr.to_string target))
    in
    List.filter_map Fun.id [ ping_v; tr_v; wedge_check log ~what:"echo reply" ]
  in
  {
    name = "icmp/" ^ stack_name stack;
    step;
    set_plan = Faults.set_plan faults;
    crash = (fun () -> up := false);
    restart = (fun () -> up := true);
    check;
    fsm_state = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* IGMP: query/report cycle against the snooping switch                *)
(* ------------------------------------------------------------------ *)

let igmp ~stack ~run ?trace ?backend ?observer ~seed () =
  let wire = Faults.create ~plan:[] ~seed () in
  let groups = [ a "224.1.1.1"; a "224.2.2.2" ] in
  let switch = Igmp_switch.create ~groups (a "192.168.2.10") in
  let up = ref true in
  let query =
    lazy
      (match stack with
       | Reference ->
         let payload = Igmp.encode Igmp.query in
         Ok
           (Ipv4.encode
              (Ipv4.make ~ttl:1 ~protocol:Ipv4.protocol_igmp ~src:(a "10.0.1.1")
                 ~dst:(a "224.0.0.1") ~payload_len:(Bytes.length payload) ())
              ~payload)
       | Generated ->
         Gs.build_message
           ~params:
             [ ("all_hosts_group",
                Rt.VInt
                  (Int64.logand
                     (Int64.of_int32 (Addr.to_int32 (a "224.0.0.1")))
                     0xffffffffL)) ]
           ~src:(a "10.0.1.1") ~dst:(a "224.0.0.1")
           (Gs.of_run ?trace ?backend ?observer (Lazy.force run))
           ~fn:"igmp_host_membership_query_sender")
  in
  let log = new_log () in
  let gen_error = ref None in
  let step ~healed =
    let delivered =
      match Lazy.force query with
      | Ok dgram -> Faults.transmit wire dgram
      | Error e ->
        if !gen_error = None then gen_error := Some e;
        Faults.idle wire
    in
    let reports =
      List.fold_left
        (fun acc pkt ->
          if !up then
            match Igmp_switch.receive switch pkt with
            | Ok rs -> acc + List.length rs
            | Error _ -> acc (* malformed under corruption: elicits nothing *)
          else acc)
        0 delivered
    in
    log_probe log ~healed (reports >= List.length groups)
  in
  let check ~heal_ticks:_ =
    let gen_v =
      match !gen_error with
      | Some e ->
        Some (Oracle.v Igmp_reconvergence "generated query construction failed: %s" e)
      | None -> None
    in
    List.filter_map Fun.id
      [ gen_v;
        recovery_check log ~kind:Oracle.Igmp_reconvergence
          ~what:"full report set (one per joined group)";
        wedge_check log ~what:"membership report" ]
  in
  {
    name = "igmp/" ^ stack_name stack;
    step;
    set_plan = Faults.set_plan wire;
    crash =
      (fun () ->
        (* a rebooting host loses its membership table *)
        up := false;
        List.iter (Igmp_switch.leave switch) (Igmp_switch.groups switch));
    restart =
      (fun () ->
        (* RFC 1112: joining hosts transmit unsolicited reports; on boot
           the host rejoins its groups *)
        up := true;
        List.iter (Igmp_switch.join switch) groups);
    check;
    fsm_state = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* NTP: poll/response with the RFC 5905 reachability shift register    *)
(* ------------------------------------------------------------------ *)

let ntp ~stack ~run ?trace ?backend ?observer ~seed () =
  let c2s = Faults.create ~plan:[] ~seed () in
  let s2c = Faults.create ~plan:[] ~seed:(seed + 0x1e57) () in
  let up = ref true in
  let reach = ref 0 in
  let gs = lazy (Gs.of_run ?trace ?backend ?observer (Lazy.force run)) in
  let gen_error = ref None in
  let client_pkt =
    Ntp.encode { Ntp.default with Ntp.transmit_timestamp = 1L }
  in
  let log = new_log () in
  let step ~healed =
    let delivered = Faults.transmit c2s client_pkt in
    let reply =
      List.find_map
        (fun pkt ->
          if not !up then None
          else
            match Ntp.decode pkt with
            | Ok req ->
              Some
                (Ntp.encode
                   { Ntp.default with
                     Ntp.stratum = 1;
                     originate_timestamp = req.Ntp.transmit_timestamp;
                     transmit_timestamp = 2L })
            | Error _ -> None)
        delivered
    in
    let arrived =
      match reply with
      | None -> Faults.idle s2c
      | Some r -> Faults.transmit s2c r
    in
    let hit =
      (* an attributable response: its originate timestamp quotes our
         transmit timestamp *)
      List.exists
        (fun pkt ->
          match Ntp.decode pkt with
          | Ok rep -> Int64.equal rep.Ntp.originate_timestamp 1L
          | Error _ -> false)
        arrived
    in
    reach := ((!reach lsl 1) lor (if hit then 1 else 0)) land 0xff;
    (match stack with
     | Reference -> ()
     | Generated -> (
       (* each poll also exercises the generated timeout procedure over
          the live reachability register *)
       match
         Gs.run_state_update
           ~state:
             [ ("peer.mode", 3L); ("peer.timer", 0L); ("peer.hostpoll", 10L);
               ("peer.reach", Int64.of_int !reach) ]
           (Lazy.force gs) ~fn:"ntp_timeout_procedure" ~packet:client_pkt
       with
       | Ok _ -> ()
       | Error e -> if !gen_error = None then gen_error := Some e));
    log_probe log ~healed hit
  in
  let check ~heal_ticks:_ =
    let gen_v =
      match !gen_error with
      | Some e ->
        Some (Oracle.v Ntp_reachability "generated timeout procedure failed: %s" e)
      | None -> None
    in
    let reach_v =
      if !reach land 1 = 1 then None
      else
        Some
          (Oracle.v Ntp_reachability
             "reach register 0x%02x after heal: the last poll drew no \
              response (RFC 5905: a received packet sets the rightmost bit)"
             !reach)
    in
    List.filter_map Fun.id
      [ gen_v;
        recovery_check log ~kind:Oracle.Ntp_reachability
          ~what:"attributable NTP response";
        reach_v;
        wedge_check log ~what:"NTP response" ]
  in
  {
    name = "ntp/" ^ stack_name stack;
    step;
    set_plan =
      (fun plan ->
        Faults.set_plan c2s plan;
        Faults.set_plan s2c plan);
    crash = (fun () -> up := false);
    restart = (fun () -> up := true);
    check;
    fsm_state = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* BFD: the persistent link, reference or generated reception rules    *)
(* ------------------------------------------------------------------ *)

let generated_bfd_receive gs : Bfd_link.receive =
 fun sess pkt ->
  let u32 v = Int64.logand (Int64.of_int32 v) 0xffffffffL in
  let read name =
    match Bfd.get_var sess name with Ok v -> u32 v | Error _ -> 0L
  in
  let state =
    List.map
      (fun n -> (n, read n))
      [ "bfd.SessionState"; "bfd.RemoteSessionState"; "bfd.LocalDiscr";
        "bfd.RemoteDiscr"; "bfd.RemoteMinRxInterval"; "bfd.RemoteDemandMode" ]
  in
  match
    Gs.run_state_update ~state gs
      ~fn:"bfd_reception_of_bfd_control_packets_sender"
      ~packet:(Bfd.encode pkt)
  with
  | Error e -> `Discard e
  | Ok (_, true) -> `Discard "generated reception discarded the packet"
  | Ok (bindings, false) ->
    List.iter
      (fun (k, v) -> ignore (Bfd.set_var sess k (Int64.to_int32 v)))
      bindings;
    `Ok

let bfd ~stack ~run ?trace ?backend ?observer ~seed () =
  let detect_mult = 3 in
  let receive =
    match stack with
    | Reference -> None
    | Generated ->
      Some (generated_bfd_receive (Gs.of_run ?trace ?backend ?observer (Lazy.force run)))
  in
  let link = Bfd_link.create_link ~detect_mult ?receive ~seed () in
  let log = new_log () in
  let step ~healed =
    Bfd_link.step_link link;
    log_probe log ~healed (Bfd_link.link_up link)
  in
  let check ~heal_ticks:_ =
    (* detection time (detect_mult ticks, RFC 5880 §6.8.4) to notice the
       stale session, plus the three-way handshake to come back up *)
    let bound = detect_mult + 8 in
    let bfd_v =
      if first_within log bound then None
      else
        match log.first_ok with
        | Some t ->
          Some
            (Oracle.v Bfd_reconvergence
               "session re-reached Up only %d ticks after heal (detection-time \
                bound %d)"
               t bound)
        | None ->
          Some
            (Oracle.v Bfd_reconvergence
               "session never re-reached Up in %d post-heal ticks (states \
                A=%s B=%s)"
               log.healed_ticks
               (Bfd.state_name (Bfd_link.link_state link ~at_a:true))
               (Bfd.state_name (Bfd_link.link_state link ~at_a:false)))
    in
    List.filter_map Fun.id [ bfd_v; wedge_check log ~what:"Up session" ]
  in
  {
    name = "bfd/" ^ stack_name stack;
    step;
    set_plan = Bfd_link.set_link_plan link;
    crash = (fun () -> Bfd_link.kill_endpoint link ~at_a:false);
    restart = (fun () -> Bfd_link.restart_endpoint link ~at_a:false);
    check;
    fsm_state =
      (match stack with
       | Reference -> fun () -> None
       | Generated ->
         (* the surviving endpoint's session state, as the generated
            reception rules maintain it *)
         fun () ->
           Some
             ( "bfd.SessionState",
               Int64.of_int
                 (Bfd.state_code (Bfd_link.link_state link ~at_a:true)) ));
  }

(* ------------------------------------------------------------------ *)
(* TCP: segment echo through the generated header-validation rules     *)
(* ------------------------------------------------------------------ *)

let tcp ~stack ~run ?trace ?backend ?observer ~seed () =
  let c2s = Faults.create ~plan:[] ~seed () in
  let s2c = Faults.create ~plan:[] ~seed:(seed + 0x7cb) () in
  let up = ref true in
  let client = a "10.0.1.50" and server = a "192.168.2.10" in
  let gs = lazy (Gs.of_run ?trace ?backend ?observer (Lazy.force run)) in
  let segment =
    lazy
      (match stack with
       | Generated ->
         (* a default segment from the generated layout, so the header
            deserializes under the generated function's own struct *)
         let run = Lazy.force run in
         let sd =
           List.assoc "tcp_tcp_segment_header_sender"
             run.P.codegen.P.struct_of_function
         in
         Sage_interp.Packet_view.serialize (Sage_interp.Packet_view.create sd)
       | Reference -> Bytes.make 20 '\000')
  in
  let dgram =
    lazy
      (let payload = Lazy.force segment in
       Ipv4.encode
         (Ipv4.make ~protocol:Ipv4.protocol_tcp ~src:client ~dst:server
            ~payload_len:(Bytes.length payload) ())
         ~payload)
  in
  let log = new_log () in
  let step ~healed =
    let delivered = Faults.transmit c2s (Lazy.force dgram) in
    let reply =
      List.find_map
        (fun pkt ->
          if not !up then None
          else
            match stack with
            | Generated -> (
              match
                Gs.process_request (Lazy.force gs)
                  ~fn:"tcp_tcp_segment_header_sender" ~request:pkt
              with
              | Ok (Some out) -> Some out
              | Ok None | Error _ -> None)
            | Reference -> (
              match Ipv4.decode pkt with
              | Ok (h, payload)
                when h.Ipv4.protocol = Ipv4.protocol_tcp
                     && Bytes.length payload >= 20 ->
                Some
                  (Ipv4.encode
                     (Ipv4.make ~protocol:Ipv4.protocol_tcp ~src:server
                        ~dst:client ~payload_len:(Bytes.length payload) ())
                     ~payload)
              | _ -> None))
        delivered
    in
    let arrived =
      match reply with None -> Faults.idle s2c | Some r -> Faults.transmit s2c r
    in
    let hit =
      (* the generated stack's reply carries its own IP protocol number
         (the static framework encapsulates), so accept any decodable
         datagram carrying a full segment header *)
      List.exists
        (fun pkt ->
          match Ipv4.decode pkt with
          | Ok (_, p) -> Bytes.length p >= 20
          | Error _ -> false)
        arrived
    in
    log_probe log ~healed hit
  in
  let check ~heal_ticks:_ =
    List.filter_map Fun.id
      [ recovery_check log ~kind:Oracle.Fsm_recovery
          ~what:"validated TCP segment exchange";
        wedge_check log ~what:"TCP segment" ]
  in
  {
    name = "tcp/" ^ stack_name stack;
    step;
    set_plan =
      (fun plan ->
        Faults.set_plan c2s plan;
        Faults.set_plan s2c plan);
    crash = (fun () -> up := false);
    restart = (fun () -> up := true);
    check;
    fsm_state = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* BGP: FSM re-establishment (ManualStart: Idle -> Connect) over a     *)
(* lossy transport                                                     *)
(* ------------------------------------------------------------------ *)

let bgp ~stack ~run ?trace ?backend ?observer ~seed () =
  let wire = Faults.create ~plan:[] ~seed () in
  let up = ref true in
  let state = ref 1 (* Idle *) in
  let gs = lazy (Gs.of_run ?trace ?backend ?observer (Lazy.force run)) in
  let open_pkt =
    lazy
      (match stack with
       | Generated ->
         (* a syntactically valid OPEN so the generated validation rules
            pass (version 4, sane hold time) *)
         let run = Lazy.force run in
         let sd =
           List.assoc "bgp_bgp_open_sender" run.P.codegen.P.struct_of_function
         in
         let v = Sage_interp.Packet_view.create sd in
         ignore (Sage_interp.Packet_view.set v "version" 4L);
         ignore (Sage_interp.Packet_view.set v "hold_time" 90L);
         Sage_interp.Packet_view.serialize v
       | Reference -> Bytes.make 29 '\000')
  in
  let log = new_log () in
  let step ~healed =
    (if !state = 1 then begin
       (* Idle: attempt establishment — the ManualStart-triggered OPEN
          must survive the wire and find the peer alive *)
       let delivered = Faults.transmit wire (Lazy.force open_pkt) in
       match delivered with
       | pkt :: _ when !up -> (
         match stack with
         | Reference -> state := 2 (* Connect *)
         | Generated -> (
           match
             Gs.run_state_update
               ~state:[ ("bgp.State", 1L); ("bgp.HoldTimer", 30L) ]
               ~params:
                 [ ("event_ManualStart", Rt.VInt 1L);
                   ("event_ManualStop", Rt.VInt 0L);
                   ("remote_system", Rt.VInt 0L);
                   ("interface_address", Rt.VInt 0x0a000101L) ]
               (Lazy.force gs) ~fn:"bgp_bgp_open_sender" ~packet:pkt
           with
           | Ok (bindings, _) -> (
             match List.assoc_opt "bgp.State" bindings with
             | Some s -> state := Int64.to_int s
             | None -> ())
           (* a storm-corrupted OPEN that fails to process is no
              transition, not a campaign error — the recovery oracle
              catches a genuinely wedged FSM *)
           | Error _ -> ()))
       | _ -> ()
     end
     else ignore (Faults.idle wire));
    log_probe log ~healed (!state >= 2)
  in
  let check ~heal_ticks:_ =
    List.filter_map Fun.id
      [ recovery_check log ~kind:Oracle.Fsm_recovery
          ~what:"Idle -> Connect transition";
        wedge_check log ~what:"FSM progress" ]
  in
  {
    name = "bgp/" ^ stack_name stack;
    step;
    fsm_state =
      (match stack with
       | Reference -> fun () -> None
       | Generated -> fun () -> Some ("bgp.State", Int64.of_int !state));
    set_plan = Faults.set_plan wire;
    crash =
      (fun () ->
        (* peer down: the session is torn down; hold-timer expiry
           returns the FSM to Idle (RFC 4271 §8.2.2) *)
        up := false;
        state := 1);
    restart = (fun () -> up := true);
    check;
  }

(* ------------------------------------------------------------------ *)
(* Corpus dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let for_corpus ~corpus ~stack ~run ?trace ?backend ?observer ~seed () =
  match Sage.Corpora.find corpus with
  | None -> Error (Printf.sprintf "no chaos workload for corpus %S" corpus)
  | Some c ->
    let workload =
      match c.Sage.Corpora.protocol with
      | Icmp -> icmp
      | Igmp -> igmp
      | Ntp -> ntp
      | Bfd -> bfd
      | Tcp -> tcp
      | Bgp -> bgp
    in
    Ok (workload ~stack ~run ?trace ?backend ?observer ~seed ())
