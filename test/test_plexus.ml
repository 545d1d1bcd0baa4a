(* End-to-end tests of the Plexus protocol graph: stack assembly, UDP and
   TCP over simulated devices, the protection policy (anti-spoof,
   anti-snoop, port ownership), fragmentation, ICMP, dynamic ARP,
   multiple protocol implementations, and runtime extension
   linking/unlinking. *)

let tc name f = Alcotest.test_case name `Quick f

let ip_a = Experiments.Common.ip_a
let ip_b = Experiments.Common.ip_b

let pair ?(params = Netsim.Costs.ethernet ()) () =
  Experiments.Common.plexus_pair params

let bind_exn udp ~owner ~port =
  match Plexus.Udp_mgr.bind udp ~owner ~port with
  | Ok ep -> ep
  | Error (`Port_in_use _) -> Alcotest.fail "port in use"

(* ---- graph shape -------------------------------------------------------- *)

let graph_shape () =
  let p = pair () in
  let g = Plexus.Stack.graph p.Experiments.Common.a in
  let nodes = Plexus.Graph.nodes g in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n nodes))
    [ "ip"; "udp"; "tcp"; "icmp" ];
  (* the Figure 1 edges *)
  let edges = List.map (fun (a, b, _) -> (a, b)) (Plexus.Graph.edges g) in
  Alcotest.(check bool) "ip->udp" true (List.mem ("ip", "udp") edges);
  Alcotest.(check bool) "ip->tcp" true (List.mem ("ip", "tcp") edges);
  Alcotest.(check bool) "dot renders" true
    (String.length (Plexus.Graph.to_dot g) > 50)

(* ---- UDP end to end ------------------------------------------------------ *)

let udp_end_to_end () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let got = ref [] in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        got :=
          ( View.to_string (Plexus.Pctx.view ctx),
            ctx.Plexus.Pctx.src_port )
          :: !got)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "datagram one";
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "datagram two";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check (list (pair string int)))
    "delivered with source intact"
    [ ("datagram one", 5000); ("datagram two", 5000) ]
    (List.rev !got);
  let c = Plexus.Udp_mgr.counters udp_b in
  Alcotest.(check int) "rx" 2 c.Plexus.Udp_mgr.rx;
  Alcotest.(check int) "delivered" 2 c.Plexus.Udp_mgr.delivered

let udp_port_ownership () =
  let p = pair () in
  let udp = Plexus.Stack.udp p.Experiments.Common.b in
  let _ep = bind_exn udp ~owner:"first" ~port:7 in
  (match Plexus.Udp_mgr.bind udp ~owner:"second" ~port:7 with
  | Error (`Port_in_use 7) -> ()
  | _ -> Alcotest.fail "double bind allowed");
  Alcotest.(check (list int)) "bound" [ 7 ] (Plexus.Udp_mgr.bound_ports udp)

(* No snooping: an endpoint's handler never sees another port's traffic. *)
let udp_no_snooping () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let victim = bind_exn udp_b ~owner:"victim" ~port:7 in
  let snoop = bind_exn udp_b ~owner:"snoop" ~port:8 in
  let victim_got = ref 0 and snoop_got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b victim (fun _ -> incr victim_got)
  in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b snoop (fun _ -> incr snoop_got)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "secret";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "victim saw it" 1 !victim_got;
  Alcotest.(check int) "snoop saw nothing" 0 !snoop_got

(* No spoofing: whatever the sender claims, the wire carries the
   endpoint's true source port (Overwrite policy). *)
let udp_no_spoofing () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let seen_src = ref (-1) in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        seen_src := ctx.Plexus.Pctx.src_port)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  (match
     Plexus.Udp_mgr.send_claiming udp_a client ~claimed_src_port:6666
       ~dst:(ip_b, 7) "forged?"
   with
  | Ok () -> ()
  | Error `Spoof_rejected -> Alcotest.fail "overwrite should accept");
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "wire carried the real source" 5000 !seen_src;
  (* under Verify, the forged claim is rejected outright *)
  Plexus.Udp_mgr.set_spoof_policy udp_a Plexus.Udp_mgr.Verify;
  (match
     Plexus.Udp_mgr.send_claiming udp_a client ~claimed_src_port:6666
       ~dst:(ip_b, 7) "forged?"
   with
  | Error `Spoof_rejected -> ()
  | Ok () -> Alcotest.fail "verify accepted a forged source");
  Alcotest.(check int) "rejection counted" 1
    (Plexus.Udp_mgr.counters udp_a).Plexus.Udp_mgr.spoof_rejected

let udp_corrupt_checksum_dropped () =
  let p = pair () in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> incr got)
  in
  (* Craft a full frame with a corrupted UDP checksum and inject it at
     the device level. *)
  let payload = Mbuf.of_string "corrupt-me" in
  Proto.Udp.encapsulate payload ~src:ip_a ~dst:ip_b ~src_port:5000 ~dst_port:7;
  View.set_u16 (Mbuf.view payload) 6 0xdead;
  Proto.Ipv4.encapsulate payload
    (Proto.Ipv4.make ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b
       ~payload_len:(Mbuf.length payload) ());
  let dev_a =
    Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.a)
  in
  let dev_b =
    Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b)
  in
  Proto.Ether.encapsulate payload
    {
      Proto.Ether.dst = Netsim.Dev.mac dev_b;
      src = Netsim.Dev.mac dev_a;
      etype = Proto.Ether.etype_ip;
    };
  Netsim.Dev.transmit dev_a payload;
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check int) "bad checksum counted" 1
    (Plexus.Udp_mgr.counters udp_b).Plexus.Udp_mgr.bad_checksum

(* One checksum-valid frame whose IP total length (2000) runs past its
   60 bytes, with MF set so it heads for reassembly.  IP must drop and
   count it without slicing past the frame's end: a raise there would be
   contained as a handler fault and uninstall the IP manager. *)
let ip_total_len_past_frame_dropped () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> incr got)
  in
  let dev_a = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.a) in
  let dev_b = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let frame = Mbuf.of_string (String.make 26 'x') in
  Proto.Ipv4.encapsulate frame
    (Proto.Ipv4.make ~more_fragments:true ~proto:Proto.Ipv4.proto_udp
       ~src:ip_a ~dst:ip_b ~payload_len:1980 ());
  Proto.Ether.encapsulate frame
    {
      Proto.Ether.dst = Netsim.Dev.mac dev_b;
      src = Netsim.Dev.mac dev_a;
      etype = Proto.Ether.etype_ip;
    };
  Alcotest.(check int) "a 60-byte frame" 60 (Mbuf.length frame);
  Netsim.Dev.transmit dev_a frame;
  Sim.Engine.run p.Experiments.Common.engine;
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "after one";
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "after two";
  Sim.Engine.run p.Experiments.Common.engine;
  let graph_b = Plexus.Stack.graph p.Experiments.Common.b in
  Alcotest.(check int) "no contained fault" 0
    (Spin.Dispatcher.faults (Plexus.Graph.dispatcher graph_b));
  let ip_c = Plexus.Ip_mgr.counters (Plexus.Stack.ip p.Experiments.Common.b) in
  Alcotest.(check int) "counted malformed" 1 ip_c.Plexus.Ip_mgr.malformed;
  Alcotest.(check int) "later datagrams delivered" 2 !got

(* Two checksum-valid fragments of one train whose chunks overlap: 104
   bytes at offset 0 (MF set), then a last fragment of 8 bytes at offset
   8, which makes the total 16 while 112 bytes have arrived.  Reassembly
   must drop the train instead of blitting 104 bytes into a 16-byte
   datagram: a raise there would be contained as a handler fault and
   uninstall the IP manager. *)
let ip_overlapping_fragments_dropped () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> incr got)
  in
  let dev_a = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.a) in
  let dev_b = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let fragment ~frag_offset ~more_fragments len =
    let frame = Mbuf.of_string (String.make len 'x') in
    Proto.Ipv4.encapsulate frame
      (Proto.Ipv4.make ~id:77 ~more_fragments ~frag_offset
         ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b ~payload_len:len ());
    Proto.Ether.encapsulate frame
      {
        Proto.Ether.dst = Netsim.Dev.mac dev_b;
        src = Netsim.Dev.mac dev_a;
        etype = Proto.Ether.etype_ip;
      };
    Netsim.Dev.transmit dev_a frame
  in
  fragment ~frag_offset:0 ~more_fragments:true 104;
  fragment ~frag_offset:1 ~more_fragments:false 8;
  Sim.Engine.run p.Experiments.Common.engine;
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "after one";
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "after two";
  Sim.Engine.run p.Experiments.Common.engine;
  let graph_b = Plexus.Stack.graph p.Experiments.Common.b in
  Alcotest.(check int) "no contained fault" 0
    (Spin.Dispatcher.faults (Plexus.Graph.dispatcher graph_b));
  let ip_b = Plexus.Stack.ip p.Experiments.Common.b in
  Alcotest.(check int) "counted malformed" 1
    (Plexus.Ip_mgr.counters ip_b).Plexus.Ip_mgr.malformed;
  Alcotest.(check int) "train dropped" 0
    (Proto.Ip_frag.pending_count (Plexus.Ip_mgr.frag_state ip_b));
  Alcotest.(check int) "later datagrams delivered" 2 !got

let udp_fragmentation_end_to_end () =
  let p = pair () in
  (* 5 KB datagram over a 1500-byte MTU: 4 fragments, reassembled at B *)
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let got = ref "" in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        got := View.to_string (Plexus.Pctx.view ctx))
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  let payload = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) payload;
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check bool) "reassembled intact" true (!got = payload);
  let ip_a_c = Plexus.Ip_mgr.counters (Plexus.Stack.ip p.Experiments.Common.a) in
  Alcotest.(check bool) "fragmented on send" true
    (ip_a_c.Plexus.Ip_mgr.fragments_out >= 4);
  let ip_b_c = Plexus.Ip_mgr.counters (Plexus.Stack.ip p.Experiments.Common.b) in
  Alcotest.(check int) "reassembled on receive" 1 ip_b_c.Plexus.Ip_mgr.reassembled

let arp_dynamic_resolution () =
  (* no priming: the first datagram triggers a real ARP exchange *)
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ()) ~a:("a", ip_a)
      ~b:("b", ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  let udp_a = Plexus.Stack.udp a and udp_b = Plexus.Stack.udp b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> incr got)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "needs arp";
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered after resolution" 1 !got;
  Alcotest.(check int) "one request went out" 1
    (Plexus.Arp_mgr.requests_sent (Plexus.Stack.arp a));
  Alcotest.(check int) "b answered" 1
    (Plexus.Arp_mgr.replies_sent (Plexus.Stack.arp b));
  (* second datagram is a cache hit: no new request *)
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "cached";
  Sim.Engine.run engine;
  Alcotest.(check int) "no second request" 1
    (Plexus.Arp_mgr.requests_sent (Plexus.Stack.arp a))

let icmp_echo () =
  let p = pair () in
  (* send an echo request from A's kernel; B's ICMP manager answers *)
  let msg = Proto.Icmp.echo_request ~ident:9 ~seq:1 "probe" in
  Plexus.Ip_mgr.send (Plexus.Stack.ip p.Experiments.Common.a)
    ~proto:Proto.Ipv4.proto_icmp ~dst:ip_b (Proto.Icmp.to_packet msg);
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "b answered the echo" 1
    (Plexus.Icmp_mgr.echos_answered (Plexus.Stack.icmp p.Experiments.Common.b));
  (* the reply made it back to A's ICMP layer *)
  Alcotest.(check int) "a received the reply" 1
    (Plexus.Icmp_mgr.rx (Plexus.Stack.icmp p.Experiments.Common.a))

(* ---- TCP over the graph -------------------------------------------------- *)

let tcp_over_plexus () =
  let p = pair () in
  let received = Buffer.create 64 in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
       ~owner:"srv" ~port:80
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun data ->
             Buffer.add_string received data;
             Plexus.Tcp_mgr.send conn ("ack:" ^ data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  let reply = ref "" in
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Experiments.Common.a)
       ~owner:"cli" ~dst:(ip_b, 80) ()
   with
  | Error _ -> Alcotest.fail "connect failed"
  | Ok conn ->
      Plexus.Tcp_mgr.on_established conn (fun () ->
          Plexus.Tcp_mgr.send conn "request");
      Plexus.Tcp_mgr.on_receive conn (fun data -> reply := !reply ^ data));
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 10);
  Alcotest.(check string) "server got request" "request"
    (Buffer.contents received);
  Alcotest.(check string) "client got reply" "ack:request" !reply

let tcp_port_conflict () =
  let p = pair () in
  let tcp = Plexus.Stack.tcp p.Experiments.Common.b in
  (match Plexus.Tcp_mgr.listen tcp ~owner:"one" ~port:80 ~on_accept:ignore () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first listen failed");
  match Plexus.Tcp_mgr.listen tcp ~owner:"two" ~port:80 ~on_accept:ignore () with
  | Error (`Port_in_use 80) -> ()
  | _ -> Alcotest.fail "double listen allowed"

(* Multiple implementations of TCP (section 3.1): the standard manager
   cedes a port set; an alternative handler claims exactly those. *)
let tcp_multiple_implementations () =
  let p = pair () in
  let b = p.Experiments.Common.b in
  let special_hits = ref 0 in
  Plexus.Tcp_mgr.exclude_ports (Plexus.Stack.tcp b) [ 9999 ];
  (* TCP-special: its own guarded handler on ip.PacketRecv *)
  let ip_node = Plexus.Ip_mgr.node (Plexus.Stack.ip b) in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install
      (Plexus.Graph.recv_event ip_node)
      ~guard:(fun ctx ->
        (match ctx.Plexus.Pctx.ip with
        | Some h -> h.Proto.Ipv4.proto = Proto.Ipv4.proto_tcp
        | None -> false)
        &&
        let v = Plexus.Pctx.view ctx in
        View.length v >= 4 && View.get_u16 v 2 = 9999)
      ~cost:(Sim.Stime.us 5)
      (fun _ -> incr special_hits)
  in
  (* a connection attempt to the special port reaches TCP-special only *)
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Experiments.Common.a)
       ~owner:"cli" ~dst:(ip_b, 9999) ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "connect failed");
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 1);
  Alcotest.(check bool) "TCP-special saw the SYN" true (!special_hits >= 1);
  Alcotest.(check int) "TCP-standard ignored it" 0
    (Plexus.Tcp_mgr.counters (Plexus.Stack.tcp b)).Plexus.Tcp_mgr.rx

(* ---- delivery modes ------------------------------------------------------- *)

let delivery_mode_switch () =
  let p = pair () in
  Plexus.Stack.set_delivery p.Experiments.Common.a Spin.Dispatcher.Thread;
  let g = Plexus.Stack.graph p.Experiments.Common.a in
  List.iter
    (fun n ->
      match Plexus.Graph.find_node g n with
      | Some node ->
          Alcotest.(check bool) (n ^ " in thread mode") true
            (Spin.Dispatcher.mode (Plexus.Graph.recv_event node)
            = Spin.Dispatcher.Thread)
      | None -> Alcotest.fail ("missing node " ^ n))
    [ "ip"; "udp"; "tcp" ]

(* ---- extension linking ----------------------------------------------------- *)

let extension_link_unlink () =
  let p = pair () in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  (* a receiver extension on B *)
  let received = Sim.Stats.Counter.create () in
  let bctx, bext =
    Apps.Active_messages.extension ~name:"rx"
      ~handlers:(fun _ idx ~src:_ _payload ->
        ignore idx;
        [ Spin.Ephemeral.count received ])
      ()
  in
  ignore bctx;
  let linked =
    match Plexus.Stack.link b bext with
    | Ok l -> l
    | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f
  in
  (* a sender extension on A *)
  let actx, aext =
    Apps.Active_messages.extension ~name:"tx"
      ~handlers:(fun _ _ ~src:_ _ -> Spin.Ephemeral.nothing)
      ()
  in
  (match Plexus.Stack.link a aext with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f);
  let dst = Plexus.Ether_mgr.mac (Plexus.Stack.ether b) in
  Apps.Active_messages.send actx ~dst ~handler:0 "one";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "message received while linked" 1
    (Sim.Stats.Counter.get received);
  (* unlink: the handler disappears from the graph, packets no longer
     reach the extension — "protocols come and go with their
     applications" *)
  Spin.Linker.unlink linked;
  Apps.Active_messages.send actx ~dst ~handler:0 "two";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "no delivery after unlink" 1
    (Sim.Stats.Counter.get received)

let extension_forged_rejected () =
  let p = pair () in
  let forged =
    Spin.Extension.Compiler.forge ~name:"evil"
      ~imports:[ (Plexus.Api.udp_iface, Plexus.Api.sym_bind) ]
      (fun _ -> ())
  in
  match Plexus.Stack.link p.Experiments.Common.a forged with
  | Error Spin.Extension.Unsigned -> ()
  | Ok _ -> Alcotest.fail "forged extension linked"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let extension_cannot_reach_kernel_internals () =
  let p = pair () in
  (* The app domain exposes Ether/Udp/Mbuf; an import of anything else
     fails to resolve. *)
  let nosy =
    Spin.Extension.Compiler.compile ~name:"nosy"
      ~imports:[ ("VirtualMemory", "MapPage") ]
      (fun _ -> ())
  in
  match Plexus.Stack.link p.Experiments.Common.a nosy with
  | Error (Spin.Extension.Unresolved [ ("VirtualMemory", "MapPage") ]) -> ()
  | Ok _ -> Alcotest.fail "kernel internals reachable from app domain"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

let ether_reserved_types () =
  let p = pair () in
  let ether = Plexus.Stack.ether p.Experiments.Common.a in
  match
    Plexus.Ether_mgr.install_handler ether ~owner:"evil"
      ~etype:Proto.Ether.etype_ip (fun _ -> ())
  with
  | Error (`Reserved_etype _) -> ()
  | Ok _ -> Alcotest.fail "allowed to snoop IP frames"

let suite =
  [
    ("plexus.graph", [ tc "figure-1 shape" graph_shape ]);
    ( "plexus.udp",
      [
        tc "end to end" udp_end_to_end;
        tc "port ownership" udp_port_ownership;
        tc "no snooping" udp_no_snooping;
        tc "no spoofing" udp_no_spoofing;
        tc "corrupt checksum dropped" udp_corrupt_checksum_dropped;
        tc "fragmentation end to end" udp_fragmentation_end_to_end;
        tc "IP total length past the frame dropped"
          ip_total_len_past_frame_dropped;
        tc "overlapping IP fragments dropped" ip_overlapping_fragments_dropped;
      ] );
    ( "plexus.control",
      [
        tc "dynamic ARP resolution" arp_dynamic_resolution;
        tc "ICMP echo answered in kernel" icmp_echo;
      ] );
    ( "plexus.tcp",
      [
        tc "connect/transfer/reply" tcp_over_plexus;
        tc "port conflicts" tcp_port_conflict;
        tc "multiple implementations" tcp_multiple_implementations;
      ] );
    ("plexus.delivery", [ tc "mode switch" delivery_mode_switch ]);
    ( "plexus.extensions",
      [
        tc "link and unlink at runtime" extension_link_unlink;
        tc "forged extension rejected" extension_forged_rejected;
        tc "kernel internals unreachable" extension_cannot_reach_kernel_internals;
        tc "reserved EtherTypes protected" ether_reserved_types;
      ] );
  ]
