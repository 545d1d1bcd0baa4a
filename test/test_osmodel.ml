(* Tests for the DIGITAL UNIX baseline: sockets over the monolithic
   stack, user/kernel boundary accounting, and the user-level splice. *)

let tc name f = Alcotest.test_case name `Quick f

let ip_a = Experiments.Common.ip_a
let ip_b = Experiments.Common.ip_b

let pair () = Experiments.Common.du_pair (Netsim.Costs.ethernet ())

let udp_sockets_end_to_end () =
  let p = pair () in
  let server =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dub ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref [] in
  Osmodel.Du_stack.udp_set_recv server (fun ~src data ->
      got := (snd src, data) :: !got);
  let client =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  Osmodel.Du_stack.udp_sendto p.Experiments.Common.dua client ~dst:(ip_b, 7)
    "first";
  Osmodel.Du_stack.udp_sendto p.Experiments.Common.dua client ~dst:(ip_b, 7)
    "second";
  Sim.Engine.run p.Experiments.Common.du_engine;
  Alcotest.(check (list (pair int string)))
    "delivered in order with source"
    [ (5000, "first"); (5000, "second") ]
    (List.rev !got);
  Alcotest.(check int) "counter" 2
    (Osmodel.Du_stack.counters p.Experiments.Common.dub).Osmodel.Du_stack.udp_delivered

let udp_bind_conflict () =
  let p = pair () in
  (match Osmodel.Du_stack.udp_bind p.Experiments.Common.dub ~port:7 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first bind failed");
  match Osmodel.Du_stack.udp_bind p.Experiments.Common.dub ~port:7 with
  | Error (`Port_in_use 7) -> ()
  | _ -> Alcotest.fail "double bind allowed"

let boundary_costs_charged () =
  (* A DU send must cost strictly more CPU than the in-kernel path: trap,
     copy and socket processing are visible in the cpu accounting. *)
  let p = pair () in
  (* a sink so the receiver does not answer with ICMP unreachable *)
  (match Osmodel.Du_stack.udp_bind p.Experiments.Common.dub ~port:7 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "bind failed");
  let client =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let cpu = Netsim.Host.cpu (Osmodel.Du_stack.host p.Experiments.Common.dua) in
  Osmodel.Du_stack.udp_sendto p.Experiments.Common.dua client ~dst:(ip_b, 7)
    (String.make 1000 'x');
  Sim.Engine.run p.Experiments.Common.du_engine;
  let du_cost = Sim.Stime.to_us (Sim.Cpu.busy_time cpu) in
  (* trap 10 + copy 5+30 + socket 12 + udp 11 + ip 13 + ether 8 + tx 70 ~ 159 *)
  Alcotest.(check bool)
    (Printf.sprintf "boundary visible (%.1fus)" du_cost)
    true
    (du_cost > 145. && du_cost < 200.)

let icmp_echo_in_kernel () =
  let p = pair () in
  let du_a = p.Experiments.Common.dua in
  (* inject an echo request from A's kernel *)
  let msg = Proto.Icmp.echo_request ~ident:3 ~seq:9 "hi" in
  Osmodel.Du_stack.prime_arp du_a ip_b
    (Netsim.Dev.mac
       (List.hd (Netsim.Host.devices (Osmodel.Du_stack.host p.Experiments.Common.dub))));
  ignore msg;
  (* go through the public path: no raw IP send is exposed, so use the
     socket API to at least verify UDP echo behaviour covered elsewhere;
     here we instead check the counter wiring via a hand-built frame *)
  let pkt = Proto.Icmp.to_packet (Proto.Icmp.echo_request ~ident:3 ~seq:9 "hi") in
  Proto.Ipv4.encapsulate pkt
    (Proto.Ipv4.make ~proto:Proto.Ipv4.proto_icmp ~src:ip_a ~dst:ip_b
       ~payload_len:(Mbuf.length pkt) ());
  let dev_a = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host du_a)) in
  let dev_b =
    List.hd (Netsim.Host.devices (Osmodel.Du_stack.host p.Experiments.Common.dub))
  in
  Proto.Ether.encapsulate pkt
    {
      Proto.Ether.dst = Netsim.Dev.mac dev_b;
      src = Netsim.Dev.mac dev_a;
      etype = Proto.Ether.etype_ip;
    };
  Netsim.Dev.transmit dev_a pkt;
  Sim.Engine.run p.Experiments.Common.du_engine;
  Alcotest.(check int) "echo answered" 1
    (Osmodel.Du_stack.counters p.Experiments.Common.dub).Osmodel.Du_stack.echos_answered

let tcp_sockets_end_to_end () =
  let p = pair () in
  let received = Buffer.create 64 in
  (match
     Osmodel.Du_stack.tcp_listen p.Experiments.Common.dub ~port:80
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn (fun data ->
             let data = View.to_string data in
             Buffer.add_string received data;
             Osmodel.Du_stack.tcp_send p.Experiments.Common.dub conn
               ("resp:" ^ data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  let reply = ref "" in
  let conn =
    Osmodel.Du_stack.tcp_connect p.Experiments.Common.dua ~dst:(ip_b, 80) ()
  in
  Osmodel.Du_stack.on_established conn (fun () ->
      Osmodel.Du_stack.tcp_send p.Experiments.Common.dua conn "query");
  Osmodel.Du_stack.on_receive conn (fun data -> reply := !reply ^ View.to_string data);
  Sim.Engine.run p.Experiments.Common.du_engine ~until:(Sim.Stime.s 10);
  Alcotest.(check string) "server received" "query" (Buffer.contents received);
  Alcotest.(check string) "client received" "resp:query" !reply

let tcp_bulk_over_du () =
  let p = pair () in
  let total = ref 0 in
  (match
     Osmodel.Du_stack.tcp_listen p.Experiments.Common.dub ~port:80
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn (fun data ->
             total := !total + View.length data))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  let conn =
    Osmodel.Du_stack.tcp_connect p.Experiments.Common.dua ~dst:(ip_b, 80) ()
  in
  Osmodel.Du_stack.on_established conn (fun () ->
      Osmodel.Du_stack.tcp_send p.Experiments.Common.dua conn
        (String.make 100_000 'b'));
  Sim.Engine.run p.Experiments.Common.du_engine ~until:(Sim.Stime.s 30);
  Alcotest.(check int) "all delivered" 100_000 !total

let splice_relays () =
  let engine = Sim.Engine.create () in
  let c, (m1, m2), s =
    Netsim.Network.line3 engine (Netsim.Costs.ethernet ())
      ~client:("client", Experiments.Common.ip_client)
      ~middle:("middle", Experiments.Common.ip_middle)
      ~server:("server", Experiments.Common.ip_server)
  in
  let client = Osmodel.Du_stack.create c.Netsim.Network.host in
  let middle =
    Osmodel.Du_stack.create
      ~subnets:[ (Experiments.Common.net1, 24); (Experiments.Common.net2, 24) ]
      m1.Netsim.Network.host
  in
  let server = Osmodel.Du_stack.create s.Netsim.Network.host in
  Osmodel.Du_stack.prime_arp client Experiments.Common.ip_middle
    (Netsim.Dev.mac m1.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp middle Experiments.Common.ip_client
    (Netsim.Dev.mac c.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp middle Experiments.Common.ip_server
    (Netsim.Dev.mac s.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp server Experiments.Common.ip_middle
    (Netsim.Dev.mac m2.Netsim.Network.dev);
  let splice =
    Osmodel.Splice.create middle ~listen_port:8080
      ~backend:(Experiments.Common.ip_server, 8080)
  in
  let server_got = Buffer.create 64 in
  (match
     Osmodel.Du_stack.tcp_listen server ~port:8080
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn (fun data ->
             let data = View.to_string data in
             Buffer.add_string server_got data;
             Osmodel.Du_stack.tcp_send server conn ("echo:" ^ data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "server listen failed");
  let client_got = ref "" in
  let conn =
    Osmodel.Du_stack.tcp_connect client ~dst:(Experiments.Common.ip_middle, 8080) ()
  in
  Osmodel.Du_stack.on_established conn (fun () ->
      Osmodel.Du_stack.tcp_send client conn "through-the-splice");
  Osmodel.Du_stack.on_receive conn (fun data -> client_got := !client_got ^ View.to_string data);
  Sim.Engine.run engine ~until:(Sim.Stime.s 20);
  Alcotest.(check string) "server saw relayed bytes" "through-the-splice"
    (Buffer.contents server_got);
  Alcotest.(check string) "reply relayed back" "echo:through-the-splice"
    !client_got;
  Alcotest.(check int) "one session" 1 (Osmodel.Splice.sessions splice);
  Alcotest.(check bool) "bytes counted" true
    (Osmodel.Splice.forwarded_bytes splice >= String.length "through-the-splice")

(* ---- one hostile frame ------------------------------------------------- *)

(* Checksum-valid IP frames whose total length the frame cannot hold: 60
   bytes claiming 2000 with MF set (headed for reassembly), and one
   claiming less than its own header.  Each baseline must drop them
   without slicing past the frame, and keep delivering. *)
let bad_total_len_frames ~src_dev ~dst_dev =
  let frame ~more_fragments ~payload_len =
    let f = Mbuf.of_string (String.make 26 'x') in
    Proto.Ipv4.encapsulate f
      (Proto.Ipv4.make ~more_fragments ~proto:Proto.Ipv4.proto_udp ~src:ip_a
         ~dst:ip_b ~payload_len ());
    Proto.Ether.encapsulate f
      {
        Proto.Ether.dst = Netsim.Dev.mac dst_dev;
        src = Netsim.Dev.mac src_dev;
        etype = Proto.Ether.etype_ip;
      };
    f
  in
  let past_end = frame ~more_fragments:true ~payload_len:1980 in
  Alcotest.(check int) "a 60-byte frame" 60 (Mbuf.length past_end);
  [ past_end; frame ~more_fragments:false ~payload_len:(-10) ]

let du_drops_bad_total_len () =
  let p = pair () in
  let server =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dub ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref [] in
  Osmodel.Du_stack.udp_set_recv server (fun ~src:_ data -> got := data :: !got);
  let dev host = List.hd (Netsim.Host.devices (Osmodel.Du_stack.host host)) in
  let src_dev = dev p.Experiments.Common.dua
  and dst_dev = dev p.Experiments.Common.dub in
  List.iter (Netsim.Dev.transmit src_dev) (bad_total_len_frames ~src_dev ~dst_dev);
  Sim.Engine.run p.Experiments.Common.du_engine;
  let client =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  Osmodel.Du_stack.udp_sendto p.Experiments.Common.dua client ~dst:(ip_b, 7)
    "after";
  Sim.Engine.run p.Experiments.Common.du_engine;
  Alcotest.(check (list string)) "later datagram delivered" [ "after" ] !got

let ulib_drops_bad_total_len () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ()) ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let ua = Osmodel.Ulib.create ea.Netsim.Network.host in
  let ub = Osmodel.Ulib.create eb.Netsim.Network.host in
  Osmodel.Ulib.prime_arp ua ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Ulib.prime_arp ub ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
  let server =
    match Osmodel.Ulib.udp_bind ub ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref [] in
  Osmodel.Ulib.udp_set_recv server (fun ~src:_ data -> got := data :: !got);
  let src_dev = ea.Netsim.Network.dev and dst_dev = eb.Netsim.Network.dev in
  List.iter (Netsim.Dev.transmit src_dev) (bad_total_len_frames ~src_dev ~dst_dev);
  Sim.Engine.run engine;
  let client =
    match Osmodel.Ulib.udp_bind ua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  Osmodel.Ulib.udp_sendto ua client ~dst:(ip_b, 7) "after";
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "later datagram delivered" [ "after" ] !got

let suite =
  [
    ( "osmodel.udp",
      [
        tc "sockets end to end" udp_sockets_end_to_end;
        tc "bind conflict" udp_bind_conflict;
        tc "boundary costs charged" boundary_costs_charged;
      ] );
    ("osmodel.icmp", [ tc "kernel echo" icmp_echo_in_kernel ]);
    ( "osmodel.tcp",
      [
        tc "sockets end to end" tcp_sockets_end_to_end;
        tc "bulk transfer" tcp_bulk_over_du;
      ] );
    ("osmodel.splice", [ tc "user-level relay" splice_relays ]);
    ( "osmodel.hostile",
      [
        tc "du drops a total length past the frame" du_drops_bad_total_len;
        tc "ulib drops a total length past the frame" ulib_drops_bad_total_len;
      ] );
  ]
