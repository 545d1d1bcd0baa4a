(* Figure 7: TCP redirection latency — the in-kernel Plexus forwarder
   against the DIGITAL UNIX user-level splice.

   Topology: client -- middle -- server.  The client opens a TCP
   connection to the middle host's forwarded port and ping-pongs a
   message with the echo server behind it; we report the mean
   application-level round trip per payload size.  The Plexus forwarder
   rewrites headers below the transport layer (end-to-end TCP semantics
   preserved); the splice terminates TCP at user level, costing two full
   stack traversals and two boundary crossings per packet. *)

let service_port = 8080

type row = { payload : int; plexus_us : float; du_us : float }

let sizes = [ 64; 256; 512; 1024; 1460 ]

(* Run one echo ping-pong session over an opening connection and return
   its mean RTT in µs.  A request counts as answered once [payload_len]
   bytes have come back. *)
let echo_rtt ~engine ~send ~on_receive ~on_established ~payload_len ~warmup
    ~iters =
  let loop = Common.Pingpong.create ~warmup ~iters engine in
  let payload = String.make payload_len 'p' in
  let got = ref 0 in
  on_receive (fun data ->
      got := !got + View.length data;
      if !got >= payload_len then Common.Pingpong.pong loop);
  on_established (fun () ->
      Common.Pingpong.start loop (fun () ->
          got := 0;
          send payload));
  Sim.Engine.run engine ~until:(Sim.Stime.s 120) ~max_events:50_000_000;
  Common.Pingpong.mean_us loop

let plexus_rtt ?(warmup = 5) ?(iters = 50) ~payload_len params =
  let engine = Sim.Engine.create () in
  let c, (m1, m2), s =
    Netsim.Network.line3 engine params
      ~client:("client", Common.ip_client)
      ~middle:("middle", Common.ip_middle)
      ~server:("server", Common.ip_server)
  in
  let client = Plexus.Stack.build c.Netsim.Network.host in
  let middle =
    Plexus.Stack.build
      ~subnets:[ (Common.net1, 24); (Common.net2, 24) ]
      m1.Netsim.Network.host
  in
  let server = Plexus.Stack.build s.Netsim.Network.host in
  (* steady-state ARP *)
  Plexus.Arp_mgr.prime (Plexus.Stack.arp client) Common.ip_middle
    (Netsim.Dev.mac m1.Netsim.Network.dev);
  Plexus.Arp_mgr.prime (List.nth (Plexus.Stack.arps middle) 0) Common.ip_client
    (Netsim.Dev.mac c.Netsim.Network.dev);
  Plexus.Arp_mgr.prime (List.nth (Plexus.Stack.arps middle) 1) Common.ip_server
    (Netsim.Dev.mac s.Netsim.Network.dev);
  Plexus.Arp_mgr.prime (Plexus.Stack.arp server) Common.ip_middle
    (Netsim.Dev.mac m2.Netsim.Network.dev);
  (* The middle host's standard TCP cedes the forwarded ports. *)
  Plexus.Tcp_mgr.exclude_ports (Plexus.Stack.tcp middle) [ service_port ];
  Plexus.Tcp_mgr.exclude_src_ports (Plexus.Stack.tcp middle) [ service_port ];
  let (_fwd : Apps.Forwarder.t) =
    Apps.Forwarder.create middle ~listen_port:service_port
      ~backend:(Common.ip_server, service_port)
  in
  (* echo server behind the forwarder *)
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp server) ~owner:"echo"
       ~port:service_port
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun data ->
             Plexus.Tcp_mgr.send conn (View.to_string data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  match
    Plexus.Tcp_mgr.connect (Plexus.Stack.tcp client) ~owner:"pinger"
      ~dst:(Common.ip_middle, service_port) ()
  with
  | Error _ -> assert false
  | Ok conn ->
      echo_rtt ~engine ~send:(Plexus.Tcp_mgr.send conn)
        ~on_receive:(Plexus.Tcp_mgr.on_receive conn)
        ~on_established:(Plexus.Tcp_mgr.on_established conn)
        ~payload_len ~warmup ~iters

let du_rtt ?(warmup = 5) ?(iters = 50) ~payload_len params =
  let engine = Sim.Engine.create () in
  let c, (m1, m2), s =
    Netsim.Network.line3 engine params
      ~client:("client", Common.ip_client)
      ~middle:("middle", Common.ip_middle)
      ~server:("server", Common.ip_server)
  in
  let client = Osmodel.Du_stack.create c.Netsim.Network.host in
  let middle =
    Osmodel.Du_stack.create
      ~subnets:[ (Common.net1, 24); (Common.net2, 24) ]
      m1.Netsim.Network.host
  in
  let server = Osmodel.Du_stack.create s.Netsim.Network.host in
  Osmodel.Du_stack.prime_arp client Common.ip_middle
    (Netsim.Dev.mac m1.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp middle Common.ip_client
    (Netsim.Dev.mac c.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp middle Common.ip_server
    (Netsim.Dev.mac s.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp server Common.ip_middle
    (Netsim.Dev.mac m2.Netsim.Network.dev);
  let (_splice : Osmodel.Splice.t) =
    Osmodel.Splice.create middle ~listen_port:service_port
      ~backend:(Common.ip_server, service_port)
  in
  (match
     Osmodel.Du_stack.tcp_listen server ~port:service_port
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn (fun data ->
             Osmodel.Du_stack.tcp_send server conn (View.to_string data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  let conn =
    Osmodel.Du_stack.tcp_connect client ~dst:(Common.ip_middle, service_port) ()
  in
  echo_rtt ~engine ~send:(Osmodel.Du_stack.tcp_send client conn)
    ~on_receive:(Osmodel.Du_stack.on_receive conn)
    ~on_established:(Osmodel.Du_stack.on_established conn)
    ~payload_len ~warmup ~iters

let run ?(params = Netsim.Costs.ethernet ()) ?warmup ?iters () =
  List.map
    (fun payload ->
      {
        payload;
        plexus_us = plexus_rtt ?warmup ?iters ~payload_len:payload params;
        du_us = du_rtt ?warmup ?iters ~payload_len:payload params;
      })
    sizes

let print ?params ?warmup ?iters () =
  Common.print_header
    "Figure 7: TCP redirection latency through a forwarder (Ethernet, microseconds RTT)";
  Printf.printf "%10s %12s %12s %8s\n" "payload" "plexus" "du-splice" "ratio";
  let rows = run ?params ?warmup ?iters () in
  List.iter
    (fun r ->
      Printf.printf "%10d %12.1f %12.1f %8.2f\n" r.payload r.plexus_us r.du_us
        (r.du_us /. r.plexus_us))
    rows;
  Printf.printf
    "(paper: the user-level splice cannot preserve end-to-end TCP semantics and\n\
    \ makes two boundary crossings per packet; Plexus forwards below transport)\n";
  rows
