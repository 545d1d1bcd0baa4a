(* The load-balancing forwarder of paper section 5.2: an application
   installs a node into the middle host's protocol graph that redirects
   every packet for a service port to a backend — including TCP control
   packets, so connection establishment stays end-to-end.  Compare with
   the user-level splice in the same topology.

   Run with:  dune exec examples/forwarding.exe *)

let service = 8080

let () =
  (* --- Plexus: in-kernel forwarder ---------------------------------- *)
  let engine = Sim.Engine.create () in
  let c, (m1, m2), s =
    Netsim.Network.line3 engine (Netsim.Costs.ethernet ())
      ~client:("client", Experiments.Common.ip_client)
      ~middle:("middle", Experiments.Common.ip_middle)
      ~server:("server", Experiments.Common.ip_server)
  in
  let client = Plexus.Stack.build c.Netsim.Network.host in
  let middle =
    Plexus.Stack.build
      ~subnets:[ (Experiments.Common.net1, 24); (Experiments.Common.net2, 24) ]
      m1.Netsim.Network.host
  in
  let server = Plexus.Stack.build s.Netsim.Network.host in
  Plexus.Arp_mgr.prime (Plexus.Stack.arp client) Experiments.Common.ip_middle
    (Netsim.Dev.mac m1.Netsim.Network.dev);
  Plexus.Arp_mgr.prime
    (List.nth (Plexus.Stack.arps middle) 0)
    Experiments.Common.ip_client
    (Netsim.Dev.mac c.Netsim.Network.dev);
  Plexus.Arp_mgr.prime
    (List.nth (Plexus.Stack.arps middle) 1)
    Experiments.Common.ip_server
    (Netsim.Dev.mac s.Netsim.Network.dev);
  Plexus.Arp_mgr.prime (Plexus.Stack.arp server) Experiments.Common.ip_middle
    (Netsim.Dev.mac m2.Netsim.Network.dev);
  Plexus.Tcp_mgr.exclude_ports (Plexus.Stack.tcp middle) [ service ];
  Plexus.Tcp_mgr.exclude_src_ports (Plexus.Stack.tcp middle) [ service ];
  let fwd =
    Apps.Forwarder.create middle ~listen_port:service
      ~backend:(Experiments.Common.ip_server, service)
  in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp server) ~owner:"backend"
       ~port:service
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun data ->
             Plexus.Tcp_mgr.send conn ("pong:" ^ View.to_string data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  let t0 = ref Sim.Stime.zero in
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp client) ~owner:"client"
       ~dst:(Experiments.Common.ip_middle, service) ()
   with
  | Error _ -> assert false
  | Ok conn ->
      Plexus.Tcp_mgr.on_established conn (fun () ->
          Printf.printf
            "plexus: TCP established end-to-end THROUGH the forwarder\n";
          t0 := Sim.Engine.now engine;
          Plexus.Tcp_mgr.send conn "ping");
      Plexus.Tcp_mgr.on_receive conn (fun data ->
          Printf.printf "plexus: %S after %s (fwd %d pkts, back %d pkts)\n"
            (View.to_string data)
            (Sim.Stime.to_string (Sim.Stime.sub (Sim.Engine.now engine) !t0))
            (Apps.Forwarder.forwarded fwd)
            (Apps.Forwarder.returned fwd)));
  Sim.Engine.run engine ~until:(Sim.Stime.s 5) ~max_events:10_000_000;

  (* --- DIGITAL UNIX: user-level splice -------------------------------- *)
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
  let _splice =
    Osmodel.Splice.create middle ~listen_port:service
      ~backend:(Experiments.Common.ip_server, service)
  in
  (match
     Osmodel.Du_stack.tcp_listen server ~port:service
       ~on_accept:(fun conn ->
         Osmodel.Du_stack.on_receive conn (fun data ->
             Osmodel.Du_stack.tcp_send server conn ("pong:" ^ View.to_string data)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  let t0 = ref Sim.Stime.zero in
  let conn =
    Osmodel.Du_stack.tcp_connect client
      ~dst:(Experiments.Common.ip_middle, service) ()
  in
  Osmodel.Du_stack.on_established conn (fun () ->
      Printf.printf
        "du: TCP established TO THE SPLICE (not the backend: semantics broken)\n";
      t0 := Sim.Engine.now engine;
      Osmodel.Du_stack.tcp_send client conn "ping");
  Osmodel.Du_stack.on_receive conn (fun data ->
      Printf.printf "du: %S after %s\n" (View.to_string data)
        (Sim.Stime.to_string (Sim.Stime.sub (Sim.Engine.now engine) !t0)));
  Sim.Engine.run engine ~until:(Sim.Stime.s 5) ~max_events:10_000_000
