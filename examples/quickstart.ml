(* Quickstart: two simulated workstations on a private Ethernet, a full
   Plexus protocol graph on each, and an application-specific UDP echo
   installed through the protocol managers.

   Run with:  dune exec examples/quickstart.exe *)

let ip_a = Proto.Ipaddr.v 10 0 1 1
let ip_b = Proto.Ipaddr.v 10 0 1 2

let () =
  (* 1. A simulation engine and two hosts joined by 10 Mb/s Ethernet. *)
  let engine = Sim.Engine.create () in
  let a, b =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ()) ~a:("alice", ip_a)
      ~b:("bob", ip_b)
  in
  (* Set PLEXUS_TRACE=1 to print every span both kernels emit (raises,
     handler runs, drops) to stderr. *)
  if Sys.getenv_opt "PLEXUS_TRACE" = Some "1" then
    List.iter
      (fun e ->
        Observe.Trace.set_sink
          (Spin.Kernel.trace (Netsim.Host.kernel e.Netsim.Network.host))
          Observe.Trace.Stderr)
      [ a; b ];

  (* 2. Build the Figure-1 protocol graph on each host. *)
  let alice = Plexus.Stack.build a.Netsim.Network.host in
  let bob = Plexus.Stack.build b.Netsim.Network.host in
  print_string (Plexus.Graph.to_dot (Plexus.Stack.graph alice));

  (* 3. Bob binds a UDP endpoint and installs a guarded receive handler:
     the manager derives the guard, so this handler sees port 7 only. *)
  let udp_bob = Plexus.Stack.udp bob in
  let echo =
    match Plexus.Udp_mgr.bind udp_bob ~owner:"echo-server" ~port:7 with
    | Ok ep -> ep
    | Error (`Port_in_use p) -> failwith (Printf.sprintf "port %d in use" p)
  in
  let (_uninstall : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_bob echo (fun ctx ->
        let payload = View.to_string (Plexus.Pctx.view ctx) in
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Printf.printf "[bob]   %s <- %s\n" payload (Proto.Ipaddr.to_string src);
        Plexus.Udp_mgr.send udp_bob echo
          ~dst:(src, ctx.Plexus.Pctx.src_port)
          (String.uppercase_ascii payload))
  in

  (* 4. Alice binds her own endpoint and pings. *)
  let udp_alice = Plexus.Stack.udp alice in
  let client =
    match Plexus.Udp_mgr.bind udp_alice ~owner:"client" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let sent_at = ref Sim.Stime.zero in
  let (_uninstall : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_alice client (fun ctx ->
        let rtt = Sim.Stime.sub (Sim.Engine.now engine) !sent_at in
        Printf.printf "[alice] reply %S after %s\n"
          (View.to_string (Plexus.Pctx.view ctx))
          (Sim.Stime.to_string rtt))
  in
  sent_at := Sim.Engine.now engine;
  Plexus.Udp_mgr.send udp_alice client ~dst:(ip_b, 7) "hello plexus";

  (* 5. Run the world.  The first datagram also triggers a real ARP
     exchange — watch the counters. *)
  Sim.Engine.run engine;
  Printf.printf "arp requests by alice: %d, replies by bob: %d\n"
    (Plexus.Arp_mgr.requests_sent (Plexus.Stack.arp alice))
    (Plexus.Arp_mgr.replies_sent (Plexus.Stack.arp bob))
