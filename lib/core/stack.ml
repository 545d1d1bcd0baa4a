(* Full Plexus stack assembly on one host: builds the Figure 1 protocol
   graph (device -> {arp, ip} -> {icmp, udp, tcp}), and publishes the
   manager operations as SPIN interface symbols so that application
   extensions can be dynamically linked against a restricted protection
   domain. *)

type t = {
  host : Netsim.Host.t;
  graph : Graph.t;
  ethers : Ether_mgr.t list;
  arps : Arp_mgr.t list;
  ip : Ip_mgr.t;
  icmp : Icmp_mgr.t;
  udp : Udp_mgr.t;
  tcp : Tcp_mgr.t;
  app_domain : Spin.Domain.t;
}

let subnet_of ip = (ip, 24)

let export_interfaces kernel t =
  let open Spin in
  let ether = List.hd t.ethers in
  let i_ether = Kernel.declare_interface kernel Api.ether_iface in
  Interface.export i_ether ~sym:Api.sym_install_handler Api.ether_install_w
    (fun ~owner ~etype ~budget fn ->
      match Ether_mgr.install_ephemeral ether ~owner ~etype ?budget fn with
      | Ok un -> Ok un
      | Error (`Reserved_etype e) ->
          Error (Printf.sprintf "EtherType 0x%04x is reserved" e));
  Interface.export i_ether ~sym:Api.sym_send Api.ether_send_w
    (fun ~dst ~etype pkt ->
      Ether_mgr.send ether (Ether_mgr.prio ether) ~dst ~etype pkt);
  let i_udp = Kernel.declare_interface kernel Api.udp_iface in
  Interface.export i_udp ~sym:Api.sym_bind Api.udp_bind_w (fun ~owner ~port ->
      match Udp_mgr.bind t.udp ~owner ~port with
      | Ok ep -> Ok ep
      | Error (`Port_in_use p) -> Error (Printf.sprintf "port %d in use" p));
  Interface.export i_udp ~sym:Api.sym_install_recv Api.udp_install_recv_w
    (fun ep fn -> Udp_mgr.install_recv t.udp ep fn);
  Interface.export i_udp ~sym:Api.sym_install_recv_ephemeral
    Api.udp_install_recv_ephemeral_w (fun ep ~budget fn ->
      Udp_mgr.install_recv_ephemeral t.udp ep ?budget fn);
  Interface.export i_udp ~sym:Api.sym_send Api.udp_send_w
    (fun ep ~dst ~checksum data -> Udp_mgr.send t.udp ep ~checksum ~dst data);
  let conn_ops conn =
    {
      Api.tc_send = (fun chunks -> Tcp_mgr.sendv conn chunks);
      tc_close = (fun () -> Tcp_mgr.close conn);
      tc_set_receive = (fun fn -> Tcp_mgr.on_receive conn fn);
      tc_set_peer_close = (fun fn -> Tcp_mgr.on_peer_close conn fn);
      tc_set_close = (fun fn -> Tcp_mgr.on_close conn fn);
    }
  in
  let i_tcp = Kernel.declare_interface kernel Api.tcp_iface in
  Interface.export i_tcp ~sym:Api.sym_listen Api.tcp_listen_w
    (fun ~owner ~port ~on_accept ->
      match
        Tcp_mgr.listen t.tcp ~owner ~port
          ~on_accept:(fun conn -> on_accept (conn_ops conn))
          ()
      with
      | Ok () -> Ok (fun () -> Tcp_mgr.unlisten t.tcp port)
      | Error (`Port_in_use p) -> Error (Printf.sprintf "port %d in use" p));
  Interface.export i_tcp ~sym:Api.sym_connect Api.tcp_connect_w
    (fun ~owner ~dst ~on_established ->
      match Tcp_mgr.connect t.tcp ~owner ~dst () with
      | Ok conn ->
          Tcp_mgr.on_established conn (fun () -> on_established (conn_ops conn));
          Ok ()
      | Error (`Port_in_use p) -> Error (Printf.sprintf "port %d in use" p)
      | Error `Ephemeral_exhausted -> Error "ephemeral ports exhausted");
  (* "There is also a kernel domain that contains the interface for
     allocating packet buffers (most extensions have access to this
     domain)." *)
  let i_mbuf = Kernel.declare_interface kernel Api.mbuf_iface in
  Interface.export i_mbuf ~sym:Api.sym_alloc Api.mbuf_alloc_w (fun n ->
      Mbuf.alloc n)

(* Build the stack over every device already attached to the host.
   [subnets] gives (network, mask) per device in order; by default each
   device's subnet is the host address's /24. *)
let build ?subnets host =
  let graph = Graph.create host in
  let devs = Netsim.Host.devices host in
  if devs = [] then invalid_arg "Stack.build: host has no devices";
  let subnets =
    match subnets with
    | Some s ->
        if List.length s <> List.length devs then
          invalid_arg "Stack.build: one subnet per device required";
        s
    | None -> List.map (fun _ -> subnet_of (Netsim.Host.ip host)) devs
  in
  let ip = Ip_mgr.create graph in
  let ethers = List.map (fun dev -> Ether_mgr.create graph dev) devs in
  let arps =
    List.map
      (fun e -> Arp_mgr.create graph e ~ip:(Netsim.Host.ip host))
      ethers
  in
  List.iter2
    (fun (e, a) (net, mask_bits) -> Ip_mgr.attach ip e a ~net ~mask_bits)
    (List.combine ethers arps)
    subnets;
  let icmp = Icmp_mgr.create graph ip in
  let udp = Udp_mgr.create graph ip in
  let tcp = Tcp_mgr.create graph ip in
  let kernel = Netsim.Host.kernel host in
  let t =
    {
      host;
      graph;
      ethers;
      arps;
      ip;
      icmp;
      udp;
      tcp;
      app_domain = Spin.Domain.create (Netsim.Host.name host ^ ".app");
    }
  in
  export_interfaces kernel t;
  List.iter
    (fun iname ->
      match Spin.Kernel.find_interface kernel iname with
      | Some i -> Spin.Domain.add t.app_domain i
      | None -> ())
    [ Api.ether_iface; Api.udp_iface; Api.tcp_iface; Api.mbuf_iface ];
  t

let host t = t.host
let graph t = t.graph
let ether t = List.hd t.ethers
let ethers t = t.ethers
let arp t = List.hd t.arps
let arps t = t.arps
let ip t = t.ip
let icmp t = t.icmp
let udp t = t.udp
let tcp t = t.tcp

(* The protection domain handed to untrusted application extensions:
   protocol manager operations and the packet-buffer allocator — no raw
   device or kernel internals. *)
let app_domain t = t.app_domain

let set_delivery t mode = Graph.set_delivery t.graph mode

(* Link an application extension against this stack's restricted domain. *)
let link t ext = Spin.Kernel.link (Netsim.Host.kernel t.host) ~domain:t.app_domain ext

(* A one-stop diagnostics dump: dispatcher, per-layer and per-device
   counters.  Useful after any workload. *)
let report t =
  let b = Buffer.create 512 in
  let disp = Spin.Kernel.dispatcher (Netsim.Host.kernel t.host) in
  Buffer.add_string b
    (Printf.sprintf "[%s] dispatcher: raises=%d guards=%d invocations=%d terminations=%d faults=%d\n"
       (Netsim.Host.name t.host)
       (Spin.Dispatcher.raises disp)
       (Spin.Dispatcher.guard_evals disp)
       (Spin.Dispatcher.invocations disp)
       (Spin.Dispatcher.terminations disp)
       (Spin.Dispatcher.faults disp));
  let ic = Ip_mgr.counters t.ip in
  Buffer.add_string b
    (Printf.sprintf
       "  ip: rx=%d delivered=%d bad_cksum=%d malformed=%d not_ours=%d frags_out=%d reassembled=%d\n"
       ic.Ip_mgr.rx ic.Ip_mgr.delivered ic.Ip_mgr.bad_checksum
       ic.Ip_mgr.malformed ic.Ip_mgr.not_ours ic.Ip_mgr.fragments_out
       (Proto.Ip_frag.reassembled_count (Ip_mgr.frag_state t.ip)));
  let uc = Udp_mgr.counters t.udp in
  Buffer.add_string b
    (Printf.sprintf
       "  udp: rx=%d delivered=%d tx=%d bad_cksum=%d malformed=%d no_port=%d unreachable=%d\n"
       uc.Udp_mgr.rx uc.Udp_mgr.delivered uc.Udp_mgr.tx uc.Udp_mgr.bad_checksum
       uc.Udp_mgr.malformed uc.Udp_mgr.no_port uc.Udp_mgr.unreachable_sent);
  let tcpc = Tcp_mgr.counters t.tcp in
  Buffer.add_string b
    (Printf.sprintf "  tcp: rx=%d accepted=%d no_match=%d bad_cksum=%d malformed=%d\n"
       tcpc.Tcp_mgr.rx tcpc.Tcp_mgr.accepted tcpc.Tcp_mgr.no_match
       tcpc.Tcp_mgr.bad_checksum tcpc.Tcp_mgr.malformed);
  List.iter
    (fun e ->
      let dev = Ether_mgr.dev e in
      let c = Netsim.Dev.counters dev in
      Buffer.add_string b
        (Printf.sprintf
           "  %s: tx=%d/%dB rx=%d/%dB drops(tx=%d rx=%d wire=%d)\n"
           (Netsim.Dev.name dev) c.Netsim.Dev.tx_packets c.Netsim.Dev.tx_bytes
           c.Netsim.Dev.rx_packets c.Netsim.Dev.rx_bytes c.Netsim.Dev.tx_drops
           c.Netsim.Dev.rx_drops c.Netsim.Dev.wire_drops))
    t.ethers;
  Buffer.contents b

(* Prime both ends' ARP caches — experiments measure steady state. *)
let prime_arp a b =
  List.iter2
    (fun arp_a eth_b ->
      Arp_mgr.prime arp_a (Netsim.Host.ip (Graph.host b.graph))
        (Ether_mgr.mac eth_b))
    [ List.hd a.arps ]
    [ List.hd b.ethers ];
  List.iter2
    (fun arp_b eth_a ->
      Arp_mgr.prime arp_b (Netsim.Host.ip (Graph.host a.graph))
        (Ether_mgr.mac eth_a))
    [ List.hd b.arps ]
    [ List.hd a.ethers ]
