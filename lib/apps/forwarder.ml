(* The in-kernel protocol forwarder (paper section 5.2).

   An application installs a node into the Plexus protocol graph that
   redirects all data *and control* packets destined for a particular
   port to a secondary host.  Because it operates below the transport
   layer, the client and backend TCP state machines talk directly to each
   other (sequence numbers, window negotiation, slow start, connection
   establishment and teardown are all end-to-end) — the forwarder only
   rewrites addresses, NAT-style, in both directions:

     forward:  client -> (middle, P)      becomes  (middle) -> (server, P')
     reverse:  server:P' -> (middle, cp)  becomes  (middle, P) -> (client, cp)

   Checksums are patched with RFC 1624 incremental updates, so the cost
   is independent of payload size — one of the structural advantages
   measured in Figure 7. *)

type counters = {
  mutable forwarded : int;
  mutable returned : int;
  mutable ttl_drops : int;
}

type t = {
  stack : Plexus.Stack.t;
  listen_port : int;
  server : Proto.Ipaddr.t;
  server_port : int;
  middle : Proto.Ipaddr.t;
  costs : Netsim.Costs.t;
  sessions : (int, Proto.Ipaddr.t) Hashtbl.t; (* client port -> client ip *)
  counters : counters;
  mutable uninstall : (unit -> unit) list;
}

let l4_cksum_offset proto =
  if proto = Proto.Ipv4.proto_tcp then Some Proto.Tcp_wire.Off.cksum
  else if proto = Proto.Ipv4.proto_udp then Some Proto.Udp.Off.cksum
  else None

let ip_words ip =
  let i = Proto.Ipaddr.to_int ip in
  ((i lsr 16) land 0xffff, i land 0xffff)

(* Incrementally patch the transport checksum after the pseudo-header
   addresses and one port changed. *)
let patch_cksum seg ~proto ~old_src ~new_src ~old_dst ~new_dst ~old_port
    ~new_port =
  match l4_cksum_offset proto with
  | None -> ()
  | Some cksum_off when View.length seg > cksum_off + 1 ->
      let c = View.get_u16 seg cksum_off in
      if proto = Proto.Ipv4.proto_udp && c = 0 then ()
        (* checksum disabled: nothing to patch *)
      else begin
        let c = ref c in
        let upd old_w new_w = c := Cksum.update ~cksum:!c ~old_w ~new_w in
        let os1, os2 = ip_words old_src and ns1, ns2 = ip_words new_src in
        let od1, od2 = ip_words old_dst and nd1, nd2 = ip_words new_dst in
        upd os1 ns1;
        upd os2 ns2;
        upd od1 nd1;
        upd od2 nd2;
        upd old_port new_port;
        View.set_u16 seg cksum_off !c
      end
  | Some _ -> ()

(* Rebuild and transmit a redirected packet.  A datagram whose TTL
   expires here is dropped and the sender notified (ICMP time
   exceeded) — the forwarder is a real IP hop. *)
let redirect t ctx ~new_src ~new_dst ~port_off ~new_port =
  let iph = Plexus.Pctx.ip_exn ctx in
  if iph.Proto.Ipv4.ttl <= 1 then begin
    t.counters.ttl_drops <- t.counters.ttl_drops + 1;
    let ip = Plexus.Stack.ip t.stack and dst = iph.Proto.Ipv4.src in
    Plexus.Ip_mgr.send ip (Plexus.Ip_mgr.prio ip ~dst)
      ~proto:Proto.Ipv4.proto_icmp ~dst
      (Proto.Icmp.error ~mtype:Proto.Icmp.type_time_exceeded ~code:0 iph
         (Plexus.Pctx.view ctx));
    false
  end
  else begin
  (* one copy, into the buffer that is transmitted, patched in place *)
  let src = Plexus.Pctx.view ctx in
  let len = View.length src in
  let pkt = Mbuf.alloc len in
  let seg = Mbuf.view pkt in
  View.blit ~src ~dst:seg ~src_off:0 ~dst_off:0 ~len;
  let old_port = View.get_u16 seg port_off in
  View.set_u16 seg port_off new_port;
  patch_cksum seg ~proto:iph.Proto.Ipv4.proto ~old_src:iph.Proto.Ipv4.src
    ~new_src ~old_dst:iph.Proto.Ipv4.dst ~new_dst ~old_port ~new_port;
  let hdr =
    {
      iph with
      Proto.Ipv4.src = new_src;
      dst = new_dst;
      ttl = iph.Proto.Ipv4.ttl - 1;
    }
  in
  Proto.Ipv4.encapsulate pkt hdr;
  let cpu = Netsim.Host.cpu (Plexus.Stack.host t.stack) in
  Sim.Cpu.run cpu ~prio:Sim.Cpu.Interrupt
    ~cost:t.costs.Netsim.Costs.fwd_rewrite (fun () ->
      Plexus.Ip_mgr.send_prepared (Plexus.Stack.ip t.stack) ~dst:new_dst pkt);
  true
  end

let is_transport ctx =
  match ctx.Plexus.Pctx.ip with
  | Some h ->
      h.Proto.Ipv4.proto = Proto.Ipv4.proto_tcp
      || h.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
  | None -> false

(* Guards: the forward direction matches transport packets whose
   destination port is the forwarded service; the reverse direction
   matches packets arriving from the backend's service port. *)
let forward_guard t ctx =
  is_transport ctx
  &&
  let v = Plexus.Pctx.view ctx in
  View.length v >= 4 && View.get_u16 v 2 = t.listen_port

let reverse_guard t ctx =
  is_transport ctx
  && Proto.Ipaddr.equal (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src t.server
  &&
  let v = Plexus.Pctx.view ctx in
  View.length v >= 4 && View.get_u16 v 0 = t.server_port

let create stack ~listen_port ~backend:(server, server_port) =
  let costs = Netsim.Host.costs (Plexus.Stack.host stack) in
  let t =
    {
      stack;
      listen_port;
      server;
      server_port;
      middle = Netsim.Host.ip (Plexus.Stack.host stack);
      costs;
      sessions = Hashtbl.create 16;
      counters = { forwarded = 0; returned = 0; ttl_drops = 0 };
      uninstall = [];
    }
  in
  let ip_node = Plexus.Ip_mgr.node (Plexus.Stack.ip stack) in
  let forward ctx =
    let v = Plexus.Pctx.view ctx in
    let client_port = View.get_u16 v 0 in
    Hashtbl.replace t.sessions client_port (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src;
    if
      redirect t ctx ~new_src:t.middle ~new_dst:t.server ~port_off:2
        ~new_port:t.server_port
    then t.counters.forwarded <- t.counters.forwarded + 1
  in
  let reverse ctx =
    let v = Plexus.Pctx.view ctx in
    let client_port = View.get_u16 v 2 in
    match Hashtbl.find_opt t.sessions client_port with
    | None -> ()
    | Some client_ip ->
        if
          redirect t ctx ~new_src:t.middle ~new_dst:client_ip ~port_off:0
            ~new_port:t.listen_port
        then t.counters.returned <- t.counters.returned + 1
  in
  let graph = Plexus.Stack.graph stack in
  Plexus.Graph.add_edge graph ~parent:ip_node ~child:"forwarder"
    ~label:(Printf.sprintf "port=%d" listen_port);
  let u1 =
    Spin.Dispatcher.install
      (Plexus.Graph.recv_event ip_node)
      ~guard:(forward_guard t) ~cost:Sim.Stime.zero forward
  in
  let u2 =
    Spin.Dispatcher.install
      (Plexus.Graph.recv_event ip_node)
      ~guard:(reverse_guard t) ~cost:Sim.Stime.zero reverse
  in
  t.uninstall <- [ u1; u2 ];
  t

let remove t =
  List.iter (fun u -> u ()) t.uninstall;
  t.uninstall <- []

let forwarded t = t.counters.forwarded
let returned t = t.counters.returned
let ttl_drops t = t.counters.ttl_drops
let sessions t = Hashtbl.length t.sessions
