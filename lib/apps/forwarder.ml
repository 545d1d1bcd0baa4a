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

(* One rewritten datagram's hand-off to the IP manager, queued on the
   CPU; recycled through [outs] (see {!Sim.Stash}). *)
type out = {
  mutable o_pkt : Mbuf.rw Mbuf.t;
  mutable o_dst : Proto.Ipaddr.t;
  mutable o_run : unit -> unit;
}

(* Int-keyed, so the per-frame session lookup never reaches the
   polymorphic compare. *)
module Ports = Hashtbl.Make (Int)

type t = {
  stack : Plexus.Stack.t;
  listen_port : int;
  server : Proto.Ipaddr.t;
  server_port : int;
  middle : Proto.Ipaddr.t;
  costs : Netsim.Costs.t;
  cpu : Sim.Cpu.t;
  sessions : Proto.Ipaddr.t Ports.t; (* client port -> client ip *)
  counters : counters;
  outs : out Sim.Stash.t;
  mutable uninstall : (unit -> unit) list;
}

(* Patch the transport checksum of the datagram in [out] after the
   pseudo-header addresses and one port changed: one RFC 1624 update per
   changed word, so the cost is independent of payload size. *)
let patch_l4_cksum out ~proto ~old_src ~new_src ~old_dst ~new_dst ~old_port
    ~new_port =
  let at =
    Proto.Ipv4.header_len
    +
    if proto = Proto.Ipv4.proto_tcp then Proto.Tcp_wire.Off.cksum
    else Proto.Udp.Off.cksum
  in
  if View.length out > at + 1 then begin
    let c = View.get_u16 out at in
    (* a UDP checksum of 0 is disabled: nothing to patch *)
    if not (proto = Proto.Ipv4.proto_udp && c = 0) then begin
      let os = Proto.Ipaddr.to_int old_src and ns = Proto.Ipaddr.to_int new_src in
      let od = Proto.Ipaddr.to_int old_dst and nd = Proto.Ipaddr.to_int new_dst in
      let c = Cksum.update ~cksum:c ~old_w:(os lsr 16) ~new_w:(ns lsr 16) in
      let c =
        Cksum.update ~cksum:c ~old_w:(os land 0xffff) ~new_w:(ns land 0xffff)
      in
      let c = Cksum.update ~cksum:c ~old_w:(od lsr 16) ~new_w:(nd lsr 16) in
      let c =
        Cksum.update ~cksum:c ~old_w:(od land 0xffff) ~new_w:(nd land 0xffff)
      in
      View.set_u16 out at (Cksum.update ~cksum:c ~old_w:old_port ~new_w:new_port)
    end
  end

(* The redirected datagram: the received header and segment copied once
   into the buffer that is transmitted, then patched in place. *)
let rewrite ctx ~new_src ~new_dst ~port_off ~new_port =
  let module O = Proto.Ipv4.Off in
  let hl = Proto.Ipv4.header_len in
  let iph = Plexus.Pctx.ip_exn ctx in
  let frame = ctx.Plexus.Pctx.frame and off = ctx.Plexus.Pctx.off in
  let len = Plexus.Pctx.payload_len ctx in
  let pkt = Mbuf.alloc (hl + len) in
  let out = Mbuf.view pkt in
  if off >= hl then
    View.blit ~src:frame ~dst:out ~src_off:(off - hl) ~dst_off:0 ~len:(hl + len)
  else begin
    (* a reassembled datagram has no header bytes: its record has them *)
    Proto.Ipv4.write out iph;
    View.blit ~src:frame ~dst:out ~src_off:off ~dst_off:hl ~len
  end;
  (* the reserved flag bit is not forwarded (RFC 791: must be zero) *)
  View.set_u16 out O.flags_frag (View.get_u16 out O.flags_frag land 0x7fff);
  View.set_u8 out O.ttl (iph.Proto.Ipv4.ttl - 1);
  View.set_u32 out O.src (Proto.Ipaddr.to_int new_src);
  View.set_u32 out O.dst (Proto.Ipaddr.to_int new_dst);
  View.set_u16 out O.cksum 0;
  View.set_u16 out O.cksum (Cksum.of_sub out ~off:0 ~len:hl);
  let old_port = View.get_u16 out (hl + port_off) in
  View.set_u16 out (hl + port_off) new_port;
  patch_l4_cksum out ~proto:iph.Proto.Ipv4.proto ~old_src:iph.Proto.Ipv4.src
    ~new_src ~old_dst:iph.Proto.Ipv4.dst ~new_dst ~old_port ~new_port;
  pkt

let output t o =
  let pkt = o.o_pkt and dst = o.o_dst in
  Sim.Stash.put t.outs o;
  Plexus.Ip_mgr.send_prepared (Plexus.Stack.ip t.stack) ~dst pkt

let fresh_out t pkt dst =
  let o = { o_pkt = pkt; o_dst = dst; o_run = ignore } in
  o.o_run <- (fun () -> output t o);
  o

(* Rewrite and transmit a redirected packet.  A datagram whose TTL
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
    let pkt = rewrite ctx ~new_src ~new_dst ~port_off ~new_port in
    let o =
      if Sim.Stash.is_empty t.outs then fresh_out t pkt new_dst
      else Sim.Stash.take t.outs
    in
    o.o_pkt <- pkt;
    o.o_dst <- new_dst;
    Sim.Cpu.submit t.cpu Sim.Cpu.Interrupt
      ~cost:t.costs.Netsim.Costs.fwd_rewrite o.o_run;
    true
  end

let is_transport ctx =
  match ctx.Plexus.Pctx.ip with
  | Some h ->
      h.Proto.Ipv4.proto = Proto.Ipv4.proto_tcp
      || h.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
  | None -> false

(* A transport port, read in place: the segment starts at the context's
   cursor in the frame. *)
let has_ports ctx = Plexus.Pctx.payload_len ctx >= 4
let port_at ctx i = View.get_u16 ctx.Plexus.Pctx.frame (ctx.Plexus.Pctx.off + i)

(* Guards: the forward direction matches transport packets whose
   destination port is the forwarded service; the reverse direction
   matches packets arriving from the backend's service port. *)
let forward_guard t ctx =
  is_transport ctx && has_ports ctx && port_at ctx 2 = t.listen_port

let reverse_guard t ctx =
  is_transport ctx
  && Proto.Ipaddr.equal (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src t.server
  && has_ports ctx
  && port_at ctx 0 = t.server_port

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
      cpu = Netsim.Host.cpu (Plexus.Stack.host stack);
      sessions = Ports.create 16;
      counters = { forwarded = 0; returned = 0; ttl_drops = 0 };
      outs = Sim.Stash.create ();
      uninstall = [];
    }
  in
  let ip_node = Plexus.Ip_mgr.node (Plexus.Stack.ip stack) in
  let forward ctx =
    let client_port = port_at ctx 0 in
    Ports.replace t.sessions client_port (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src;
    if
      redirect t ctx ~new_src:t.middle ~new_dst:t.server ~port_off:2
        ~new_port:t.server_port
    then t.counters.forwarded <- t.counters.forwarded + 1
  in
  let reverse ctx =
    match Ports.find t.sessions (port_at ctx 2) with
    | exception Not_found -> ()
    | client_ip ->
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
let sessions t = Ports.length t.sessions
