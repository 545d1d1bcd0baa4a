(* The IP protocol manager: validates and demultiplexes incoming
   datagrams (reassembling fragments), and provides the send path used by
   the transport managers — including fragmentation to the device MTU. *)

type route = {
  net : Proto.Ipaddr.t;
  mask_bits : int;
  ether : Ether_mgr.t;
  arp : Arp_mgr.t;
}

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable not_ours : int;
  mutable malformed : int;
  mutable delivered : int;
  mutable fragments_out : int;
}

(* One unfragmented datagram's output step, queued on the CPU; recycled
   through [outs], or [prepared] for a datagram whose header is already
   written (see {!Sim.Stash}). *)
type out = {
  mutable o_pkt : Mbuf.rw Mbuf.t;
  mutable o_route : route;
  mutable o_proto : int;
  mutable o_dst : Proto.Ipaddr.t;
  mutable o_prio : Sim.Cpu.prio;
  mutable o_run : unit -> unit;
}

type t = {
  graph : Graph.t;
  node : Graph.node;
  host : Netsim.Host.t;
  costs : Netsim.Costs.t;
  mutable routes : route list;
  frag : Proto.Ip_frag.t;
  mutable next_id : int;
  counters : counters;
  outs : out Sim.Stash.t;
  prepared : out Sim.Stash.t;
}

let create graph =
  let host = Graph.host graph in
  {
    graph;
    node = Graph.node graph "ip";
    host;
    costs = Netsim.Host.costs host;
    routes = [];
    frag = Proto.Ip_frag.create (Netsim.Host.engine host);
    next_id = 1;
    counters =
      {
        rx = 0;
        bad_checksum = 0;
        not_ours = 0;
        malformed = 0;
        delivered = 0;
        fragments_out = 0;
      };
    outs = Sim.Stash.create ();
    prepared = Sim.Stash.create ();
  }

let node t = t.node
let counters t = t.counters
let host_ip t = Netsim.Host.ip t.host

let cpu t = Netsim.Host.cpu t.host

let raise_recv t ctx = Spin.Dispatcher.raise (Graph.recv_event t.node) ctx

let frag_state t = t.frag

(* Receive path: one handler per attached device, installed on the
   device node's event with an EtherType+address guard.  The verdict is
   [Ip_frag.receive]'s; this manager only counts, traces and raises. *)
let rx t ctx =
  t.counters.rx <- t.counters.rx + 1;
  let v = View.shift (Pctx.view ctx) Proto.Ether.header_len in
  match
    Proto.Ip_frag.receive_frame t.frag ~host:(host_ip t) ctx.Pctx.pkt v
  with
  | Proto.Ip_frag.Deliver h ->
      t.counters.delivered <- t.counters.delivered + 1;
      (* one next-layer context: past both headers, link-layer padding
         below the IP total length stripped, header attached *)
      raise_recv t
        (Pctx.advance_ip ctx
           (Proto.Ether.header_len + Proto.Ipv4.header_len)
           ~len:(h.Proto.Ipv4.total_len - Proto.Ipv4.header_len)
           h)
  | Proto.Ip_frag.Reassembled (h, datagram) ->
      t.counters.delivered <- t.counters.delivered + 1;
      (* the datagram is a new frame: held across its raise like a
         driver's, so its walk's last step frees it *)
      Mbuf.hold datagram;
      raise_recv t (Pctx.with_ip (Pctx.with_payload ctx (Mbuf.ro datagram)) h);
      Mbuf.release datagram
  | Proto.Ip_frag.Pending -> ()
  | Proto.Ip_frag.Drop reason ->
      (match reason with
      | Proto.Ipv4.Bad_checksum ->
          t.counters.bad_checksum <- t.counters.bad_checksum + 1
      | Proto.Ipv4.Not_ours -> t.counters.not_ours <- t.counters.not_ours + 1
      | Proto.Ipv4.Runt | Proto.Ipv4.Bad_header | Proto.Ipv4.Bad_length
      | Proto.Ipv4.Bad_fragment ->
          t.counters.malformed <- t.counters.malformed + 1);
      Graph.drop t.graph ctx ~scope:"ip" ~reason:(Proto.Ipv4.drop_name reason)

(* Reads the destination MAC in place from the context's frame view. *)
let mac_guard dev ctx =
  let f = ctx.Pctx.frame in
  Proto.Ether.has_header f
  &&
  let dst = Proto.Ether.get_dst f in
  Proto.Ether.Mac.equal dst (Netsim.Dev.mac dev)
  || Proto.Ether.Mac.equal dst Proto.Ether.Mac.broadcast

let attach t ether arp ~net ~mask_bits =
  t.routes <- t.routes @ [ { net; mask_bits; ether; arp } ];
  let guard ctx =
    Ether_mgr.etype_guard Proto.Ether.etype_ip ctx
    && mac_guard (Ether_mgr.dev ether) ctx
  in
  (* Cacheable: the guard reads only the EtherType and destination MAC,
     both part of the flow signature. *)
  let (_ : unit -> unit) =
    Ether_mgr.install_protocol ether ~child:"ip" ~guard
      ~keys:[ Filter.ether_type_key Proto.Ether.etype_ip ]
      ~cacheable:true ~cost:t.costs.Netsim.Costs.layer.ip_in (rx t)
  in
  ()

(* The route whose subnet holds [dst], else the first (default) one. *)
let rec subnet_route dst default = function
  | [] -> default
  | r :: rest ->
      if Proto.Ipaddr.in_subnet dst ~net:r.net ~mask_bits:r.mask_bits then r
      else subnet_route dst default rest

let route_for t dst =
  match t.routes with
  | [] -> invalid_arg "Ip_mgr: no route"
  | first :: _ -> subnet_route dst first t.routes

let prio t ~dst = Ether_mgr.prio (route_for t dst).ether

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffff;
  id

(* Send one already-formed IP packet out the right device.  A cached MAC
   goes straight to the Ethernet manager; only a miss builds the
   continuation that waits for the ARP reply. *)
let emit route prio ~dst pkt =
  let mac = Arp_mgr.cached route.arp dst in
  if Proto.Ether.Mac.equal mac Proto.Ether.Mac.none then
    Arp_mgr.resolve route.arp dst (fun mac ->
        Ether_mgr.send route.ether prio ~dst:mac ~etype:Proto.Ether.etype_ip pkt)
  else Ether_mgr.send route.ether prio ~dst:mac ~etype:Proto.Ether.etype_ip pkt

let output t o =
  let pkt = o.o_pkt and route = o.o_route and dst = o.o_dst
  and prio = o.o_prio in
  Proto.Ipv4.push pkt ~id:(fresh_id t) ~more_fragments:false ~frag_offset:0
    ~proto:o.o_proto ~src:(host_ip t) ~dst;
  Sim.Stash.put t.outs o;
  emit route prio ~dst pkt

let fresh_out t output pkt route =
  let o =
    { o_pkt = pkt; o_route = route; o_proto = 0; o_dst = Proto.Ipaddr.broadcast;
      o_prio = Sim.Cpu.Thread; o_run = ignore }
  in
  o.o_run <- (fun () -> output t o);
  o

(* Transport send path: encapsulate [payload] for [proto], fragmenting to
   the route's MTU when necessary.  The source address is always the
   host's — transports cannot spoof it. *)
let send t prio ~proto ~dst payload =
  let route = route_for t dst in
  let mtu = Ether_mgr.mtu route.ether in
  let len = Mbuf.length payload in
  if len + Proto.Ipv4.header_len <= mtu then begin
    let o =
      if Sim.Stash.is_empty t.outs then fresh_out t output payload route
      else Sim.Stash.take t.outs
    in
    o.o_pkt <- payload;
    (* a pointer store into a long-lived record pays the write barrier:
       skip it for the route, which rarely changes *)
    if o.o_route != route then o.o_route <- route;
    o.o_proto <- proto;
    o.o_dst <- dst;
    o.o_prio <- prio;
    Sim.Cpu.submit (cpu t) prio ~cost:t.costs.Netsim.Costs.layer.ip_out o.o_run
  end
  else begin
    (* zero-copy: fragments are sub-chains sharing the payload's
       buffers; only the per-fragment headers are fresh bytes *)
    let frags =
      Proto.Ip_frag.packets ~mtu ~id:(fresh_id t) ~proto ~src:(host_ip t) ~dst
        payload
    in
    let n = List.length frags in
    t.counters.fragments_out <- t.counters.fragments_out + n;
    Sim.Cpu.submit (cpu t) prio
      ~cost:(Sim.Stime.mul t.costs.Netsim.Costs.layer.ip_out n)
      (fun () -> List.iter (emit route prio ~dst) frags)
  end

(* Whether sending toward [dst] goes out a programmed-I/O device (the
   send-side integrated-layer-processing query). *)
let dst_touches_data t dst =
  match t.routes with
  | [] -> false
  | first :: _ -> Ether_mgr.touches_data (subnet_route dst first t.routes).ether

let output_prepared t o =
  let pkt = o.o_pkt and route = o.o_route and dst = o.o_dst
  and prio = o.o_prio in
  Sim.Stash.put t.prepared o;
  emit route prio ~dst pkt

(* Privileged: transmit a complete IP datagram (header included) toward
   [dst] without rewriting its source — granted only to the in-kernel
   forwarder (paper section 5.2), which redirects other hosts' packets. *)
let send_prepared t ~dst pkt =
  let route = route_for t dst in
  let prio = Ether_mgr.prio route.ether in
  let o =
    if Sim.Stash.is_empty t.prepared then
      fresh_out t output_prepared pkt route
    else Sim.Stash.take t.prepared
  in
  o.o_pkt <- pkt;
  if o.o_route != route then o.o_route <- route;
  o.o_dst <- dst;
  o.o_prio <- prio;
  Sim.Cpu.submit (cpu t) prio ~cost:t.costs.Netsim.Costs.layer.ip_out o.o_run
