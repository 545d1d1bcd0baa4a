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
  mutable reassembled : int;
}

type t = {
  graph : Graph.t;
  node : Graph.node;
  host : Netsim.Host.t;
  costs : Netsim.Costs.t;
  mutable routes : route list;
  frag : Proto.Ip_frag.t;
  mutable frag_timer : Sim.Engine.handle option;
  mutable next_id : int;
  counters : counters;
}

let create graph =
  let host = Graph.host graph in
  {
    graph;
    node = Graph.node graph "ip";
    host;
    costs = Netsim.Host.costs host;
    routes = [];
    frag = Proto.Ip_frag.create ();
    frag_timer = None;
    next_id = 1;
    counters =
      {
        rx = 0;
        bad_checksum = 0;
        not_ours = 0;
        malformed = 0;
        delivered = 0;
        fragments_out = 0;
        reassembled = 0;
      };
  }

let node t = t.node
let counters t = t.counters
let host_ip t = Netsim.Host.ip t.host

let engine t = Netsim.Host.engine t.host
let cpu t = Netsim.Host.cpu t.host

let raise_recv t ctx = Spin.Dispatcher.raise (Graph.recv_event t.node) ctx

let frag_state t = t.frag

(* Scheduled reassembly expiry.  [Ip_frag.input] only expires lazily —
   when *another* fragment arrives — so under loss a half-delivered
   fragment train would pin its chunk buffers forever.  A one-shot timer
   armed at the earliest pending deadline bounds that: it fires, expires
   what is stale, and re-arms only while reassemblies remain pending.
   It is cancelled the moment nothing is pending — never a standing
   tick, which would keep the event-driven engine from draining (or
   stretch every fragmented run out to the 30 s reassembly timeout). *)
let rec ensure_frag_timer t =
  if t.frag_timer = None then
    match Proto.Ip_frag.next_deadline t.frag with
    | None -> ()
    | Some deadline ->
        let now = Sim.Engine.now (engine t) in
        (* [expire] drops contexts strictly past their deadline; fire
           1 ns after it. *)
        let delay =
          if Sim.Stime.compare deadline now > 0 then
            Sim.Stime.add (Sim.Stime.sub deadline now) (Sim.Stime.ns 1)
          else Sim.Stime.ns 1
        in
        t.frag_timer <-
          Some
            (Sim.Engine.schedule_in (engine t) ~delay (fun () ->
                 t.frag_timer <- None;
                 let (_ : int) =
                   Proto.Ip_frag.expire t.frag
                     ~now:(Sim.Engine.now (engine t))
                 in
                 ensure_frag_timer t))

let settle_frag_timer t =
  if Proto.Ip_frag.pending_count t.frag = 0 then (
    match t.frag_timer with
    | Some h ->
        Sim.Engine.cancel (engine t) h;
        t.frag_timer <- None
    | None -> ())
  else ensure_frag_timer t

(* Receive path: one handler per attached device, installed on the
   device node's event with an EtherType+address guard. *)
let rx t ctx =
  t.counters.rx <- t.counters.rx + 1;
  let v = View.shift (Pctx.view ctx) Proto.Ether.header_len in
  match Proto.Ipv4.parse v with
  | None -> t.counters.bad_checksum <- t.counters.bad_checksum + 1
  | Some h ->
      if not (Proto.Ipv4.checksum_valid v) then
        t.counters.bad_checksum <- t.counters.bad_checksum + 1
      else if
        not
          (Proto.Ipaddr.equal h.Proto.Ipv4.dst (host_ip t)
          || Proto.Ipaddr.equal h.Proto.Ipv4.dst Proto.Ipaddr.broadcast)
      then t.counters.not_ours <- t.counters.not_ours + 1
      else if
        h.Proto.Ipv4.total_len < Proto.Ipv4.header_len
        || h.Proto.Ipv4.total_len > View.length v
      then
        (* a length the frame cannot hold: every slice below would run
           past its end *)
        t.counters.malformed <- t.counters.malformed + 1
      else begin
        let l2 = Proto.Ether.parse (Pctx.view ctx) in
        let ctx = match l2 with Some h2 -> Pctx.with_l2 ctx h2 | None -> ctx in
        if h.Proto.Ipv4.more_fragments || h.Proto.Ipv4.frag_offset > 0 then begin
          let payload =
            View.sub v ~off:Proto.Ipv4.header_len
              ~len:(h.Proto.Ipv4.total_len - Proto.Ipv4.header_len)
          in
          match
            Proto.Ip_frag.input t.frag ~now:(Sim.Engine.now (engine t)) h payload
          with
          | Proto.Ip_frag.Pending -> ensure_frag_timer t
          | Proto.Ip_frag.Malformed ->
              (* overlapping or overrunning chunks: the train is gone *)
              settle_frag_timer t;
              t.counters.malformed <- t.counters.malformed + 1
          | Proto.Ip_frag.Complete datagram ->
              settle_frag_timer t;
              t.counters.reassembled <- t.counters.reassembled + 1;
              t.counters.delivered <- t.counters.delivered + 1;
              let pkt = Mbuf.ro datagram in
              let h = { h with Proto.Ipv4.more_fragments = false; frag_offset = 0 } in
              raise_recv t (Pctx.with_ip (Pctx.with_payload ctx pkt) h)
        end
        else begin
          t.counters.delivered <- t.counters.delivered + 1;
          let ctx =
            Pctx.advance ctx (Proto.Ether.header_len + Proto.Ipv4.header_len)
          in
          (* strip link-layer padding below the IP total length *)
          let l4_len = h.Proto.Ipv4.total_len - Proto.Ipv4.header_len in
          let ctx =
            if Pctx.payload_len ctx > l4_len then Pctx.with_limit ctx l4_len
            else ctx
          in
          raise_recv t (Pctx.with_ip ctx h)
        end
      end

let mac_guard dev ctx =
  match Proto.Ether.parse (Pctx.view ctx) with
  | None -> false
  | Some h ->
      Proto.Ether.Mac.equal h.Proto.Ether.dst (Netsim.Dev.mac dev)
      || Proto.Ether.Mac.equal h.Proto.Ether.dst Proto.Ether.Mac.broadcast

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
      ~key:(Filter.ether_type_key Proto.Ether.etype_ip)
      ~cacheable:true ~cost:t.costs.Netsim.Costs.layer.ip_in (rx t)
  in
  ()

let route_for t dst =
  match
    List.find_opt
      (fun r -> Proto.Ipaddr.in_subnet dst ~net:r.net ~mask_bits:r.mask_bits)
      t.routes
  with
  | Some r -> Some r
  | None -> ( match t.routes with r :: _ -> Some r | [] -> None)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffff;
  id

(* Send one already-formed IP packet out the right device. *)
let emit _t route ~prio ~dst pkt =
  Arp_mgr.resolve route.arp dst (fun mac ->
      Ether_mgr.send route.ether ~prio ~dst:mac ~etype:Proto.Ether.etype_ip pkt)

(* Transport send path: encapsulate [payload] for [proto], fragmenting to
   the route's MTU when necessary.  The source address is always the
   host's — transports cannot spoof it. *)
let send t ?prio:p ~proto ~dst payload =
  match route_for t dst with
  | None -> invalid_arg "Ip_mgr.send: no route"
  | Some route ->
      let prio = match p with Some p -> p | None -> Ether_mgr.prio route.ether in
      let mtu = Ether_mgr.mtu route.ether in
      let len = Mbuf.length payload in
      let src = host_ip t in
      if len + Proto.Ipv4.header_len <= mtu then begin
        Sim.Cpu.submit (cpu t) prio ~cost:t.costs.Netsim.Costs.layer.ip_out
          (fun () ->
            Proto.Ipv4.encapsulate payload
              (Proto.Ipv4.make ~id:(fresh_id t) ~proto ~src ~dst
                 ~payload_len:len ());
            emit t route ~prio ~dst payload)
      end
      else begin
        let id = fresh_id t in
        (* zero-copy: fragments are sub-chains sharing the payload's
           buffers; only the per-fragment headers are fresh bytes *)
        let frags = Proto.Ip_frag.fragment ~mtu payload in
        let n = List.length frags in
        t.counters.fragments_out <- t.counters.fragments_out + n;
        Sim.Cpu.submit (cpu t) prio
          ~cost:(Sim.Stime.mul t.costs.Netsim.Costs.layer.ip_out n)
          (fun () ->
            List.iter
              (fun (off8, more, fragment) ->
                let frag_len = Mbuf.length fragment in
                Proto.Ipv4.encapsulate fragment
                  (Proto.Ipv4.make ~id ~more_fragments:more ~frag_offset:off8
                     ~proto ~src ~dst ~payload_len:frag_len ());
                emit t route ~prio ~dst fragment)
              frags)
      end

(* Whether sending toward [dst] goes out a programmed-I/O device (the
   send-side integrated-layer-processing query). *)
let dst_touches_data t dst =
  match route_for t dst with
  | Some route -> Ether_mgr.touches_data route.ether
  | None -> false

(* Privileged: transmit a complete IP datagram (header included) toward
   [dst] without rewriting its source — granted only to the in-kernel
   forwarder (paper section 5.2), which redirects other hosts' packets. *)
let send_prepared t ?prio:p ~dst pkt =
  match route_for t dst with
  | None -> invalid_arg "Ip_mgr.send_prepared: no route"
  | Some route ->
      let prio = match p with Some p -> p | None -> Ether_mgr.prio route.ether in
      Sim.Cpu.submit (cpu t) prio ~cost:t.costs.Netsim.Costs.layer.ip_out
        (fun () -> emit t route ~prio ~dst pkt)
