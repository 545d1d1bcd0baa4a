(* The UDP protocol manager.

   Demultiplexing follows the paper's Figure 1 exactly: the manager
   installs a guarded handler on ip.PacketRecv (guard: protocol number),
   validates the datagram, then raises udp.PacketRecv where per-endpoint
   guards (destination port) route packets to application handlers.

   Protection policy (section 3.1): applications never install handlers
   directly — they ask the manager, which derives the guard from the
   endpoint it minted at [bind] time, so a handler can only see packets
   addressed to its own port (no snooping).  On output the datagram's
   source fields come from the endpoint (no spoofing); [set_spoof_policy]
   selects between the overwrite and verify strategies the paper
   describes, overwrite being the fast default. *)

type spoof_policy = Overwrite | Verify

type error = [ `Port_in_use of int ]

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable malformed : int;
  mutable no_port : int;
  mutable delivered : int;
  mutable tx : int;
  mutable spoof_rejected : int;
  mutable unreachable_sent : int;
}

(* One datagram's output step, queued on the CPU; recycled through
   [outs] (see {!Sim.Stash}). *)
type out = {
  mutable o_pkt : Mbuf.rw Mbuf.t;
  mutable o_src : Proto.Ipaddr.t;
  mutable o_dst : Proto.Ipaddr.t;
  mutable o_src_port : int;
  mutable o_dst_port : int;
  mutable o_checksum : bool;
  mutable o_prio : Sim.Cpu.prio;
  mutable o_run : unit -> unit;
}

(* Int-keyed, so the per-datagram port lookup never reaches the
   polymorphic compare. *)
module Ports = Hashtbl.Make (Int)

type t = {
  graph : Graph.t;
  ip : Ip_mgr.t;
  node : Graph.node;
  costs : Netsim.Costs.t;
  binds : Endpoint.t Ports.t;
  counters : counters;
  mutable spoof_policy : spoof_policy;
  mutable excluded : int list; (* dst ports ceded to an alternative impl *)
  outs : out Sim.Stash.t;
}

(* [List.mem] would compare polymorphically. *)
let rec listed (p : int) = function
  | [] -> false
  | q :: rest -> q = p || listed p rest

let proto_guard t ctx =
  match ctx.Pctx.ip with
  | Some h ->
      h.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
      && (t.excluded = []
         ||
         let v = Pctx.view ctx in
         View.length v < Proto.Udp.Off.dst_port + 2
         || not (listed (Proto.Udp.get_dst_port v) t.excluded))
  | None -> false

let create graph ip =
  let costs = Netsim.Host.costs (Graph.host graph) in
  let t =
    {
      graph;
      ip;
      node = Graph.node graph "udp";
      costs;
      binds = Ports.create 16;
      counters =
        {
          rx = 0;
          bad_checksum = 0;
          malformed = 0;
          no_port = 0;
          delivered = 0;
          tx = 0;
          spoof_rejected = 0;
          unreachable_sent = 0;
        };
      spoof_policy = Overwrite;
      excluded = [];
      outs = Sim.Stash.create ();
    }
  in
  let reg = Graph.registry graph in
  Observe.Registry.gauge reg "udp.binds.occupancy" (fun () ->
      Ports.length t.binds);
  Graph.add_edge graph ~parent:(Ip_mgr.node ip) ~child:"udp" ~label:"proto=17";
  let handle ctx =
    t.counters.rx <- t.counters.rx + 1;
    let v = Pctx.view ctx in
    let iph = Pctx.ip_exn ctx in
    match Proto.Udp.check ~src:iph.Proto.Ipv4.src ~dst:iph.Proto.Ipv4.dst v with
    | Some reason ->
        (match reason with
        | Proto.Udp.Bad_checksum ->
            t.counters.bad_checksum <- t.counters.bad_checksum + 1
        | Proto.Udp.Runt | Proto.Udp.Bad_length ->
            t.counters.malformed <- t.counters.malformed + 1);
        Graph.drop graph ctx ~scope:"udp" ~reason:(Proto.Udp.drop_name reason)
    | None ->
        (* [check] saw the header, so the ports are read in place from a
           header that is there *)
        let dst_port = Proto.Udp.get_dst_port v in
        let ctx =
          Pctx.advance_ports ctx Proto.Udp.header_len
            ~src_port:(Proto.Udp.get_src_port v) ~dst_port
        in
        if Ports.mem t.binds dst_port then begin
          t.counters.delivered <- t.counters.delivered + 1;
          (* only a sampled packet has a timeline to end: build its stage
             label for it alone *)
          if Mbuf.mark ctx.Pctx.pkt > 0 then
            Graph.finish_flight graph ctx
              (Observe.Flight.Deliver
                 { scope = Printf.sprintf "udp:%d" dst_port });
          Spin.Dispatcher.raise (Graph.recv_event t.node) ctx
        end
        else begin
          t.counters.no_port <- t.counters.no_port + 1;
          Graph.drop graph ctx ~scope:"udp" ~reason:"no_port";
          (* BSD behaviour: answer with an ICMP port unreachable — but
             never to a broadcast (RFC 1122 3.2.2) *)
          if not (Proto.Ipaddr.equal iph.Proto.Ipv4.dst Proto.Ipaddr.broadcast)
          then begin
            t.counters.unreachable_sent <- t.counters.unreachable_sent + 1;
            let dst = iph.Proto.Ipv4.src in
            Ip_mgr.send t.ip (Ip_mgr.prio t.ip ~dst) ~proto:Proto.Ipv4.proto_icmp
              ~dst
              (Proto.Icmp.error ~mtype:Proto.Icmp.type_dest_unreachable
                 ~code:Proto.Icmp.code_port_unreachable iph v)
          end
        end
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install
      (Graph.recv_event (Ip_mgr.node ip))
      ~guard:(fun ctx -> proto_guard t ctx)
      ~keys:[ Filter.ip_proto_key Proto.Ipv4.proto_udp ]
      (* cacheable: the guard reads the IP protocol number and UDP ports
         (flow-signature fields) plus [t.excluded] — [exclude_ports]
         touches the event's generation when that list changes *)
      ~cacheable:true ~label:"udp" ~cost:costs.Netsim.Costs.layer.udp_in
      ~dyncost:(fun ctx ->
        (* checksum verification touches the payload — unless the PIO
           device already did (integrated layer processing) *)
        if Pctx.data_touched_by_device ctx then Sim.Stime.zero
        else
          Netsim.Costs.per_byte costs.Netsim.Costs.layer.cksum_ns_per_byte
            (Pctx.payload_len ctx))
      handle
  in
  t

let counters t = t.counters
let set_spoof_policy t p = t.spoof_policy <- p

(* Multiple implementations of UDP (paper section 3.1): this manager's
   guard stops matching the given destination ports, ceding them to an
   alternative implementation's own guarded handler on ip.PacketRecv.
   The guard reads this mutable list, so changing it must invalidate any
   cached flow paths through the IP event. *)
let exclude_ports t ports =
  t.excluded <- ports;
  Spin.Dispatcher.touch (Graph.recv_event (Ip_mgr.node t.ip))

let bind t ~owner ~port =
  if Ports.mem t.binds port then Error (`Port_in_use port)
  else begin
    let ep =
      Endpoint.make ~proto:Endpoint.Udp ~ip:(Ip_mgr.host_ip t.ip) ~port ~owner
    in
    Ports.replace t.binds port ep;
    Ok ep
  end

let unbind t ep = Ports.remove t.binds (Endpoint.port ep)

let port_guard ep ctx = ctx.Pctx.dst_port = Endpoint.port ep

(* Attach an application receive handler for an endpoint.  The guard the
   manager installs is derived from the endpoint — the application cannot
   broaden it.  The endpoint's port doubles as the handler's dispatch
   key, so a raise only evaluates the guards bound to the datagram's own
   destination port. *)
let install_recv t ep ?cost fn =
  let cost = match cost with Some c -> c | None -> t.costs.Netsim.Costs.layer.app in
  Graph.add_edge t.graph ~parent:t.node
    ~child:(Endpoint.owner ep)
    ~label:(Printf.sprintf "port=%d" (Endpoint.port ep));
  Spin.Dispatcher.install (Graph.recv_event t.node) ~guard:(port_guard ep)
    ~keys:[ Filter.dst_port_key (Endpoint.port ep) ]
    ~exact:true ~cacheable:true ~label:(Endpoint.owner ep) ~cost fn

(* The same handler without a dispatch key: its guard is a residual at
   every leaf of the event's dispatch tree, so every raise evaluates it.
   Exists for the guard-scaling ablation — this is what every install
   was before keyed demultiplexing. *)
let install_recv_linear t ep ?cost fn =
  let cost = match cost with Some c -> c | None -> t.costs.Netsim.Costs.layer.app in
  Graph.add_edge t.graph ~parent:t.node
    ~child:(Endpoint.owner ep)
    ~label:(Printf.sprintf "port=%d(linear)" (Endpoint.port ep));
  Spin.Dispatcher.install (Graph.recv_event t.node) ~guard:(port_guard ep)
    ~cacheable:true ~label:(Endpoint.owner ep) ~cost fn

(* Receive handler demultiplexed by an *interpreted* packet filter
   (see Filter): the manager conjoins the endpoint's port guard — the
   application cannot broaden its visibility — and charges the filter's
   interpretation cost on every arriving datagram. *)
let install_recv_filtered t ep filter ?cost fn =
  let cost = match cost with Some c -> c | None -> t.costs.Netsim.Costs.layer.app in
  Graph.add_edge t.graph ~parent:t.node
    ~child:(Endpoint.owner ep)
    ~label:(Fmt.str "port=%d filter=%a" (Endpoint.port ep) Filter.pp filter);
  let full = Filter.And (Filter.dst_port_is (Endpoint.port ep), filter) in
  Spin.Dispatcher.install (Graph.recv_event t.node)
    ~guard:(fun ctx -> port_guard ep ctx && Filter.eval filter ctx)
    ~keys:
      (Filter.dst_port_key (Endpoint.port ep) :: Filter.key_conjuncts filter)
    ~exact:(Filter.keys_exact full)
    ~label:(Endpoint.owner ep) ~gcost:(Filter.eval_cost filter) ~cost fn

(* The filtered install with the filter *compiled* instead of
   interpreted: same delivery semantics (run ≡ eval), but the per-packet
   gcost drops from [eval_cost] to [compiled_cost]. *)
let install_recv_compiled t ep filter ?cost fn =
  let cost = match cost with Some c -> c | None -> t.costs.Netsim.Costs.layer.app in
  let prog = Filter.compile filter in
  Graph.add_edge t.graph ~parent:t.node
    ~child:(Endpoint.owner ep)
    ~label:
      (Fmt.str "port=%d compiled[%d]" (Endpoint.port ep)
         (Filter.program_length prog));
  let full = Filter.And (Filter.dst_port_is (Endpoint.port ep), filter) in
  Spin.Dispatcher.install (Graph.recv_event t.node)
    ~guard:(fun ctx -> port_guard ep ctx && Filter.run prog ctx)
    ~keys:
      (Filter.dst_port_key (Endpoint.port ep) :: Filter.key_conjuncts filter)
    ~exact:(Filter.keys_exact full)
    ~label:(Endpoint.owner ep) ~gcost:(Filter.compiled_cost prog) ~cost fn

(* Interrupt-level (EPHEMERAL) receive handler with optional budget. *)
let install_recv_ephemeral t ep ?budget fn =
  Graph.add_edge t.graph ~parent:t.node
    ~child:(Endpoint.owner ep)
    ~label:(Printf.sprintf "port=%d(eph)" (Endpoint.port ep));
  Spin.Dispatcher.install_ephemeral (Graph.recv_event t.node)
    ~guard:(port_guard ep)
    ~keys:[ Filter.dst_port_key (Endpoint.port ep) ]
    ~exact:true ~label:(Endpoint.owner ep) ?budget fn

let cpu t = Netsim.Host.cpu (Graph.host t.graph)

let output t o =
  let pkt = o.o_pkt and dst = o.o_dst and prio = o.o_prio in
  Proto.Udp.push pkt ~checksum:o.o_checksum ~src:o.o_src ~dst
    ~src_port:o.o_src_port ~dst_port:o.o_dst_port;
  Sim.Stash.put t.outs o;
  Ip_mgr.send t.ip prio ~proto:Proto.Ipv4.proto_udp ~dst pkt

let fresh_out t pkt =
  let o =
    { o_pkt = pkt; o_src = Proto.Ipaddr.broadcast; o_dst = Proto.Ipaddr.broadcast;
      o_src_port = 0; o_dst_port = 0; o_checksum = true;
      o_prio = Sim.Cpu.Thread; o_run = ignore }
  in
  o.o_run <- (fun () -> output t o);
  o

(* The zero-copy send core: the caller's mbuf is encapsulated in place
   (headers go into its headroom) and handed down the stack — no payload
   byte is copied anywhere between here and the device. *)
let do_send_mbuf ?(extra_cost = Sim.Stime.zero) t ep ~prio ~dst:(dip, dport)
    ~checksum ~src_port payload =
  if Mbuf.length payload > Proto.Udp.max_payload then
    invalid_arg "Udp_mgr.send: payload exceeds one datagram";
  t.counters.tx <- t.counters.tx + 1;
  let cksum_cost =
    if checksum && not (Ip_mgr.dst_touches_data t.ip dip) then
      Netsim.Costs.per_byte t.costs.Netsim.Costs.layer.cksum_ns_per_byte
        (Mbuf.length payload)
    else Sim.Stime.zero
  in
  let prio =
    match prio with
    | Some p -> p
    | None -> Spin.Dispatcher.mode (Graph.recv_event t.node)
  in
  let o =
    if Sim.Stash.is_empty t.outs then fresh_out t payload
    else Sim.Stash.take t.outs
  in
  o.o_pkt <- payload;
  o.o_src <- Endpoint.ip ep;
  o.o_dst <- dip;
  o.o_src_port <- src_port;
  o.o_dst_port <- dport;
  o.o_checksum <- checksum;
  o.o_prio <- prio;
  Sim.Cpu.submit (cpu t) prio
    ~cost:
      (Sim.Stime.add extra_cost
         (Sim.Stime.add t.costs.Netsim.Costs.layer.udp_out cksum_cost))
    o.o_run

let do_send ?extra_cost t ep ~prio ~dst ~checksum ~src_port data =
  do_send_mbuf ?extra_cost t ep ~prio ~dst ~checksum ~src_port
    (Mbuf.of_string data)

(* Multicast semantics for UDP (paper section 5.1): the datagram is
   marshalled and checksummed once, then replicated to every
   destination — the per-packet data-touching work is not repeated. *)
let send_multi t ep ?prio ?(checksum = true) ~dsts data =
  match dsts with
  | [] -> ()
  | (first_ip, _) :: _ ->
      if String.length data > Proto.Udp.max_payload then
        invalid_arg "Udp_mgr.send_multi: payload exceeds one datagram";
      t.counters.tx <- t.counters.tx + List.length dsts;
      let cksum_cost =
        if checksum && not (Ip_mgr.dst_touches_data t.ip first_ip) then
          Netsim.Costs.per_byte t.costs.Netsim.Costs.layer.cksum_ns_per_byte
            (String.length data)
        else Sim.Stime.zero
      in
      let prio =
        match prio with
        | Some p -> p
        | None -> Spin.Dispatcher.mode (Graph.recv_event t.node)
      in
      (* one marshal+checksum pass, then a cheap replicated send per
         destination *)
      Sim.Cpu.submit (cpu t) prio
        ~cost:(Sim.Stime.add t.costs.Netsim.Costs.layer.udp_out cksum_cost)
        (fun () ->
          List.iter
            (fun (dip, dport) ->
              let payload = Mbuf.of_string data in
              Proto.Udp.encapsulate ~checksum payload ~src:(Endpoint.ip ep)
                ~dst:dip ~src_port:(Endpoint.port ep) ~dst_port:dport;
              Ip_mgr.send t.ip prio ~proto:Proto.Ipv4.proto_udp ~dst:dip
                payload)
            dsts)

(* Normal send: source fields are taken from the endpoint (the paper's
   "overwrite" strategy — nothing to verify because nothing else is
   representable). *)
let send t ep ?prio ?(checksum = true) ~dst data =
  do_send t ep ~prio ~dst ~checksum ~src_port:(Endpoint.port ep) data

(* Zero-copy send: the application hands over an mbuf it built (payload
   written once into allocated headroom-bearing buffers); headers are
   prepended in place and the chain reaches the wire without a single
   payload-byte copy.  The device consumes the mbuf at transmit. *)
let send_mbuf t ep ?prio ?(checksum = true) ~dst payload =
  do_send_mbuf t ep ~prio ~dst ~checksum ~src_port:(Endpoint.port ep) payload

(* A send that lets the caller *claim* a source — exists to demonstrate
   the two anti-spoofing strategies of section 3.1.  Under [Overwrite]
   the claim is ignored; under [Verify] a mismatched claim is rejected
   and counted. *)
let send_claiming t ep ?prio ?(checksum = true) ~claimed_src_port ~dst data =
  match t.spoof_policy with
  | Overwrite ->
      (* The claim is simply ignored — "more simply overwrite the source
         field ... provides the best performance". *)
      do_send t ep ~prio ~dst ~checksum ~src_port:(Endpoint.port ep) data;
      Ok ()
  | Verify ->
      if claimed_src_port <> Endpoint.port ep then begin
        t.counters.spoof_rejected <- t.counters.spoof_rejected + 1;
        Error `Spoof_rejected
      end
      else begin
        (* verification touches the headers once more, on the send path *)
        do_send ~extra_cost:(Sim.Stime.us 2) t ep ~prio ~dst ~checksum
          ~src_port:claimed_src_port data;
        Ok ()
      end

let bound_ports t =
  Ports.fold (fun p _ acc -> p :: acc) t.binds []
  |> List.sort compare
