(* The TCP protocol manager.

   Wires the shared TCP engine (Proto.Tcp — the same engine the DIGITAL
   UNIX model runs) into the protocol graph: one guarded handler on
   ip.PacketRecv demultiplexes segments to connections through the
   endpoint table the DIGITAL UNIX model uses too (Proto.Tcp_table); the
   engine's environment charges Plexus costs and transmits through the IP
   manager.

   Multiple implementations of one protocol (paper section 3.1) are
   supported the way the paper describes: this manager's guard can be
   told to *exclude* a set of ports, and an alternative implementation
   installs its own guarded handler claiming exactly those ports. *)

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable malformed : int;
  mutable no_match : int;
  mutable accepted : int;
  mutable eph_exhausted : int;
}

type conn = {
  mgr : t;
  ep : Endpoint.t;
  tcp : Proto.Tcp.t;
  mutable user_rx : View.ro View.t -> unit;
  mutable user_established : unit -> unit;
  mutable user_peer_close : unit -> unit;
  mutable user_close : unit -> unit;
  mutable user_error : string -> unit;
}

and listener = {
  l_owner : string;
  l_cfg : Proto.Tcp.config;
  on_accept : conn -> unit;
}

and t = {
  graph : Graph.t;
  ip : Ip_mgr.t;
  node : Graph.node;
  costs : Netsim.Costs.t;
  engine : Sim.Engine.t;
  endpoints : (conn, listener) Proto.Tcp_table.t;
  mutable excluded : int list;       (* dst ports ceded to an alternative impl *)
  mutable excluded_src : int list;   (* src ports ceded (reverse direction) *)
  counters : counters;
  outs : out Sim.Stash.t;
  rxs : rx Sim.Stash.t;
}

(* One segment's output step, queued on the CPU; recycled through
   [outs] (see {!Sim.Stash}). *)
and out = {
  mutable o_pkt : Mbuf.rw Mbuf.t;
  mutable o_dst : Proto.Ipaddr.t;
  mutable o_prio : Sim.Cpu.prio;
  mutable o_run : unit -> unit;
}

(* One in-order delivery to the application, queued on the CPU with
   its frame held; recycled through [rxs]. *)
and rx = {
  mutable r_conn : conn;
  mutable r_frame : Mbuf.ro Mbuf.t;
  mutable r_data : View.ro View.t;
  mutable r_run : unit -> unit;
}

let cpu t = Netsim.Host.cpu (Graph.host t.graph)

let prio t = Spin.Dispatcher.mode (Graph.recv_event t.node)

let port_at ctx at = View.get_u16 ctx.Pctx.frame (ctx.Pctx.off + at)

(* [List.mem] would compare polymorphically. *)
let rec listed (p : int) = function
  | [] -> false
  | q :: rest -> q = p || listed p rest

let proto_guard t ctx =
  match ctx.Pctx.ip with
  | Some h ->
      h.Proto.Ipv4.proto = Proto.Ipv4.proto_tcp
      && ((t.excluded = [] && t.excluded_src = [])
         || (* the ports, read in place: the segment starts at the cursor *)
         Pctx.payload_len ctx >= Proto.Tcp_wire.Off.dst_port + 2
         && (not (listed (port_at ctx Proto.Tcp_wire.Off.dst_port) t.excluded))
         && not (listed (port_at ctx Proto.Tcp_wire.Off.src_port) t.excluded_src))
  | None -> false

let output t o =
  let pkt = o.o_pkt and dst = o.o_dst and prio = o.o_prio in
  Sim.Stash.put t.outs o;
  Ip_mgr.send t.ip prio ~proto:Proto.Ipv4.proto_tcp ~dst pkt

let fresh_out t pkt dst =
  let o = { o_pkt = pkt; o_dst = dst; o_prio = Sim.Cpu.Thread; o_run = ignore } in
  o.o_run <- (fun () -> output t o);
  o

(* The application reads the view under the frame's lease, which ends
   when the callback returns. *)
let deliver t r =
  let c = r.r_conn and frame = r.r_frame and data = r.r_data in
  Sim.Stash.put t.rxs r;
  match c.user_rx data with
  | () -> Mbuf.release frame
  | exception e ->
      Mbuf.release frame;
      raise e

let fresh_rx t c frame data =
  let r = { r_conn = c; r_frame = frame; r_data = data; r_run = ignore } in
  r.r_run <- (fun () -> deliver t r);
  r

(* Build the environment a connection's engine runs in: costs are charged
   on the host CPU at the graph's delivery priority, output goes through
   the IP manager; closing forgets the connection's [key]. *)
let make_env t conn_ref remote_ip key =
  {
    Proto.Tcp.engine = t.engine;
    tx =
      (fun pkt ->
        let len = Mbuf.length pkt in
        let cksum =
          if Ip_mgr.dst_touches_data t.ip remote_ip then Sim.Stime.zero
          else
            Netsim.Costs.per_byte t.costs.Netsim.Costs.layer.cksum_ns_per_byte
              len
        in
        let cost = Sim.Stime.add t.costs.Netsim.Costs.layer.tcp_out cksum in
        let prio = prio t in
        let o =
          if Sim.Stash.is_empty t.outs then fresh_out t pkt remote_ip
          else Sim.Stash.take t.outs
        in
        o.o_pkt <- pkt;
        o.o_dst <- remote_ip;
        o.o_prio <- prio;
        Sim.Cpu.submit (cpu t) prio ~cost o.o_run);
    on_receive =
      (fun frame data ->
        match !conn_ref with
        | Some c ->
            let r =
              if Sim.Stash.is_empty t.rxs then fresh_rx t c frame data
              else Sim.Stash.take t.rxs
            in
            r.r_conn <- c;
            r.r_frame <- frame;
            r.r_data <- data;
            Mbuf.hold frame;
            Sim.Cpu.submit (cpu t) (prio t)
              ~cost:t.costs.Netsim.Costs.layer.app r.r_run
        | None -> ());
    on_established =
      (fun () -> match !conn_ref with Some c -> c.user_established () | None -> ());
    on_peer_close =
      (* routed through the CPU queue so EOF cannot overtake data that is
         still being delivered *)
      (fun () ->
        Sim.Cpu.submit (cpu t) (prio t) ~cost:Sim.Stime.zero (fun () ->
            match !conn_ref with Some c -> c.user_peer_close () | None -> ()));
    on_close =
      (fun () ->
        Proto.Tcp_table.remove t.endpoints key;
        Sim.Cpu.submit (cpu t) (prio t) ~cost:Sim.Stime.zero (fun () ->
            match !conn_ref with Some c -> c.user_close () | None -> ()));
    on_error =
      (fun msg -> match !conn_ref with Some c -> c.user_error msg | None -> ());
  }

(* A connection to [remote], entered in the endpoint table. *)
let make_conn t ~owner ~cfg ~local_port ~remote =
  let conn_ref = ref None in
  let key = Proto.Tcp_table.key ~remote ~local_port in
  let env = make_env t conn_ref (fst remote) key in
  let tcp = Proto.Tcp.create env cfg ~local:(Ip_mgr.host_ip t.ip, local_port) in
  let conn =
    {
      mgr = t;
      ep =
        Endpoint.make ~proto:Endpoint.Tcp ~ip:(Ip_mgr.host_ip t.ip)
          ~port:local_port ~owner;
      tcp;
      user_rx = ignore;
      user_established = ignore;
      user_peer_close = ignore;
      user_close = ignore;
      user_error = ignore;
    }
  in
  conn_ref := Some conn;
  Proto.Tcp_table.add t.endpoints key conn;
  conn

let rx t ctx =
  t.counters.rx <- t.counters.rx + 1;
  let v = Pctx.view ctx in
  let iph = Pctx.ip_exn ctx in
  (* Validate before demultiplexing: a corrupted segment must never
     select a connection, or reach a listener, by its possibly-corrupted
     ports.  The dyncost on the install already charges for this
     pass. *)
  match Proto.Tcp_wire.check ~src:iph.Proto.Ipv4.src ~dst:iph.Proto.Ipv4.dst v with
  | Some reason ->
      (match reason with
      | Proto.Tcp_wire.Bad_checksum ->
          t.counters.bad_checksum <- t.counters.bad_checksum + 1
      | Proto.Tcp_wire.Runt | Proto.Tcp_wire.Bad_offset ->
          t.counters.malformed <- t.counters.malformed + 1);
      Graph.drop t.graph ctx ~scope:"tcp"
        ~reason:(Proto.Tcp_wire.drop_name reason)
  | None -> (
      (* demultiplex on the ports read in place; the engine decodes the
         segment itself *)
      match Proto.Tcp_table.find t.endpoints ~src:iph.Proto.Ipv4.src v with
      | Proto.Tcp_table.Conn conn -> Proto.Tcp.input conn.tcp ctx.Pctx.pkt v
      | Proto.Tcp_table.Listener l ->
          t.counters.accepted <- t.counters.accepted + 1;
          let remote = (iph.Proto.Ipv4.src, Proto.Tcp_wire.get_src_port v) in
          let conn =
            make_conn t ~owner:l.l_owner ~cfg:l.l_cfg
              ~local_port:(Proto.Tcp_wire.get_dst_port v) ~remote
          in
          let iss = Proto.Tcp.fresh_iss t.engine in
          l.on_accept conn;
          Proto.Tcp.accept conn.tcp ~remote ~iss v
      | Proto.Tcp_table.No_match ->
          t.counters.no_match <- t.counters.no_match + 1;
          Graph.drop t.graph ctx ~scope:"tcp" ~reason:"no_match")

let create graph ip =
  let costs = Netsim.Host.costs (Graph.host graph) in
  let t =
    {
      graph;
      ip;
      node = Graph.node graph "tcp";
      costs;
      engine = Netsim.Host.engine (Graph.host graph);
      endpoints = Proto.Tcp_table.create ();
      excluded = [];
      excluded_src = [];
      counters =
        { rx = 0; bad_checksum = 0; malformed = 0; no_match = 0; accepted = 0;
          eph_exhausted = 0 };
      outs = Sim.Stash.create ();
      rxs = Sim.Stash.create ();
    }
  in
  let reg = Graph.registry graph in
  Observe.Registry.gauge reg "tcp.conns.occupancy" (fun () ->
      Proto.Tcp_table.length t.endpoints);
  Observe.Registry.gauge reg "tcp.ephemeral.exhausted" (fun () ->
      t.counters.eph_exhausted);
  Graph.add_edge graph ~parent:(Ip_mgr.node ip) ~child:"tcp" ~label:"proto=6";
  let (_ : unit -> unit) =
    Spin.Dispatcher.install
      (Graph.recv_event (Ip_mgr.node ip))
      ~guard:(proto_guard t)
      ~keys:[ Filter.ip_proto_key Proto.Ipv4.proto_tcp ]
      (* cacheable: the guard reads the protocol number and ports
         (flow-signature fields) plus the excluded lists — changing those
         touches the event's generation below *)
      ~cacheable:true ~label:"tcp" ~cost:costs.Netsim.Costs.layer.tcp_in
      ~dyncost:(fun ctx ->
        if Pctx.data_touched_by_device ctx then Sim.Stime.zero
        else
          Netsim.Costs.per_byte costs.Netsim.Costs.layer.cksum_ns_per_byte
            (Pctx.payload_len ctx))
      (rx t)
  in
  t

let counters t = t.counters

(* The guard reads these mutable lists, so changing them invalidates any
   cached flow paths through the IP event. *)
let exclude_ports t ports =
  t.excluded <- ports;
  Spin.Dispatcher.touch (Graph.recv_event (Ip_mgr.node t.ip))

let exclude_src_ports t ports =
  t.excluded_src <- ports;
  Spin.Dispatcher.touch (Graph.recv_event (Ip_mgr.node t.ip))

type error = [ `Port_in_use of int | `Ephemeral_exhausted ]

let listen t ~owner ~port ?(cfg = Proto.Tcp.default_config ()) ~on_accept () =
  let l = { l_owner = owner; l_cfg = cfg; on_accept } in
  match Proto.Tcp_table.listen t.endpoints ~port l with
  | Error _ as e -> e
  | Ok () ->
      Graph.add_edge t.graph ~parent:t.node ~child:owner
        ~label:(Printf.sprintf "listen:%d" port);
      Ok ()

let unlisten t port = Proto.Tcp_table.unlisten t.endpoints port

let connect t ~owner ~dst ?(cfg = Proto.Tcp.default_config ()) () =
  match Proto.Tcp_table.alloc_ephemeral t.endpoints ~dst with
  | None ->
      t.counters.eph_exhausted <- t.counters.eph_exhausted + 1;
      Error `Ephemeral_exhausted
  | Some local_port ->
      let conn = make_conn t ~owner ~cfg ~local_port ~remote:dst in
      Proto.Tcp.connect conn.tcp ~remote:dst
        ~iss:(Proto.Tcp.fresh_iss t.engine);
      Ok conn

(* Connection operations, charged like any application-initiated kernel
   work. *)
let send conn data = Proto.Tcp.send conn.tcp data
let sendv conn chunks = Proto.Tcp.sendv conn.tcp chunks
let close conn = Proto.Tcp.close conn.tcp
let abort conn = Proto.Tcp.abort conn.tcp
let tcp conn = conn.tcp
let on_receive conn fn = conn.user_rx <- fn
let on_established conn fn = conn.user_established <- fn
let on_peer_close conn fn = conn.user_peer_close <- fn
let on_close conn fn = conn.user_close <- fn
let on_error conn fn = conn.user_error <- fn
