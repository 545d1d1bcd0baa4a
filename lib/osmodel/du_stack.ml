(* The DIGITAL UNIX 3.2 baseline: a monolithic in-kernel protocol stack
   with BSD sockets.

   Methodology mirrors the paper's: the *same* device models, wire
   formats and TCP engine as Plexus, differing only in OS structure —
   protocol code runs in the kernel at interrupt level, applications run
   as user processes, and every packet crosses the user/kernel boundary
   (trap + copy on send; wakeup + context switch + copy on receive).
   There is no dispatcher, no guards and no extensibility: the
   performance comparison isolates exactly the architectural difference
   the paper measures. *)

module T = Sim.Stime

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable not_ours : int;
  mutable malformed : int;
  mutable no_port : int;
  mutable udp_delivered : int;
  mutable tcp_rx : int;
  mutable echos_answered : int;
}

type udp_sock = {
  us_port : int;
  mutable us_on_recv : src:Proto.Ipaddr.t * int -> string -> unit;
}

type route = {
  net : Proto.Ipaddr.t;
  mask_bits : int;
  dev : Netsim.Dev.t;
  arp : Proto.Arp.Cache.t;
}

type tconn = {
  du : t;
  tcp : Proto.Tcp.t;
  mutable tc_on_receive : View.ro View.t -> unit;
  mutable tc_on_established : unit -> unit;
  mutable tc_on_peer_close : unit -> unit;
  mutable tc_on_close : unit -> unit;
}

and listener = { l_cfg : Proto.Tcp.config; l_accept : tconn -> unit }

and t = {
  host : Netsim.Host.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  costs : Netsim.Costs.t;
  mutable routes : route list;
  frag : Proto.Ip_frag.t;
  udp_socks : (int, udp_sock) Hashtbl.t;
  endpoints : (tconn, listener) Proto.Tcp_table.t;
  mutable next_ip_id : int;
  deliveries : (int * (unit -> unit)) Queue.t;
      (* pending socket-to-process deliveries *)
  mutable delivering : bool;
  counters : counters;
}

let host_ip t = Netsim.Host.ip t.host
let counters t = t.counters
let host t = t.host
let frag_state t = t.frag
let tcp_conns t = Proto.Tcp_table.length t.endpoints

(* Receive-side boundary crossing with wakeup batching: if the user
   process is already runnable (a delivery is in progress), further
   packets only pay the per-packet copy — the wakeup and context switch
   amortize over the burst, as they do on a real system under load.  A
   single isolated packet pays the full worst case the paper describes. *)
let rec drain_deliveries t =
  if Queue.is_empty t.deliveries then t.delivering <- false
  else begin
    let len, k = Queue.pop t.deliveries in
    Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread
      ~cost:
        (Sim.Stime.add (Syscall.copy_cost t.costs len)
           t.costs.Netsim.Costs.layer.app)
      (fun () ->
        k ();
        drain_deliveries t)
  end

let deliver_to_user t ~len k =
  Queue.push (len, k) t.deliveries;
  if not t.delivering then begin
    t.delivering <- true;
    Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread
      ~cost:
        (Sim.Stime.add t.costs.Netsim.Costs.os.wakeup
           t.costs.Netsim.Costs.os.ctx_switch)
      (fun () -> drain_deliveries t)
  end

(* ---- kernel-side helpers ------------------------------------------- *)

let krun t cost k = Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Interrupt ~cost k

(* DIGITAL UNIX folds the TCP/UDP checksum into the user/kernel copy
   (the combined copy/checksum loop of [CFF+93], which the paper calls
   "highly optimized") — so transport checksums carry no separate cost.
   ICMP, which never crosses the boundary, still pays one. *)
let cksum_cost _t _len = T.zero

let icmp_cksum_cost t len =
  Netsim.Costs.per_byte t.costs.Netsim.Costs.layer.cksum_ns_per_byte len

let ether_send t route ~dst ~etype pkt =
  krun t t.costs.Netsim.Costs.layer.ether_out (fun () ->
      Proto.Ether.encapsulate pkt
        { Proto.Ether.dst; src = Netsim.Dev.mac route.dev; etype };
      Netsim.Dev.transmit route.dev ~prio:Sim.Cpu.Interrupt pkt)

let route_for t dst =
  match
    List.find_opt
      (fun r -> Proto.Ipaddr.in_subnet dst ~net:r.net ~mask_bits:r.mask_bits)
      t.routes
  with
  | Some r -> Some r
  | None -> ( match t.routes with r :: _ -> Some r | [] -> None)

let arp_resolve t route dst k =
  let now = Sim.Engine.now t.engine in
  match Proto.Arp.Cache.lookup route.arp ~now dst with
  | Some mac -> k mac
  | None ->
      Proto.Arp.Cache.wait route.arp dst k;
      let req =
        Proto.Arp.request ~sender_mac:(Netsim.Dev.mac route.dev)
          ~sender_ip:(host_ip t) ~target_ip:dst
      in
      ether_send t route ~dst:Proto.Ether.Mac.broadcast
        ~etype:Proto.Ether.etype_arp (Proto.Arp.to_packet req)

let fresh_ip_id t =
  let id = t.next_ip_id in
  t.next_ip_id <- (t.next_ip_id + 1) land 0xffff;
  id

(* IP output with fragmentation, all in kernel context. *)
let ip_send t ~proto ~dst payload =
  match route_for t dst with
  | None -> invalid_arg "Du_stack.ip_send: no route"
  | Some route ->
      let pkts =
        Proto.Ip_frag.packets ~mtu:(Netsim.Dev.mtu route.dev)
          ~id:(fresh_ip_id t) ~proto ~src:(host_ip t) ~dst payload
      in
      krun t (T.mul t.costs.Netsim.Costs.layer.ip_out (List.length pkts))
        (fun () ->
          List.iter
            (fun pkt ->
              arp_resolve t route dst (fun mac ->
                  ether_send t route ~dst:mac ~etype:Proto.Ether.etype_ip pkt))
            pkts)

(* ---- TCP plumbing ---------------------------------------------------- *)

(* A connection to [remote], entered in the endpoint table. *)
let make_tconn t ~cfg ~local_port ~remote =
  let conn_ref = ref None in
  let remote_ip = fst remote in
  let key = Proto.Tcp_table.key ~remote ~local_port in
  let env =
    {
      Proto.Tcp.engine = t.engine;
      tx =
        (fun pkt ->
          let len = Mbuf.length pkt in
          krun t
            (T.add t.costs.Netsim.Costs.layer.tcp_out (cksum_cost t len))
            (fun () -> ip_send t ~proto:Proto.Ipv4.proto_tcp ~dst:remote_ip pkt));
      on_receive =
        (fun _frame data ->
          match !conn_ref with
          | Some c ->
              (* the socket buffer's copy, which the process reads after
                 the frame is gone: the modelled copyout *)
              let data = View.ro (View.copy data) in
              krun t t.costs.Netsim.Costs.os.socket_in (fun () ->
                  deliver_to_user t ~len:(View.length data) (fun () ->
                      c.tc_on_receive data))
          | None -> ());
      on_established =
        (fun () ->
          match !conn_ref with Some c -> c.tc_on_established () | None -> ());
      on_peer_close =
        (* through the delivery queue, behind any data still in flight to
           the process *)
        (fun () ->
          deliver_to_user t ~len:0 (fun () ->
              match !conn_ref with Some c -> c.tc_on_peer_close () | None -> ()));
      on_close =
        (fun () ->
          Proto.Tcp_table.remove t.endpoints key;
          deliver_to_user t ~len:0 (fun () ->
              match !conn_ref with Some c -> c.tc_on_close () | None -> ()));
      on_error = ignore;
    }
  in
  let tcp = Proto.Tcp.create env cfg ~local:(host_ip t, local_port) in
  let conn =
    {
      du = t;
      tcp;
      tc_on_receive = ignore;
      tc_on_established = ignore;
      tc_on_peer_close = ignore;
      tc_on_close = ignore;
    }
  in
  conn_ref := Some conn;
  Proto.Tcp_table.add t.endpoints key conn;
  conn

(* ---- receive path ----------------------------------------------------- *)

(* The receive path holds each frame from the driver's upcall to the end
   of its branch: the work item that ends the branch releases it, and
   everything the branch keeps is copied out first. *)
let krun_last t cost frame k =
  krun t cost (fun () ->
      k ();
      Mbuf.release frame)

let rx_udp t (iph : Proto.Ipv4.header) v frame =
  krun_last t
    (T.add t.costs.Netsim.Costs.layer.udp_in
       (cksum_cost t (View.length v)))
    frame
    (fun () ->
      match Proto.Udp.check ~src:iph.src ~dst:iph.dst v with
      | Some Proto.Udp.Bad_checksum ->
          t.counters.bad_checksum <- t.counters.bad_checksum + 1
      | Some (Proto.Udp.Runt | Proto.Udp.Bad_length) ->
          t.counters.malformed <- t.counters.malformed + 1
      | None -> (
          match Hashtbl.find_opt t.udp_socks (Proto.Udp.get_dst_port v) with
          | None ->
              t.counters.no_port <- t.counters.no_port + 1;
              (* BSD behaviour: ICMP port unreachable, never to a
                 broadcast (RFC 1122 3.2.2) *)
              if not (Proto.Ipaddr.equal iph.dst Proto.Ipaddr.broadcast) then
                ip_send t ~proto:Proto.Ipv4.proto_icmp ~dst:iph.src
                  (Proto.Icmp.error ~mtype:Proto.Icmp.type_dest_unreachable
                     ~code:Proto.Icmp.code_port_unreachable iph v)
          | Some sock ->
              t.counters.udp_delivered <- t.counters.udp_delivered + 1;
              let src = (iph.src, Proto.Udp.get_src_port v) in
              let data =
                View.get_string v ~off:Proto.Udp.header_len
                  ~len:(View.length v - Proto.Udp.header_len)
              in
              krun t t.costs.Netsim.Costs.os.socket_in (fun () ->
                  deliver_to_user t ~len:(String.length data) (fun () ->
                      sock.us_on_recv ~src data))))

let rx_tcp t (iph : Proto.Ipv4.header) v frame =
  t.counters.tcp_rx <- t.counters.tcp_rx + 1;
  krun_last t
    (T.add t.costs.Netsim.Costs.layer.tcp_in (cksum_cost t (View.length v)))
    frame
    (fun () ->
      match Proto.Tcp_wire.check ~src:iph.src ~dst:iph.dst v with
      | Some Proto.Tcp_wire.Bad_checksum ->
          t.counters.bad_checksum <- t.counters.bad_checksum + 1
      | Some (Proto.Tcp_wire.Runt | Proto.Tcp_wire.Bad_offset) ->
          t.counters.malformed <- t.counters.malformed + 1
      | None -> (
          match Proto.Tcp_table.find t.endpoints ~src:iph.src v with
          | Proto.Tcp_table.Conn conn ->
              Proto.Tcp.input conn.tcp (Mbuf.ro frame) v
          | Proto.Tcp_table.Listener l ->
              let remote = (iph.src, Proto.Tcp_wire.get_src_port v) in
              let conn =
                make_tconn t ~cfg:l.l_cfg
                  ~local_port:(Proto.Tcp_wire.get_dst_port v) ~remote
              in
              let iss = Proto.Tcp.fresh_iss t.engine in
              l.l_accept conn;
              Proto.Tcp.accept conn.tcp ~remote ~iss v
          | Proto.Tcp_table.No_match ->
              t.counters.no_port <- t.counters.no_port + 1))

let rx_icmp t (iph : Proto.Ipv4.header) v frame =
  krun_last t
    (T.add t.costs.Netsim.Costs.layer.udp_in (icmp_cksum_cost t (View.length v)))
    frame
    (fun () ->
      if Proto.Icmp.valid v then
        match Proto.Icmp.parse v with
        | Some m when m.Proto.Icmp.mtype = Proto.Icmp.type_echo_request ->
            t.counters.echos_answered <- t.counters.echos_answered + 1;
            let reply = Proto.Icmp.to_packet (Proto.Icmp.echo_reply_of m) in
            ip_send t ~proto:Proto.Ipv4.proto_icmp ~dst:iph.src reply
        | _ -> ())

let rx_ip t pkt =
  krun t t.costs.Netsim.Costs.layer.ip_in (fun () ->
      let v = View.shift (View.ro (Mbuf.view pkt)) Proto.Ether.header_len in
      let deliver (h : Proto.Ipv4.header) l4 frame =
        if h.proto = Proto.Ipv4.proto_udp then rx_udp t h l4 frame
        else if h.proto = Proto.Ipv4.proto_tcp then rx_tcp t h l4 frame
        else if h.proto = Proto.Ipv4.proto_icmp then rx_icmp t h l4 frame
        else Mbuf.release frame
      in
      match
        Proto.Ip_frag.receive_frame t.frag ~host:(host_ip t) pkt v
      with
      | Deliver h ->
          deliver h
            (View.sub v ~off:Proto.Ipv4.header_len
               ~len:(h.total_len - Proto.Ipv4.header_len))
            pkt
      | Reassembled (h, datagram) ->
          Mbuf.release pkt;
          Mbuf.hold datagram;
          deliver h (View.ro (Mbuf.view datagram)) datagram
      | Pending -> Mbuf.release pkt
      | Drop reason ->
          Mbuf.release pkt;
          (match reason with
          | Proto.Ipv4.Bad_checksum ->
              t.counters.bad_checksum <- t.counters.bad_checksum + 1
          | Proto.Ipv4.Not_ours -> t.counters.not_ours <- t.counters.not_ours + 1
          | Proto.Ipv4.(Runt | Bad_header | Bad_length | Bad_fragment) ->
              t.counters.malformed <- t.counters.malformed + 1))

let rx_arp t route pkt =
  krun_last t t.costs.Netsim.Costs.layer.ether_in pkt (fun () ->
      let v = View.shift (View.ro (Mbuf.view pkt)) Proto.Ether.header_len in
      match Proto.Arp.parse v with
      | None -> ()
      | Some msg ->
          let now = Sim.Engine.now t.engine in
          Proto.Arp.Cache.insert route.arp ~now msg.Proto.Arp.sender_ip
            msg.Proto.Arp.sender_mac;
          if
            msg.Proto.Arp.op = Proto.Arp.op_request
            && Proto.Ipaddr.equal msg.Proto.Arp.target_ip (host_ip t)
          then
            ether_send t route
              ~dst:msg.Proto.Arp.sender_mac ~etype:Proto.Ether.etype_arp
              (Proto.Arp.to_packet
                 (Proto.Arp.reply_to msg ~mac:(Netsim.Dev.mac route.dev))))

let rx t route (pkt : Mbuf.ro Mbuf.t) =
  t.counters.rx <- t.counters.rx + 1;
  Mbuf.hold pkt;
  krun t t.costs.Netsim.Costs.layer.ether_in (fun () ->
      match Proto.Ether.parse (View.ro (Mbuf.view pkt)) with
      | None -> Mbuf.release pkt
      | Some h ->
          let mine =
            Proto.Ether.Mac.equal h.dst (Netsim.Dev.mac route.dev)
            || Proto.Ether.Mac.equal h.dst Proto.Ether.Mac.broadcast
          in
          if mine && h.etype = Proto.Ether.etype_ip then rx_ip t pkt
          else if mine && h.etype = Proto.Ether.etype_arp then rx_arp t route pkt
          else Mbuf.release pkt)

(* ---- construction ----------------------------------------------------- *)

let create ?subnets host =
  let devs = Netsim.Host.devices host in
  if devs = [] then invalid_arg "Du_stack.create: host has no devices";
  let subnets =
    match subnets with
    | Some s ->
        if List.length s <> List.length devs then
          invalid_arg "Du_stack.create: one subnet per device required";
        s
    | None -> List.map (fun _ -> (Netsim.Host.ip host, 24)) devs
  in
  let t =
    {
      host;
      engine = Netsim.Host.engine host;
      cpu = Netsim.Host.cpu host;
      costs = Netsim.Host.costs host;
      routes = [];
      frag = Proto.Ip_frag.create (Netsim.Host.engine host);
      udp_socks = Hashtbl.create 16;
      endpoints = Proto.Tcp_table.create ();
      next_ip_id = 1;
      deliveries = Queue.create ();
      delivering = false;
      counters =
        {
          rx = 0;
          bad_checksum = 0;
          not_ours = 0;
          malformed = 0;
          no_port = 0;
          udp_delivered = 0;
          tcp_rx = 0;
          echos_answered = 0;
        };
    }
  in
  List.iter2
    (fun dev (net, mask_bits) ->
      let route = { net; mask_bits; dev; arp = Proto.Arp.Cache.create () } in
      t.routes <- t.routes @ [ route ];
      Netsim.Dev.set_rx dev (fun _ pkt -> rx t route pkt))
    devs subnets;
  t

let prime_arp t ip mac =
  List.iter
    (fun r -> Proto.Arp.Cache.insert r.arp ~now:(Sim.Engine.now t.engine) ip mac)
    t.routes

(* ---- user-level socket API -------------------------------------------- *)

type error = [ `Port_in_use of int ]

let udp_bind t ~port =
  if Hashtbl.mem t.udp_socks port then Error (`Port_in_use port)
  else begin
    let sock = { us_port = port; us_on_recv = (fun ~src:_ _ -> ()) } in
    Hashtbl.replace t.udp_socks port sock;
    Ok sock
  end

let udp_set_recv sock fn = sock.us_on_recv <- fn

(* sendto(2): trap + copy-in + socket send processing, then the in-kernel
   UDP output path. *)
let udp_sendto t sock ?(checksum = true) ~dst:(dip, dport) data =
  let len = String.length data in
  if len > Proto.Udp.max_payload then
    invalid_arg "Du_stack.udp_sendto: payload exceeds one datagram";
  Syscall.enter t.cpu t.costs ~len (fun () ->
      Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Interrupt
        ~cost:t.costs.Netsim.Costs.os.socket_out (fun () ->
          let cc = if checksum then cksum_cost t len else T.zero in
          krun t (T.add t.costs.Netsim.Costs.layer.udp_out cc) (fun () ->
              let payload = Mbuf.of_string data in
              Proto.Udp.encapsulate ~checksum payload ~src:(host_ip t) ~dst:dip
                ~src_port:sock.us_port ~dst_port:dport;
              ip_send t ~proto:Proto.Ipv4.proto_udp ~dst:dip payload)))

let tcp_listen t ~port ?(cfg = Proto.Tcp.default_config ()) ~on_accept () =
  Proto.Tcp_table.listen t.endpoints ~port { l_cfg = cfg; l_accept = on_accept }

let tcp_connect t ~dst ?(cfg = Proto.Tcp.default_config ()) () =
  match Proto.Tcp_table.alloc_ephemeral t.endpoints ~dst with
  | None -> failwith "Du_stack.tcp_connect: ephemeral ports exhausted"
  | Some local_port ->
      let conn = make_tconn t ~cfg ~local_port ~remote:dst in
      (* connect(2) is a system call *)
      Syscall.enter t.cpu t.costs ~len:0 (fun () ->
          Proto.Tcp.connect conn.tcp ~remote:dst
            ~iss:(Proto.Tcp.fresh_iss t.engine));
      conn

(* write(2) on a socket. *)
let tcp_send t conn data =
  Syscall.enter t.cpu t.costs ~len:(String.length data) (fun () ->
      Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Interrupt
        ~cost:t.costs.Netsim.Costs.os.socket_out (fun () ->
          Proto.Tcp.send conn.tcp data))

let tcp_close t conn =
  Syscall.enter t.cpu t.costs ~len:0 (fun () -> Proto.Tcp.close conn.tcp)

let on_receive conn fn = conn.tc_on_receive <- fn
let on_established conn fn = conn.tc_on_established <- fn
let on_peer_close conn fn = conn.tc_on_peer_close <- fn
let on_close conn fn = conn.tc_on_close <- fn
