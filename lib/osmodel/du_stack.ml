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
  mutable tkey : (int * int * int) option;
  mutable tc_on_receive : string -> unit;
  mutable tc_on_established : unit -> unit;
  mutable tc_on_peer_close : unit -> unit;
  mutable tc_on_close : unit -> unit;
  mutable tc_on_error : string -> unit;
}

and listener = { l_port : int; l_cfg : Proto.Tcp.config; l_accept : tconn -> unit }

and t = {
  host : Netsim.Host.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  costs : Netsim.Costs.t;
  mutable routes : route list;
  frag : Proto.Ip_frag.t;
  udp_socks : (int, udp_sock) Hashtbl.t;
  tconns : (int * int * int, tconn) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable next_ip_id : int;
  deliveries : (int * (unit -> unit)) Queue.t;
      (* pending socket-to-process deliveries *)
  mutable delivering : bool;
  counters : counters;
}

let host_ip t = Netsim.Host.ip t.host
let counters t = t.counters
let host t = t.host

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
      let mtu = Netsim.Dev.mtu route.dev in
      let len = Mbuf.length payload in
      let src = host_ip t in
      if len + Proto.Ipv4.header_len <= mtu then
        krun t t.costs.Netsim.Costs.layer.ip_out (fun () ->
            Proto.Ipv4.encapsulate payload
              (Proto.Ipv4.make ~id:(fresh_ip_id t) ~proto ~src ~dst
                 ~payload_len:len ());
            arp_resolve t route dst (fun mac ->
                ether_send t route ~dst:mac ~etype:Proto.Ether.etype_ip payload))
      else begin
        let id = fresh_ip_id t in
        (* fragments are zero-copy sub-chains of the payload *)
        let frags = Proto.Ip_frag.fragment ~mtu payload in
        krun t
          (T.mul t.costs.Netsim.Costs.layer.ip_out (List.length frags))
          (fun () ->
            List.iter
              (fun (off8, more, frag) ->
                let frag_len = Mbuf.length frag in
                Proto.Ipv4.encapsulate frag
                  (Proto.Ipv4.make ~id ~more_fragments:more ~frag_offset:off8
                     ~proto ~src ~dst ~payload_len:frag_len ());
                arp_resolve t route dst (fun mac ->
                    ether_send t route ~dst:mac ~etype:Proto.Ether.etype_ip frag))
              frags)
      end

(* ---- TCP plumbing ---------------------------------------------------- *)

let make_tconn t ~cfg ~local_port =
  let conn_ref = ref None in
  let remote_ip = ref Proto.Ipaddr.any in
  let env =
    {
      Proto.Tcp.now = (fun () -> Sim.Engine.now t.engine);
      set_timer =
        (fun delay fn ->
          let h = Sim.Engine.schedule_in t.engine ~delay fn in
          fun () -> Sim.Engine.cancel t.engine h);
      tx =
        (fun pkt ->
          let len = Mbuf.length pkt in
          krun t
            (T.add t.costs.Netsim.Costs.layer.tcp_out (cksum_cost t len))
            (fun () -> ip_send t ~proto:Proto.Ipv4.proto_tcp ~dst:!remote_ip pkt));
      on_receive =
        (fun data ->
          match !conn_ref with
          | Some c ->
              (* socket buffer, then cross to the user process *)
              krun t t.costs.Netsim.Costs.os.socket_in (fun () ->
                  deliver_to_user t ~len:(String.length data) (fun () ->
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
          (match !conn_ref with
          | Some c -> (
              match c.tkey with Some k -> Hashtbl.remove t.tconns k | None -> ())
          | None -> ());
          deliver_to_user t ~len:0 (fun () ->
              match !conn_ref with Some c -> c.tc_on_close () | None -> ()));
      on_error =
        (fun msg ->
          match !conn_ref with Some c -> c.tc_on_error msg | None -> ());
    }
  in
  let tcp = Proto.Tcp.create env cfg ~local:(host_ip t, local_port) in
  let conn =
    {
      du = t;
      tcp;
      tkey = None;
      tc_on_receive = ignore;
      tc_on_established = ignore;
      tc_on_peer_close = ignore;
      tc_on_close = ignore;
      tc_on_error = ignore;
    }
  in
  conn_ref := Some conn;
  (conn, remote_ip)

let register_tconn t conn ~remote:(rip, rport) ~local_port remote_ip_ref =
  remote_ip_ref := rip;
  let key = (Proto.Ipaddr.to_int rip, rport, local_port) in
  conn.tkey <- Some key;
  Hashtbl.replace t.tconns key conn

let fresh_iss t =
  Proto.Tcp_wire.Seq.of_int (Sim.Rng.int (Sim.Engine.rng t.engine) 0x0fffffff)

(* ---- receive path ----------------------------------------------------- *)

let rx_udp t (iph : Proto.Ipv4.header) v =
  krun t
    (T.add t.costs.Netsim.Costs.layer.udp_in
       (cksum_cost t (View.length v)))
    (fun () ->
      if not (Proto.Udp.valid ~src:iph.src ~dst:iph.dst v) then
        t.counters.bad_checksum <- t.counters.bad_checksum + 1
      else
        match Proto.Udp.parse v with
        | None -> t.counters.bad_checksum <- t.counters.bad_checksum + 1
        | Some h -> (
            match Hashtbl.find_opt t.udp_socks h.dst_port with
            | None ->
                t.counters.no_port <- t.counters.no_port + 1;
                (* BSD behaviour: ICMP port unreachable *)
                ip_send t ~proto:Proto.Ipv4.proto_icmp ~dst:iph.src
                  (Proto.Icmp.to_packet
                     (Proto.Icmp.port_unreachable ~original:(View.to_string v)))
            | Some sock ->
                t.counters.udp_delivered <- t.counters.udp_delivered + 1;
                let data =
                  View.get_string v ~off:Proto.Udp.header_len
                    ~len:(View.length v - Proto.Udp.header_len)
                in
                krun t t.costs.Netsim.Costs.os.socket_in (fun () ->
                    deliver_to_user t ~len:(String.length data) (fun () ->
                        sock.us_on_recv ~src:(iph.src, h.src_port) data))))

let rx_tcp t (iph : Proto.Ipv4.header) v =
  t.counters.tcp_rx <- t.counters.tcp_rx + 1;
  krun t
    (T.add t.costs.Netsim.Costs.layer.tcp_in (cksum_cost t (View.length v)))
    (fun () ->
      match Proto.Tcp_wire.parse v with
      | None -> t.counters.bad_checksum <- t.counters.bad_checksum + 1
      | Some (h, _) -> (
          let key =
            (Proto.Ipaddr.to_int iph.src, h.src_port, h.dst_port)
          in
          match Hashtbl.find_opt t.tconns key with
          | Some conn -> Proto.Tcp.input conn.tcp v
          | None -> (
              match Hashtbl.find_opt t.listeners h.dst_port with
              | Some l
                when Proto.Tcp_wire.Flags.test h.flags Proto.Tcp_wire.Flags.syn
                ->
                  let conn, rref = make_tconn t ~cfg:l.l_cfg ~local_port:l.l_port in
                  let remote = (iph.src, h.src_port) in
                  register_tconn t conn ~remote ~local_port:l.l_port rref;
                  Proto.Tcp.set_remote conn.tcp ~remote;
                  Proto.Tcp.set_iss conn.tcp (fresh_iss t);
                  Proto.Tcp.listen conn.tcp;
                  l.l_accept conn;
                  Proto.Tcp.input conn.tcp v
              | _ -> t.counters.no_port <- t.counters.no_port + 1)))

let rx_icmp t (iph : Proto.Ipv4.header) v =
  krun t
    (T.add t.costs.Netsim.Costs.layer.udp_in (icmp_cksum_cost t (View.length v)))
    (fun () ->
      if Proto.Icmp.valid v then
        match Proto.Icmp.parse v with
        | Some m when m.Proto.Icmp.mtype = Proto.Icmp.type_echo_request ->
            t.counters.echos_answered <- t.counters.echos_answered + 1;
            let reply = Proto.Icmp.to_packet (Proto.Icmp.echo_reply_of m) in
            ip_send t ~proto:Proto.Ipv4.proto_icmp ~dst:iph.src reply
        | _ -> ())

let rx_ip t route pkt =
  krun t t.costs.Netsim.Costs.layer.ip_in (fun () ->
      let v = View.shift (View.ro (Mbuf.view pkt)) Proto.Ether.header_len in
      match Proto.Ipv4.parse v with
      | None -> t.counters.bad_checksum <- t.counters.bad_checksum + 1
      | Some h ->
          if not (Proto.Ipv4.checksum_valid v) then
            t.counters.bad_checksum <- t.counters.bad_checksum + 1
          else if
            not
              (Proto.Ipaddr.equal h.dst (host_ip t)
              || Proto.Ipaddr.equal h.dst Proto.Ipaddr.broadcast)
          then t.counters.not_ours <- t.counters.not_ours + 1
          else begin
            ignore route;
            let deliver (h : Proto.Ipv4.header) l4 =
              if h.proto = Proto.Ipv4.proto_udp then rx_udp t h l4
              else if h.proto = Proto.Ipv4.proto_tcp then rx_tcp t h l4
              else if h.proto = Proto.Ipv4.proto_icmp then rx_icmp t h l4
            in
            if h.more_fragments || h.frag_offset > 0 then begin
              let payload =
                View.sub v ~off:Proto.Ipv4.header_len
                  ~len:(h.total_len - Proto.Ipv4.header_len)
              in
              match
                Proto.Ip_frag.input t.frag ~now:(Sim.Engine.now t.engine) h
                  payload
              with
              | Pending | Malformed -> ()
              | Complete datagram ->
                  let h = { h with more_fragments = false; frag_offset = 0 } in
                  deliver h (View.ro (Mbuf.view datagram))
            end
            else begin
              let l4_len = h.total_len - Proto.Ipv4.header_len in
              let l4 =
                View.sub v ~off:Proto.Ipv4.header_len
                  ~len:(min l4_len (View.length v - Proto.Ipv4.header_len))
              in
              deliver h l4
            end
          end)

let rx_arp t route pkt =
  krun t t.costs.Netsim.Costs.layer.ether_in (fun () ->
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
  krun t t.costs.Netsim.Costs.layer.ether_in (fun () ->
      match Proto.Ether.parse (View.ro (Mbuf.view pkt)) with
      | None -> ()
      | Some h ->
          let mine =
            Proto.Ether.Mac.equal h.dst (Netsim.Dev.mac route.dev)
            || Proto.Ether.Mac.equal h.dst Proto.Ether.Mac.broadcast
          in
          if mine then begin
            if h.etype = Proto.Ether.etype_ip then rx_ip t route pkt
            else if h.etype = Proto.Ether.etype_arp then rx_arp t route pkt
          end)

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
      frag = Proto.Ip_frag.create ();
      udp_socks = Hashtbl.create 16;
      tconns = Hashtbl.create 16;
      listeners = Hashtbl.create 8;
      next_ephemeral = 32768;
      next_ip_id = 1;
      deliveries = Queue.create ();
      delivering = false;
      counters =
        {
          rx = 0;
          bad_checksum = 0;
          not_ours = 0;
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
      Netsim.Dev.set_rx dev (rx t route))
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
let udp_port sock = sock.us_port

(* sendto(2): trap + copy-in + socket send processing, then the in-kernel
   UDP output path. *)
let udp_sendto t sock ?(checksum = true) ~dst:(dip, dport) data =
  let len = String.length data in
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
  if Hashtbl.mem t.listeners port then Error (`Port_in_use port)
  else begin
    Hashtbl.replace t.listeners port
      { l_port = port; l_cfg = cfg; l_accept = on_accept };
    Ok ()
  end

let tcp_connect t ?src_port ~dst ?(cfg = Proto.Tcp.default_config ()) () =
  let port =
    match src_port with
    | Some p -> p
    | None ->
        let p = t.next_ephemeral in
        t.next_ephemeral <- (if p >= 60999 then 32768 else p + 1);
        p
  in
  let conn, rref = make_tconn t ~cfg ~local_port:port in
  register_tconn t conn ~remote:dst ~local_port:port rref;
  (* connect(2) is a system call *)
  Syscall.enter t.cpu t.costs ~len:0 (fun () ->
      Proto.Tcp.connect conn.tcp ~remote:dst ~iss:(fresh_iss t));
  conn

(* write(2) on a socket. *)
let tcp_send t conn data =
  Syscall.enter t.cpu t.costs ~len:(String.length data) (fun () ->
      Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Interrupt
        ~cost:t.costs.Netsim.Costs.os.socket_out (fun () ->
          Proto.Tcp.send conn.tcp data))

let tcp_close t conn =
  Syscall.enter t.cpu t.costs ~len:0 (fun () -> Proto.Tcp.close conn.tcp)

let tconn_state conn = Proto.Tcp.state conn.tcp
let tconn_tcp conn = conn.tcp

let on_receive conn fn = conn.tc_on_receive <- fn
let on_established conn fn = conn.tc_on_established <- fn
let on_peer_close conn fn = conn.tc_on_peer_close <- fn
let on_close conn fn = conn.tc_on_close <- fn
let on_error conn fn = conn.tc_on_error <- fn
