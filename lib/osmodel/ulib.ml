(* User-level protocol libraries — the third execution model, from the
   paper's related work (section 6): "several projects have defined
   protocol structures allowing applications to use their own protocols
   in a safe manner within their address space" [TNML93, MB93].

   The protection story is the same as Plexus's (a trusted entity
   installs packet filters on the application's behalf; protocol code is
   the application's own), but the placement differs: the kernel only
   demultiplexes; every packet is copied to the application, which runs
   the *same* protocol code (Ether/IP/UDP) at user level and re-enters
   the kernel to transmit.  Plexus's claim is that its strategies are
   "functionally identical to, although less costly than" this model —
   quantified by the Figure 5 extension in `experiments/fig5.ml`. *)

module T = Sim.Stime

(* The in-kernel packet filter: a per-socket predicate over the raw
   frame, BPF-style (cheap, runs at interrupt level). *)
let filter_cost = T.us 2

type counters = {
  mutable rx : int;
  mutable delivered : int;
  mutable filtered_out : int;
  mutable bad_checksum : int;
  mutable malformed : int;
  mutable no_port : int;
  mutable tx : int;
}

type usock = {
  u_port : int;
  mutable u_on_recv : src:Proto.Ipaddr.t * int -> string -> unit;
}

type t = {
  host : Netsim.Host.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  costs : Netsim.Costs.t;
  dev : Netsim.Dev.t;
  arp : Proto.Arp.Cache.t;
  socks : (int, usock) Hashtbl.t;
  frag : Proto.Ip_frag.t;
  mutable next_ip_id : int;
  counters : counters;
}

let host_ip t = Netsim.Host.ip t.host
let counters t = t.counters

let urun t cost k = Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread ~cost k
let krun t cost k = Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Interrupt ~cost k

let cksum_cost t len =
  Netsim.Costs.per_byte t.costs.Netsim.Costs.layer.cksum_ns_per_byte len

(* ---- user-level receive path ------------------------------------------ *)

(* Runs in the application's address space: the same protocol layers as
   the kernel implementations, charged at thread priority.  The library
   speaks UDP only; any other protocol is ignored, as the kernel stacks
   ignore a protocol they have no manager for. *)
let user_process t (pkt : string) =
  let lay = t.costs.Netsim.Costs.layer in
  let deliver (h : Proto.Ipv4.header) v =
    if h.proto = Proto.Ipv4.proto_udp then
      urun t (T.add lay.udp_in (cksum_cost t (View.length v))) (fun () ->
          match Proto.Udp.check ~src:h.src ~dst:h.dst v with
          | Some Proto.Udp.Bad_checksum ->
              t.counters.bad_checksum <- t.counters.bad_checksum + 1
          | Some (Proto.Udp.Runt | Proto.Udp.Bad_length) ->
              t.counters.malformed <- t.counters.malformed + 1
          | None -> (
              match Hashtbl.find_opt t.socks (Proto.Udp.get_dst_port v) with
              | Some sock ->
                  t.counters.delivered <- t.counters.delivered + 1;
                  let src = (h.src, Proto.Udp.get_src_port v) in
                  let data =
                    View.get_string v ~off:Proto.Udp.header_len
                      ~len:(View.length v - Proto.Udp.header_len)
                  in
                  urun t lay.app (fun () -> sock.u_on_recv ~src data)
              | None -> t.counters.no_port <- t.counters.no_port + 1))
  in
  (* the kernel filter copies out IPv4 frames only *)
  urun t lay.ether_in (fun () ->
      urun t lay.ip_in (fun () ->
          let ipv = View.shift (View.of_string pkt) Proto.Ether.header_len in
          match
            Proto.Ip_frag.receive t.frag ~host:(host_ip t) ipv
          with
          | Deliver h ->
              deliver h
                (View.sub ipv ~off:Proto.Ipv4.header_len
                   ~len:(h.total_len - Proto.Ipv4.header_len))
          | Reassembled (h, datagram) -> deliver h (View.ro (Mbuf.view datagram))
          | Pending -> ()
          | Drop Proto.Ipv4.Bad_checksum ->
              t.counters.bad_checksum <- t.counters.bad_checksum + 1
          | Drop Proto.Ipv4.Not_ours ->
              (* the kernel filter refuses these before the copy *)
              t.counters.filtered_out <- t.counters.filtered_out + 1
          | Drop Proto.Ipv4.(Runt | Bad_header | Bad_length | Bad_fragment) ->
              t.counters.malformed <- t.counters.malformed + 1))

(* ---- kernel side -------------------------------------------------------- *)

(* The in-kernel packet filter: ARP is answered in the kernel, IPv4
   for this host is copied out to the library, the rest is refused. *)
let filter t pkt =
  let v = View.ro (Mbuf.view pkt) in
  let etype =
    if Proto.Ether.has_header v then Proto.Ether.get_etype v else -1
  in
  if etype = Proto.Ether.etype_arp then begin
    (* ARP stays in the kernel (it is address management, not an
       application protocol) *)
    match Proto.Arp.parse (View.shift v Proto.Ether.header_len) with
    | Some msg ->
        Proto.Arp.Cache.insert t.arp ~now:(Sim.Engine.now t.engine)
          msg.Proto.Arp.sender_ip msg.Proto.Arp.sender_mac;
        if
          msg.Proto.Arp.op = Proto.Arp.op_request
          && Proto.Ipaddr.equal msg.Proto.Arp.target_ip (host_ip t)
        then begin
          let reply =
            Proto.Arp.to_packet
              (Proto.Arp.reply_to msg ~mac:(Netsim.Dev.mac t.dev))
          in
          Proto.Ether.encapsulate reply
            {
              Proto.Ether.dst = msg.Proto.Arp.sender_mac;
              src = Netsim.Dev.mac t.dev;
              etype = Proto.Ether.etype_arp;
            };
          Netsim.Dev.transmit t.dev ~prio:Sim.Cpu.Interrupt reply
        end
    | None -> ()
  end
  else if
    (* frames the library must see: IP for us or broadcast (any
       fragment) *)
    etype = Proto.Ether.etype_ip
    &&
    let ipv = View.shift v Proto.Ether.header_len in
    Proto.Ipv4.has_header ipv
    &&
    let dst = Proto.Ipv4.get_dst ipv in
    Proto.Ipaddr.equal dst (host_ip t)
    || Proto.Ipaddr.equal dst Proto.Ipaddr.broadcast
  then begin
    (* copy the whole frame out to the library and wake it *)
    let data = Mbuf.to_string pkt in
    Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread
      ~cost:
        (T.add
           (T.add t.costs.Netsim.Costs.os.wakeup
              t.costs.Netsim.Costs.os.ctx_switch)
           (Syscall.copy_cost t.costs (String.length data)))
      (fun () -> user_process t data)
  end
  else t.counters.filtered_out <- t.counters.filtered_out + 1

let rx t (pkt : Mbuf.ro Mbuf.t) =
  t.counters.rx <- t.counters.rx + 1;
  (* in-kernel packet filter at interrupt level: does any socket's
     predicate accept this frame? (We model the filter's decision with
     the real port check; its cost is the flat BPF-interpretation fee.)
     The frame is held until the filter has copied it out or refused
     it. *)
  Mbuf.hold pkt;
  krun t filter_cost (fun () ->
      filter t pkt;
      Mbuf.release pkt)

let create host =
  let dev =
    match Netsim.Host.devices host with
    | d :: _ -> d
    | [] -> invalid_arg "Ulib.create: host has no devices"
  in
  let t =
    {
      host;
      engine = Netsim.Host.engine host;
      cpu = Netsim.Host.cpu host;
      costs = Netsim.Host.costs host;
      dev;
      arp = Proto.Arp.Cache.create ();
      socks = Hashtbl.create 8;
      frag = Proto.Ip_frag.create (Netsim.Host.engine host);
      next_ip_id = 1;
      counters =
        {
          rx = 0;
          delivered = 0;
          filtered_out = 0;
          bad_checksum = 0;
          malformed = 0;
          no_port = 0;
          tx = 0;
        };
    }
  in
  Netsim.Dev.set_rx dev (fun _ pkt -> rx t pkt);
  t

let prime_arp t ip mac =
  Proto.Arp.Cache.insert t.arp ~now:(Sim.Engine.now t.engine) ip mac

type error = [ `Port_in_use of int ]

let udp_bind t ~port =
  if Hashtbl.mem t.socks port then Error (`Port_in_use port)
  else begin
    let sock = { u_port = port; u_on_recv = (fun ~src:_ _ -> ()) } in
    Hashtbl.replace t.socks port sock;
    Ok sock
  end

let udp_set_recv sock fn = sock.u_on_recv <- fn

(* ---- user-level send path ----------------------------------------------- *)

let udp_sendto t sock ~dst:(dip, dport) data =
  if String.length data > Proto.Udp.max_payload then
    invalid_arg "Ulib.udp_sendto: payload exceeds one datagram";
  t.counters.tx <- t.counters.tx + 1;
  let lay = t.costs.Netsim.Costs.layer in
  let len = String.length data in
  (* the library builds the whole datagram — and fragments it to the
     device MTU — in its own address space *)
  urun t
    (T.add (T.add lay.udp_out (cksum_cost t len)) (T.add lay.ip_out lay.ether_out))
    (fun () ->
      let datagram = Mbuf.of_string data in
      Proto.Udp.encapsulate datagram ~src:(host_ip t) ~dst:dip
        ~src_port:sock.u_port ~dst_port:dport;
      t.next_ip_id <- (t.next_ip_id + 1) land 0xffff;
      let id = t.next_ip_id in
      let mac =
        match Proto.Arp.Cache.lookup t.arp ~now:(Sim.Engine.now t.engine) dip with
        | Some mac -> mac
        | None -> Proto.Ether.Mac.broadcast (* experiments prime the cache *)
      in
      let emit frag =
        Proto.Ether.encapsulate frag
          { Proto.Ether.dst = mac; src = Netsim.Dev.mac t.dev;
            etype = Proto.Ether.etype_ip };
        (* ...each packet crosses into the kernel, which only drives the
           device *)
        Syscall.enter t.cpu t.costs ~len:(Mbuf.length frag) (fun () ->
            Netsim.Dev.transmit t.dev ~prio:Sim.Cpu.Interrupt frag)
      in
      List.iter emit
        (Proto.Ip_frag.packets ~mtu:(Netsim.Dev.mtu t.dev) ~id
           ~proto:Proto.Ipv4.proto_udp ~src:(host_ip t) ~dst:dip datagram))
