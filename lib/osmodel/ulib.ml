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
   the kernel implementations, charged at thread priority. *)
let user_process t (pkt : string) =
  let lay = t.costs.Netsim.Costs.layer in
  urun t lay.ether_in (fun () ->
      let v = View.of_string pkt in
      match Proto.Ether.parse v with
      | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_ip ->
          urun t lay.ip_in (fun () ->
              let ipv = View.shift v Proto.Ether.header_len in
              match Proto.Ipv4.parse ipv with
              | Some h
                when Proto.Ipv4.checksum_valid ipv
                     && Proto.Ipaddr.equal h.Proto.Ipv4.dst (host_ip t)
                     (* a length the frame cannot hold drops here, before
                        any slice runs past its end *)
                     && h.Proto.Ipv4.total_len >= Proto.Ipv4.header_len
                     && h.Proto.Ipv4.total_len <= View.length ipv ->
                  let deliver payload_view (h : Proto.Ipv4.header) =
                    urun t
                      (T.add lay.udp_in (cksum_cost t (View.length payload_view)))
                      (fun () ->
                        if Proto.Udp.valid ~src:h.src ~dst:h.dst payload_view
                        then
                          match Proto.Udp.parse payload_view with
                          | Some uh -> (
                              match Hashtbl.find_opt t.socks uh.Proto.Udp.dst_port with
                              | Some sock ->
                                  t.counters.delivered <-
                                    t.counters.delivered + 1;
                                  let data =
                                    View.get_string payload_view
                                      ~off:Proto.Udp.header_len
                                      ~len:
                                        (View.length payload_view
                                        - Proto.Udp.header_len)
                                  in
                                  urun t lay.app (fun () ->
                                      sock.u_on_recv
                                        ~src:(h.src, uh.Proto.Udp.src_port)
                                        data)
                              | None -> ())
                          | None -> ())
                  in
                  if h.Proto.Ipv4.more_fragments || h.Proto.Ipv4.frag_offset > 0
                  then begin
                    let payload =
                      View.sub ipv ~off:Proto.Ipv4.header_len
                        ~len:(h.Proto.Ipv4.total_len - Proto.Ipv4.header_len)
                    in
                    match
                      Proto.Ip_frag.input t.frag
                        ~now:(Sim.Engine.now t.engine) h payload
                    with
                    | Complete datagram ->
                        deliver (View.ro (Mbuf.view datagram)) h
                    | Pending | Malformed -> ()
                  end
                  else begin
                    deliver
                      (View.sub ipv ~off:Proto.Ipv4.header_len
                         ~len:(h.Proto.Ipv4.total_len - Proto.Ipv4.header_len))
                      h
                  end
              | _ -> ())
      | _ -> ())

(* ---- kernel side -------------------------------------------------------- *)

let rx t (pkt : Mbuf.ro Mbuf.t) =
  t.counters.rx <- t.counters.rx + 1;
  (* in-kernel packet filter at interrupt level: does any socket's
     predicate accept this frame? (We model the filter's decision with
     the real port check; its cost is the flat BPF-interpretation fee.) *)
  krun t filter_cost (fun () ->
      let v = View.ro (Mbuf.view pkt) in
      let accept =
        match Proto.Ether.parse v with
        | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_ip ->
            (* frames the library must see: IP for us (any fragment) *)
            (match Proto.Ipv4.parse (View.shift v Proto.Ether.header_len) with
            | Some h -> Proto.Ipaddr.equal h.Proto.Ipv4.dst (host_ip t)
            | None -> false)
        | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_arp -> true
        | _ -> false
      in
      if not accept then t.counters.filtered_out <- t.counters.filtered_out + 1
      else begin
        let data = Mbuf.to_string pkt in
        match Proto.Ether.parse v with
        | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_arp ->
            (* ARP stays in the kernel (it is address management, not an
               application protocol) *)
            let av = View.shift v Proto.Ether.header_len in
            (match Proto.Arp.parse av with
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
            | None -> ())
        | _ ->
            (* copy the whole frame out to the library and wake it *)
            Sim.Cpu.run t.cpu ~prio:Sim.Cpu.Thread
              ~cost:
                (T.add
                   (T.add t.costs.Netsim.Costs.os.wakeup
                      t.costs.Netsim.Costs.os.ctx_switch)
                   (Syscall.copy_cost t.costs (String.length data)))
              (fun () -> user_process t data)
      end)

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
      frag = Proto.Ip_frag.create ();
      next_ip_id = 1;
      counters = { rx = 0; delivered = 0; filtered_out = 0; tx = 0 };
    }
  in
  Netsim.Dev.set_rx dev (rx t);
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
      let mtu = Netsim.Dev.mtu t.dev in
      if Mbuf.length datagram + Proto.Ipv4.header_len <= mtu then begin
        Proto.Ipv4.encapsulate datagram
          (Proto.Ipv4.make ~id ~proto:Proto.Ipv4.proto_udp ~src:(host_ip t)
             ~dst:dip ~payload_len:(Mbuf.length datagram) ());
        emit datagram
      end
      else
        List.iter
          (fun (off8, more, frag) ->
            let frag_len = Mbuf.length frag in
            Proto.Ipv4.encapsulate frag
              (Proto.Ipv4.make ~id ~more_fragments:more ~frag_offset:off8
                 ~proto:Proto.Ipv4.proto_udp ~src:(host_ip t) ~dst:dip
                 ~payload_len:frag_len ());
            emit frag)
          (Proto.Ip_frag.fragment ~mtu datagram))
