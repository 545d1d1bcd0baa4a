(* Received bytes are lent, not given: the TCP receive path hands the
   application a view into the frame the bytes arrived in, holds the
   frame for exactly as long as the callback is queued, and keeps an
   out-of-order segment by holding its frame (capped by bytes as well as
   segments).  The in-kernel forwarder rewrites a datagram in place in
   one copy; a property checks it against the record-and-encapsulate
   rewrite it replaced.  And a connection's [on_close] fires once, however
   often the application closes it. *)

let tc name f = Alcotest.test_case name `Quick f

let ip_a = Experiments.Common.ip_a
let ip_b = Experiments.Common.ip_b
let live () = snd (Mbuf.stats ())

(* ---- the application's lease ------------------------------------------ *)

(* The view reads the sent bytes inside the callback, its frame is live
   (held) then, and once the exchange is over every frame is back. *)
let plexus_lease () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  let got = ref [] and held = ref [] in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
       ~owner:"sink" ~port:80
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun v ->
             got := View.to_string v :: !got;
             held := live () :: !held))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  match
    Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Experiments.Common.a)
      ~owner:"src" ~dst:(ip_b, 80) ()
  with
  | Error _ -> Alcotest.fail "connect failed"
  | Ok conn ->
      Sim.Engine.run engine ~until:(Sim.Stime.s 1);
      let before = live () in
      Plexus.Tcp_mgr.send conn "lent, not given";
      Sim.Engine.run engine ~until:(Sim.Stime.s 2);
      Alcotest.(check (list string)) "read inside the callback"
        [ "lent, not given" ] !got;
      Alcotest.(check bool) "the frame is live during the callback" true
        (List.for_all (fun n -> n > before) !held);
      Alcotest.(check int) "every frame returned after it" before (live ())

(* ---- on_close fires once -------------------------------------------- *)

(* A connection that ended (both sides closed, TIME_WAIT over) and is
   closed again, by either side, reports nothing more. *)
let plexus_close_twice () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  let closes_a = ref 0 and closes_b = ref 0 and server = ref None in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
       ~owner:"srv" ~port:80
       ~on_accept:(fun conn ->
         server := Some conn;
         Plexus.Tcp_mgr.on_close conn (fun () -> incr closes_b);
         Plexus.Tcp_mgr.on_peer_close conn (fun () ->
             Plexus.Tcp_mgr.close conn))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  match
    Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Experiments.Common.a)
      ~owner:"cli" ~dst:(ip_b, 80) ()
  with
  | Error _ -> Alcotest.fail "connect failed"
  | Ok conn ->
      Plexus.Tcp_mgr.on_close conn (fun () -> incr closes_a);
      Plexus.Tcp_mgr.on_established conn (fun () -> Plexus.Tcp_mgr.close conn);
      Sim.Engine.run engine ~until:(Sim.Stime.s 120);
      Alcotest.(check (pair int int)) "each side closed once" (1, 1)
        (!closes_a, !closes_b);
      Plexus.Tcp_mgr.close conn;
      Option.iter Plexus.Tcp_mgr.close !server;
      Sim.Engine.run engine ~until:(Sim.Stime.s 121);
      Alcotest.(check (pair int int)) "a second close reports nothing" (1, 1)
        (!closes_a, !closes_b)

let du_close_twice () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.du_engine in
  let dua = p.Experiments.Common.dua and dub = p.Experiments.Common.dub in
  let closes_a = ref 0 and closes_b = ref 0 and server = ref None in
  (match
     Osmodel.Du_stack.tcp_listen dub ~port:80
       ~on_accept:(fun conn ->
         server := Some conn;
         Osmodel.Du_stack.on_close conn (fun () -> incr closes_b);
         Osmodel.Du_stack.on_peer_close conn (fun () ->
             Osmodel.Du_stack.tcp_close dub conn))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen failed");
  let conn = Osmodel.Du_stack.tcp_connect dua ~dst:(ip_b, 80) () in
  Osmodel.Du_stack.on_close conn (fun () -> incr closes_a);
  Osmodel.Du_stack.on_established conn (fun () ->
      Osmodel.Du_stack.tcp_close dua conn);
  Sim.Engine.run engine ~until:(Sim.Stime.s 120);
  Alcotest.(check (pair int int)) "each side closed once" (1, 1)
    (!closes_a, !closes_b);
  Osmodel.Du_stack.tcp_close dua conn;
  Option.iter (Osmodel.Du_stack.tcp_close dub) !server;
  Sim.Engine.run engine ~until:(Sim.Stime.s 121);
  Alcotest.(check (pair int int)) "a second close reports nothing" (1, 1)
    (!closes_a, !closes_b)

(* ---- the out-of-order queue ------------------------------------------ *)

(* One passive engine fed segments by hand, the way a stack's receive
   path does: it holds each frame around [Tcp.input] and releases it
   after, so a frame stays live only while the engine holds it. *)
module Rx = struct
  let local = (ip_b, 80)
  let remote_port = 1000
  let client_iss = 100

  type t = { tcp : Proto.Tcp.t; got : Buffer.t }

  let segment ~seq ~flags payload =
    Segment.tcp ~src:ip_a ~dst:ip_b
      {
        Proto.Tcp_wire.src_port = remote_port;
        dst_port = 80;
        seq = Proto.Tcp_wire.Seq.of_int seq;
        ack = Proto.Tcp_wire.Seq.of_int 5001;
        flags;
        window = 65535;
      }
      payload

  let feed t frame =
    let frame = Mbuf.ro frame in
    Mbuf.hold frame;
    Proto.Tcp.input t.tcp frame (View.ro (Mbuf.view frame));
    Mbuf.release frame

  (* An ESTABLISHED engine whose receive window is [window] bytes. *)
  let establish ~window =
    let engine = Sim.Engine.create () in
    let got = Buffer.create 64 in
    let env =
      {
        Proto.Tcp.engine;
        tx = Mbuf.free;
        on_receive = (fun _ v -> Buffer.add_string got (View.to_string v));
        on_established = ignore;
        on_peer_close = ignore;
        on_close = ignore;
        on_error = ignore;
      }
    in
    let cfg = Proto.Tcp.default_config ~window ~mss:1000 () in
    let t = { tcp = Proto.Tcp.create env cfg ~local; got } in
    let syn =
      Mbuf.ro (segment ~seq:client_iss ~flags:Proto.Tcp_wire.Flags.syn "")
    in
    Proto.Tcp.accept t.tcp ~remote:(ip_a, remote_port)
      ~iss:(Proto.Tcp_wire.Seq.of_int 5000) (View.ro (Mbuf.view syn));
    feed t (segment ~seq:(client_iss + 1) ~flags:Proto.Tcp_wire.Flags.ack "");
    t

  (* The [i]th 1000-byte segment of the stream. *)
  let data t i =
    feed t
      (segment ~seq:(client_iss + 1 + (1000 * i)) ~flags:Proto.Tcp_wire.Flags.ack
         (String.make 1000 (Char.chr (Char.code 'a' + i))))
end

(* The first [n] segments' bytes, in order. *)
let stream n =
  String.concat ""
    (List.init n (fun i -> String.make 1000 (Char.chr (Char.code 'a' + i))))

(* A 4000-byte window: segments 1..6 arrive before segment 0, the first
   four are held and the two past the byte cap dropped; segment 0 drains
   the four, and the two come again. *)
let ooo_byte_cap () =
  let t = Rx.establish ~window:4000 in
  let base = live () in
  List.iter (Rx.data t) [ 1; 2; 3; 4; 5; 6 ];
  let c = Proto.Tcp.counters t.Rx.tcp in
  Alcotest.(check int) "four segments held" (base + 4) (live ());
  Alcotest.(check int) "two dropped past the byte cap" 2 c.Proto.Tcp.ooo_drops;
  Alcotest.(check string) "nothing in order yet" "" (Buffer.contents t.Rx.got);
  Rx.data t 0;
  Alcotest.(check int) "the drain returns every held frame" base (live ());
  Alcotest.(check string) "delivered in order" (stream 5) (Buffer.contents t.Rx.got);
  List.iter (Rx.data t) [ 5; 6 ];
  Alcotest.(check string) "the dropped segments come again" (stream 7)
    (Buffer.contents t.Rx.got);
  Alcotest.(check int) "nothing held" base (live ())

(* A held segment that overlaps the in-order one gives its unseen tail:
   bytes 500-1499 arrive, then 0-999, and all 1,500 are delivered in
   order with no frame left held.  One that the in-order segment covers
   whole is let go. *)
let ooo_overlap_drained () =
  let t = Rx.establish ~window:65535 in
  let base = live () in
  let bytes = String.init 2500 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let send off len =
    Rx.feed t
      (Rx.segment ~seq:(Rx.client_iss + 1 + off) ~flags:Proto.Tcp_wire.Flags.ack
         (String.sub bytes off len))
  in
  send 500 1000;
  Alcotest.(check int) "held" (base + 1) (live ());
  send 0 1000;
  Alcotest.(check string) "1,500 bytes in order" (String.sub bytes 0 1500)
    (Buffer.contents t.Rx.got);
  Alcotest.(check int) "nothing held" base (live ());
  send 1600 400;
  send 1500 1000;
  Alcotest.(check string) "a covered segment adds nothing" bytes
    (Buffer.contents t.Rx.got);
  Alcotest.(check int) "and is let go" base (live ())

(* Segments held when the connection ends go back with it. *)
let ooo_released_on_abort () =
  let t = Rx.establish ~window:65535 in
  let base = live () in
  List.iter (Rx.data t) [ 2; 3; 5 ];
  Alcotest.(check int) "three held" (base + 3) (live ());
  Proto.Tcp.abort t.Rx.tcp;
  Alcotest.(check int) "abort returns them" base (live ());
  Alcotest.(check string) "CLOSED" "CLOSED"
    (Proto.Tcp.state_to_string (Proto.Tcp.state t.Rx.tcp))

(* ---- the forwarder's rewrite ----------------------------------------- *)

(* The rewrite the forwarder made before it worked in place: a header
   record, [Ipv4.encapsulate] and a checksum closure over address
   tuples.  Kept as the reference the in-place rewrite must match byte
   for byte. *)
module Reference = struct
  let l4_cksum_offset proto =
    if proto = Proto.Ipv4.proto_tcp then Some Proto.Tcp_wire.Off.cksum
    else if proto = Proto.Ipv4.proto_udp then Some Proto.Udp.Off.cksum
    else None

  let ip_words ip =
    let i = Proto.Ipaddr.to_int ip in
    ((i lsr 16) land 0xffff, i land 0xffff)

  let patch_cksum seg ~proto ~old_src ~new_src ~old_dst ~new_dst ~old_port
      ~new_port =
    match l4_cksum_offset proto with
    | None -> ()
    | Some cksum_off when View.length seg > cksum_off + 1 ->
        let c = View.get_u16 seg cksum_off in
        if proto = Proto.Ipv4.proto_udp && c = 0 then ()
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

  let rewrite ctx ~new_src ~new_dst ~port_off ~new_port =
    let iph = Plexus.Pctx.ip_exn ctx in
    let src = Plexus.Pctx.view ctx in
    let len = View.length src in
    let pkt = Mbuf.alloc len in
    let seg = Mbuf.view pkt in
    View.blit ~src ~dst:seg ~src_off:0 ~dst_off:0 ~len;
    let old_port = View.get_u16 seg port_off in
    View.set_u16 seg port_off new_port;
    patch_cksum seg ~proto:iph.Proto.Ipv4.proto ~old_src:iph.Proto.Ipv4.src
      ~new_src ~old_dst:iph.Proto.Ipv4.dst ~new_dst ~old_port ~new_port;
    Proto.Ipv4.encapsulate pkt
      {
        iph with
        Proto.Ipv4.src = new_src;
        dst = new_dst;
        ttl = iph.Proto.Ipv4.ttl - 1;
      };
    pkt
end

type case = {
  tcp : bool;
  payload : string;
  tos : int;
  id : int;
  df : bool;
  reserved : bool;  (* the reserved flag bit set on the wire *)
  ttl : int;
  src : int;
  dst : int;
  ports : int * int;
  udp_cksum : bool;
  pad : int;  (* link-layer padding past the datagram *)
  reverse : bool;  (* rewrite the source port (the reverse direction) *)
  new_src : int;
  new_dst : int;
  new_port : int;
  reassembled : bool;  (* delivered as a reassembled datagram *)
}

let case_gen =
  let open QCheck.Gen in
  let addr = map (fun i -> 0x0a000000 lor i) (0 -- 0xffffff) in
  let port = 0 -- 0xffff in
  let* tcp = bool and* payload = string_size ~gen:char (0 -- 301)
  and* tos = 0 -- 255 and* id = 0 -- 0xffff and* df = bool
  and* reserved = frequency [ (4, return false); (1, return true) ]
  and* ttl = frequency [ (1, return 2); (3, 2 -- 255) ]
  and* src = addr and* dst = addr and* ports = pair port port
  and* udp_cksum = bool
  and* pad = frequency [ (2, return 0); (1, 1 -- 40) ]
  and* reverse = bool and* new_src = addr and* new_dst = addr
  and* new_port = port
  and* reassembled = frequency [ (4, return false); (1, return true) ] in
  return
    { tcp; payload; tos; id; df; reserved; ttl; src; dst; ports; udp_cksum;
      pad; reverse; new_src; new_dst; new_port; reassembled }

let print_case c =
  Printf.sprintf
    "%s len=%d tos=%d id=%d df=%b rsv=%b ttl=%d ports=%d,%d cksum=%b pad=%d \
     reverse=%b port=%d reassembled=%b"
    (if c.tcp then "tcp" else "udp")
    (String.length c.payload) c.tos c.id c.df c.reserved c.ttl (fst c.ports)
    (snd c.ports) c.udp_cksum c.pad c.reverse c.new_port c.reassembled

let dev =
  lazy
    (let engine = Sim.Engine.create () in
     let host = Netsim.Host.create engine ~name:"fwd" ~ip:ip_b in
     Netsim.Host.add_device host (Netsim.Costs.ethernet ()))

(* The case's datagram arriving at the forwarder, as the IP manager
   raises it: past the Ethernet and IP headers, padding cut off, header
   attached; or as a reassembled datagram, which has no header bytes. *)
let context c =
  let src = Proto.Ipaddr.of_int c.src and dst = Proto.Ipaddr.of_int c.dst in
  let sport, dport = c.ports in
  let seg =
    if c.tcp then
      Segment.tcp ~src ~dst
        {
          Proto.Tcp_wire.src_port = sport;
          dst_port = dport;
          seq = Proto.Tcp_wire.Seq.of_int c.id;
          ack = Proto.Tcp_wire.Seq.of_int c.tos;
          flags = Proto.Tcp_wire.Flags.ack;
          window = 4096;
        }
        c.payload
    else begin
      let m = Mbuf.of_string c.payload in
      Proto.Udp.encapsulate ~checksum:c.udp_cksum m ~src ~dst ~src_port:sport
        ~dst_port:dport;
      m
    end
  in
  let seg = Mbuf.to_string seg in
  let proto = if c.tcp then Proto.Ipv4.proto_tcp else Proto.Ipv4.proto_udp in
  let h =
    Proto.Ipv4.make ~tos:c.tos ~id:c.id ~dont_fragment:c.df ~ttl:c.ttl ~proto
      ~src ~dst ~payload_len:(String.length seg) ()
  in
  let hl = Proto.Ether.header_len + Proto.Ipv4.header_len in
  let v = View.create (hl + String.length seg + c.pad) in
  View.set_string v ~off:hl seg;
  View.fill (View.sub v ~off:(hl + String.length seg) ~len:c.pad) '\x5a';
  let ipv = View.shift v Proto.Ether.header_len in
  Proto.Ipv4.write ipv h;
  if c.reserved then begin
    View.set_u16 ipv Proto.Ipv4.Off.flags_frag
      (View.get_u16 ipv Proto.Ipv4.Off.flags_frag lor 0x8000);
    View.set_u16 ipv Proto.Ipv4.Off.cksum 0;
    View.set_u16 ipv Proto.Ipv4.Off.cksum
      (Cksum.of_sub ipv ~off:0 ~len:Proto.Ipv4.header_len)
  end;
  let frame = Mbuf.ro (Mbuf.of_string (View.to_string v)) in
  let ctx = Plexus.Pctx.make (Lazy.force dev) frame in
  if c.reassembled then
    Plexus.Pctx.with_ip
      (Plexus.Pctx.with_payload ctx (Mbuf.ro (Mbuf.of_string seg)))
      h
  else
    Plexus.Pctx.advance_ip ctx hl ~len:(String.length seg)
      (Proto.Ipv4.read ipv)

let forwarder_rewrite =
  QCheck.Test.make ~count:500
    ~name:"in-place rewrite = record-and-encapsulate rewrite"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let ctx = context c in
      let new_src = Proto.Ipaddr.of_int c.new_src
      and new_dst = Proto.Ipaddr.of_int c.new_dst in
      let port_off = if c.reverse then 0 else 2 in
      let rw f =
        Mbuf.to_string (f ctx ~new_src ~new_dst ~port_off ~new_port:c.new_port)
      in
      let got = rw Apps.Forwarder.rewrite in
      let want = rw Reference.rewrite in
      if got <> want then QCheck.Test.fail_reportf "bytes differ";
      let v = View.of_string got in
      let l4 = View.shift v Proto.Ipv4.header_len in
      Proto.Ipv4.check ~host:new_dst v = None
      && (if c.tcp then Proto.Tcp_wire.check ~src:new_src ~dst:new_dst l4 = None
          else Proto.Udp.check ~src:new_src ~dst:new_dst l4 = None)
      && Proto.Ipv4.get_ttl v = c.ttl - 1)

let suite =
  [
    ( "lease.tcp",
      [
        tc "plexus: a view is lent for its callback" plexus_lease;
        tc "plexus: a second close fires no on_close" plexus_close_twice;
        tc "digital unix: a second close fires no on_close" du_close_twice;
        tc "out-of-order queue capped by bytes" ooo_byte_cap;
        tc "out-of-order frames released on abort" ooo_released_on_abort;
        tc "an overlapping held segment gives its tail" ooo_overlap_drained;
      ] );
    ("lease.forwarder", [ QCheck_alcotest.to_alcotest forwarder_rewrite ]);
  ]
