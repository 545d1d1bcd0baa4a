(* Tests for the protocol library: wire codecs, fragmentation, ARP,
   Byteq, HTTP, and the TCP engine under an in-memory lossy wire. *)

let tc name f = Alcotest.test_case name `Quick f
let stc name f = Alcotest.test_case name `Slow f
let prop t = QCheck_alcotest.to_alcotest t

let ip_a = Proto.Ipaddr.v 10 0 0 1
let ip_b = Proto.Ipaddr.v 10 0 0 2

(* ---- Ipaddr ---------------------------------------------------------- *)

let ipaddr_roundtrip () =
  Alcotest.(check string) "to_string" "10.1.2.3"
    (Proto.Ipaddr.to_string (Proto.Ipaddr.v 10 1 2 3));
  Alcotest.(check bool) "of_string" true
    (Proto.Ipaddr.equal (Proto.Ipaddr.of_string "192.168.0.1")
       (Proto.Ipaddr.v 192 168 0 1));
  Alcotest.check_raises "bad format" (Invalid_argument "Ipaddr.of_string")
    (fun () -> ignore (Proto.Ipaddr.of_string "not-an-ip"))

let ipaddr_subnet () =
  let net = Proto.Ipaddr.v 10 0 1 0 in
  Alcotest.(check bool) "in subnet" true
    (Proto.Ipaddr.in_subnet (Proto.Ipaddr.v 10 0 1 77) ~net ~mask_bits:24);
  Alcotest.(check bool) "not in subnet" false
    (Proto.Ipaddr.in_subnet (Proto.Ipaddr.v 10 0 2 77) ~net ~mask_bits:24);
  Alcotest.(check bool) "mask 0 matches all" true
    (Proto.Ipaddr.in_subnet (Proto.Ipaddr.v 1 2 3 4) ~net ~mask_bits:0)

(* ---- Ether ----------------------------------------------------------- *)

let ether_roundtrip () =
  let h =
    {
      Proto.Ether.dst = Proto.Ether.Mac.of_int 0x112233445566;
      src = Proto.Ether.Mac.of_int 0xaabbccddeeff;
      etype = Proto.Ether.etype_ip;
    }
  in
  let v = View.create Proto.Ether.header_len in
  Proto.Ether.write v h;
  (match Proto.Ether.parse (View.ro v) with
  | Some h' ->
      Alcotest.(check bool) "dst" true (Proto.Ether.Mac.equal h.dst h'.Proto.Ether.dst);
      Alcotest.(check bool) "src" true (Proto.Ether.Mac.equal h.src h'.Proto.Ether.src);
      Alcotest.(check int) "etype" h.etype h'.Proto.Ether.etype
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check (option reject)) "too short" None
    (Proto.Ether.parse (View.ro (View.create 5)) |> Option.map ignore)

let ether_mac_pp () =
  Alcotest.(check string) "mac string" "01:02:03:04:05:06"
    (Proto.Ether.Mac.to_string (Proto.Ether.Mac.of_int 0x010203040506))

let ether_encapsulate () =
  let pkt = Mbuf.of_string "payload" in
  Proto.Ether.encapsulate pkt
    { Proto.Ether.dst = Proto.Ether.Mac.broadcast;
      src = Proto.Ether.Mac.of_int 1; etype = 0x0800 };
  Alcotest.(check int) "grew by header" (7 + 14) (Mbuf.length pkt)

(* ---- Ipv4 ------------------------------------------------------------ *)

let ipv4_roundtrip () =
  let h =
    Proto.Ipv4.make ~tos:0 ~id:77 ~ttl:32 ~proto:Proto.Ipv4.proto_udp ~src:ip_a
      ~dst:ip_b ~payload_len:100 ()
  in
  let v = View.create Proto.Ipv4.header_len in
  Proto.Ipv4.write v h;
  Alcotest.(check bool) "checksum valid" true (Proto.Ipv4.checksum_valid (View.ro v));
  (match Proto.Ipv4.parse (View.ro v) with
  | Some h' ->
      Alcotest.(check int) "total_len" 120 h'.Proto.Ipv4.total_len;
      Alcotest.(check int) "id" 77 h'.Proto.Ipv4.id;
      Alcotest.(check int) "ttl" 32 h'.Proto.Ipv4.ttl;
      Alcotest.(check int) "proto" 17 h'.Proto.Ipv4.proto;
      Alcotest.(check bool) "src" true (Proto.Ipaddr.equal ip_a h'.Proto.Ipv4.src)
  | None -> Alcotest.fail "parse failed")

let ipv4_corruption_detected () =
  let h = Proto.Ipv4.make ~proto:6 ~src:ip_a ~dst:ip_b ~payload_len:0 () in
  let v = View.create Proto.Ipv4.header_len in
  Proto.Ipv4.write v h;
  View.set_u8 v 8 99 (* flip ttl *);
  Alcotest.(check bool) "corrupt header rejected" false
    (Proto.Ipv4.checksum_valid (View.ro v))

let ipv4_frag_fields () =
  let h =
    Proto.Ipv4.make ~id:9 ~more_fragments:true ~frag_offset:185 ~proto:17
      ~src:ip_a ~dst:ip_b ~payload_len:8 ()
  in
  let v = View.create Proto.Ipv4.header_len in
  Proto.Ipv4.write v h;
  match Proto.Ipv4.parse (View.ro v) with
  | Some h' ->
      Alcotest.(check bool) "mf" true h'.Proto.Ipv4.more_fragments;
      Alcotest.(check int) "offset" 185 h'.Proto.Ipv4.frag_offset
  | None -> Alcotest.fail "parse failed"

(* ---- Ip_frag ----------------------------------------------------------- *)

let frag_small_passthrough () =
  match Proto.Ip_frag.fragment ~mtu:1500 (Mbuf.of_string "short") with
  | [ (0, false, m) ] when Mbuf.to_string m = "short" -> ()
  | _ -> Alcotest.fail "small payload should not fragment"

let frag_sizes () =
  let payload = String.make 4000 'x' in
  let frags = Proto.Ip_frag.fragment ~mtu:1500 (Mbuf.of_string payload) in
  Alcotest.(check int) "three fragments" 3 (List.length frags);
  List.iteri
    (fun i (off, more, data) ->
      Alcotest.(check bool) "8-byte aligned offsets" true (off * 8 mod 8 = 0);
      if i < 2 then begin
        Alcotest.(check bool) "more set" true more;
        Alcotest.(check int) "full fragment" 1480 (Mbuf.length data)
      end
      else Alcotest.(check bool) "last has no more" false more)
    frags;
  let total = List.fold_left (fun a (_, _, d) -> a + Mbuf.length d) 0 frags in
  Alcotest.(check int) "lossless" 4000 total

(* Feed one fragment to reassembly the way a stack's receive path does:
   its header written in front of its payload, received as [h.dst]. *)
let receive t (h : Proto.Ipv4.header) payload =
  let len = View.length payload in
  let v = View.create (Proto.Ipv4.header_len + len) in
  View.blit ~src:payload ~dst:v ~src_off:0 ~dst_off:Proto.Ipv4.header_len ~len;
  Proto.Ipv4.write v h;
  Proto.Ip_frag.receive t ~host:h.Proto.Ipv4.dst v

let reassemble frags =
  let t = Proto.Ip_frag.create (Sim.Engine.create ()) in
  List.fold_left
    (fun acc (off8, more, data) ->
      let h =
        Proto.Ipv4.make ~id:1 ~more_fragments:more ~frag_offset:off8 ~proto:17
          ~src:ip_a ~dst:ip_b ~payload_len:(Mbuf.length data) ()
      in
      match receive t h (Mbuf.view data) with
      | Reassembled (_, d) -> Some (Mbuf.to_string d)
      | Deliver _ -> Some (Mbuf.to_string data)
      | Pending | Drop _ -> acc)
    None frags

let frag_roundtrip () =
  let payload = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  let frags = Proto.Ip_frag.fragment ~mtu:1500 (Mbuf.of_string payload) in
  match reassemble frags with
  | Some d -> Alcotest.(check bool) "reassembled intact" true (d = payload)
  | None -> Alcotest.fail "did not reassemble"

let frag_out_of_order () =
  let payload = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  let frags = List.rev (Proto.Ip_frag.fragment ~mtu:1000 (Mbuf.of_string payload)) in
  match reassemble frags with
  | Some d -> Alcotest.(check bool) "order independent" true (d = payload)
  | None -> Alcotest.fail "did not reassemble"

let frag_duplicates_ignored () =
  let payload = String.make 3000 'q' in
  let frags = Proto.Ip_frag.fragment ~mtu:1500 (Mbuf.of_string payload) in
  let doubled = frags @ frags in
  match reassemble doubled with
  | Some d -> Alcotest.(check int) "no double counting" 3000 (String.length d)
  | None -> Alcotest.fail "did not reassemble"

(* A train whose chunks do not tile [0, total) is dropped whole: one
   chunk overlapping another, or one ending past the last fragment's
   end.  The key is then free for a well-formed train. *)
let frag_inconsistent_trains_dropped () =
  let t = Proto.Ip_frag.create (Sim.Engine.create ()) in
  let feed ~off8 ~more len =
    let h =
      Proto.Ipv4.make ~id:5 ~more_fragments:more ~frag_offset:off8 ~proto:17
        ~src:ip_a ~dst:ip_b ~payload_len:len ()
    in
    match receive t h (View.of_string (String.make len 'z')) with
    | Pending -> "pending"
    | Reassembled (_, d) -> Printf.sprintf "complete %d" (Mbuf.length d)
    | Drop Proto.Ipv4.Bad_fragment -> "malformed"
    | Deliver _ | Drop _ -> "not a fragment train verdict"
  in
  let check name expected got = Alcotest.(check string) name expected got in
  check "head" "pending" (feed ~off8:0 ~more:true 104);
  check "last inside the head" "malformed" (feed ~off8:1 ~more:false 8);
  Alcotest.(check int) "train dropped" 0 (Proto.Ip_frag.pending_count t);
  check "last first" "pending" (feed ~off8:1 ~more:false 8);
  check "chunk past the total" "malformed" (feed ~off8:2 ~more:true 8);
  check "a head" "pending" (feed ~off8:0 ~more:true 16);
  check "overlap" "malformed" (feed ~off8:1 ~more:true 16);
  check "a clean train" "pending" (feed ~off8:1 ~more:false 8);
  check "exact duplicate ignored" "pending" (feed ~off8:1 ~more:false 8);
  check "tiles" "complete 16" (feed ~off8:0 ~more:true 8);
  Alcotest.(check int) "one reassembled" 1 (Proto.Ip_frag.reassembled_count t)

(* A stalled train expires on time: reassembly's own timer fires 1 ns
   past its 30 s deadline.  A fragment arriving at that very instant,
   ahead of the timer, expires it first. *)
let frag_timeout () =
  let engine = Sim.Engine.create () in
  let t = Proto.Ip_frag.create engine in
  let feed id =
    let h =
      Proto.Ipv4.make ~id ~more_fragments:true ~frag_offset:0 ~proto:17
        ~src:ip_a ~dst:ip_b ~payload_len:8 ()
    in
    ignore (receive t h (View.of_string "AAAAAAAA") : Proto.Ip_frag.verdict)
  in
  let expiry = Sim.Stime.add (Sim.Stime.s 30) (Sim.Stime.ns 1) in
  Sim.Engine.post engine ~at:expiry (fun () -> feed 2);
  feed 1;
  Sim.Engine.run engine ~until:(Sim.Stime.s 30);
  Alcotest.(check (pair int int)) "pending at the deadline" (1, 0)
    (Proto.Ip_frag.pending_count t, Proto.Ip_frag.timeout_count t);
  Sim.Engine.run engine ~until:expiry;
  Alcotest.(check (pair int int)) "the arrival expired the stale train" (1, 1)
    (Proto.Ip_frag.pending_count t, Proto.Ip_frag.timeout_count t);
  Sim.Engine.run engine;
  Alcotest.(check (pair int int)) "the timer expired the second" (0, 2)
    (Proto.Ip_frag.pending_count t, Proto.Ip_frag.timeout_count t);
  Alcotest.(check int) "1 ns past its deadline" (60_000_000_000 + 2)
    (Sim.Stime.to_ns (Sim.Engine.now engine))

(* Pending fragments hold their frames until the train ends.  Each
   fragment arrives as a frame of its own, held across the receive call
   as a driver's top half would; after a complete train (its datagram
   freed by the receiver), an expired train and a bad train, the pool is
   back where it started. *)
let frag_trains_release_frames () =
  let engine = Sim.Engine.create () in
  let t = Proto.Ip_frag.create engine in
  let live () = snd (Mbuf.stats ()) in
  let feed ~id ~off8 ~more len =
    let h =
      Proto.Ipv4.make ~id ~more_fragments:more ~frag_offset:off8 ~proto:17
        ~src:ip_a ~dst:ip_b ~payload_len:len ()
    in
    let frame = Mbuf.alloc (Proto.Ipv4.header_len + len) in
    Proto.Ipv4.write (Mbuf.view frame) h;
    Mbuf.hold frame;
    let verdict = Proto.Ip_frag.receive_frame t ~host:ip_b frame (Mbuf.view frame) in
    Mbuf.release frame;
    verdict
  in
  let live0 = live () in
  (* complete *)
  ignore (feed ~id:1 ~off8:0 ~more:true 16 : Proto.Ip_frag.verdict);
  ignore (feed ~id:1 ~off8:2 ~more:true 16 : Proto.Ip_frag.verdict);
  Alcotest.(check int) "two frames held" (live0 + 2) (live ());
  (match feed ~id:1 ~off8:4 ~more:false 8 with
  | Reassembled (_, d) ->
      Alcotest.(check int) "datagram length" 40 (Mbuf.length d);
      Mbuf.free d
  | _ -> Alcotest.fail "train did not complete");
  Alcotest.(check int) "complete train: pool balanced" live0 (live ());
  (* expired *)
  ignore (feed ~id:2 ~off8:0 ~more:true 16 : Proto.Ip_frag.verdict);
  Alcotest.(check int) "one frame held" (live0 + 1) (live ());
  Sim.Engine.run engine;
  Alcotest.(check int) "expired" 1 (Proto.Ip_frag.timeout_count t);
  Alcotest.(check int) "expired train: pool balanced" live0 (live ());
  (* bad: the second fragment overlaps the first *)
  ignore (feed ~id:3 ~off8:0 ~more:true 16 : Proto.Ip_frag.verdict);
  (match feed ~id:3 ~off8:1 ~more:true 16 with
  | Drop Proto.Ipv4.Bad_fragment -> ()
  | _ -> Alcotest.fail "overlap not dropped");
  Alcotest.(check int) "bad train: pool balanced" live0 (live ());
  Alcotest.(check int) "nothing pending" 0 (Proto.Ip_frag.pending_count t)

let frag_qcheck =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip"
    QCheck.(pair (string_of_size Gen.(1 -- 8000)) (int_range 80 1500))
    (fun (payload, mtu) ->
      let frags = Proto.Ip_frag.fragment ~mtu (Mbuf.of_string payload) in
      (* every fragment fits in the MTU *)
      List.for_all (fun (_, _, d) -> Mbuf.length d + 20 <= mtu) frags
      && reassemble frags = Some payload)

(* ---- Udp -------------------------------------------------------------- *)

let udp_datagram ?(checksum = true) payload =
  let pkt = Mbuf.of_string payload in
  Proto.Udp.encapsulate ~checksum pkt ~src:ip_a ~dst:ip_b ~src_port:1000
    ~dst_port:2000;
  pkt

let udp_roundtrip () =
  let pkt = udp_datagram "data!" in
  let v = View.ro (Mbuf.view pkt) in
  Alcotest.(check bool) "valid" true (Proto.Udp.check ~src:ip_a ~dst:ip_b v = None);
  match Proto.Udp.parse v with
  | Some h ->
      Alcotest.(check int) "src port" 1000 h.Proto.Udp.src_port;
      Alcotest.(check int) "dst port" 2000 h.Proto.Udp.dst_port;
      Alcotest.(check int) "length" 13 h.Proto.Udp.len
  | None -> Alcotest.fail "parse failed"

let udp_checksum_catches_corruption () =
  let pkt = udp_datagram "data!" in
  let v = Mbuf.view pkt in
  View.set_u8 v 9 (View.get_u8 v 9 lxor 0xff);
  Alcotest.(check bool) "corrupt payload rejected" true
    (Proto.Udp.check ~src:ip_a ~dst:ip_b (View.ro v)
    = Some Proto.Udp.Bad_checksum);
  (* note: swapping src and dst would NOT change the sum (one's-complement
     addition is commutative); use a genuinely different address *)
  Alcotest.(check bool) "wrong pseudo-header rejected" true
    (Proto.Udp.check ~src:(Proto.Ipaddr.v 10 9 9 9) ~dst:ip_b
       (View.ro (Mbuf.view (udp_datagram "x")))
    = Some Proto.Udp.Bad_checksum)

let udp_no_checksum () =
  let pkt = udp_datagram ~checksum:false "media" in
  let v = Mbuf.view pkt in
  Alcotest.(check int) "checksum field zero" 0 (View.get_u16 v 6);
  View.set_u8 v 9 0xff;
  Alcotest.(check bool) "corruption tolerated when disabled" true
    (Proto.Udp.check ~src:ip_a ~dst:ip_b (View.ro v) = None)

let udp_length_mismatch () =
  let pkt = udp_datagram "data!" in
  let v = Mbuf.view pkt in
  View.set_u16 v 4 99;
  Alcotest.(check bool) "bad length rejected" true
    (Proto.Udp.check ~src:ip_a ~dst:ip_b (View.ro v) = Some Proto.Udp.Bad_length)

(* ---- Icmp ------------------------------------------------------------- *)

let icmp_echo_roundtrip () =
  let m = Proto.Icmp.echo_request ~ident:7 ~seq:3 "ping-payload" in
  let pkt = Proto.Icmp.to_packet m in
  let v = View.ro (Mbuf.view pkt) in
  Alcotest.(check bool) "valid" true (Proto.Icmp.valid v);
  (match Proto.Icmp.parse v with
  | Some m' ->
      Alcotest.(check int) "type" Proto.Icmp.type_echo_request m'.Proto.Icmp.mtype;
      Alcotest.(check int) "ident" 7 m'.Proto.Icmp.ident;
      Alcotest.(check string) "payload" "ping-payload" m'.Proto.Icmp.payload
  | None -> Alcotest.fail "parse failed");
  let r = Proto.Icmp.echo_reply_of m in
  Alcotest.(check int) "reply type" Proto.Icmp.type_echo_reply r.Proto.Icmp.mtype

let icmp_corruption () =
  let pkt = Proto.Icmp.to_packet (Proto.Icmp.echo_request ~ident:1 ~seq:1 "x") in
  let v = Mbuf.view pkt in
  View.set_u8 v 8 0x7f;
  Alcotest.(check bool) "corrupt rejected" false (Proto.Icmp.valid (View.ro v))

(* ---- Arp -------------------------------------------------------------- *)

let arp_roundtrip () =
  let mac = Proto.Ether.Mac.of_int 0x0000dead0001 in
  let m = Proto.Arp.request ~sender_mac:mac ~sender_ip:ip_a ~target_ip:ip_b in
  let pkt = Proto.Arp.to_packet m in
  (match Proto.Arp.parse (View.ro (Mbuf.view pkt)) with
  | Some m' ->
      Alcotest.(check int) "op" Proto.Arp.op_request m'.Proto.Arp.op;
      Alcotest.(check bool) "sender ip" true
        (Proto.Ipaddr.equal ip_a m'.Proto.Arp.sender_ip);
      Alcotest.(check bool) "target ip" true
        (Proto.Ipaddr.equal ip_b m'.Proto.Arp.target_ip)
  | None -> Alcotest.fail "parse failed");
  let reply = Proto.Arp.reply_to m ~mac:(Proto.Ether.Mac.of_int 2) in
  Alcotest.(check int) "reply op" Proto.Arp.op_reply reply.Proto.Arp.op;
  Alcotest.(check bool) "reply addressed to requester" true
    (Proto.Ether.Mac.equal reply.Proto.Arp.target_mac mac)

let arp_cache () =
  let c = Proto.Arp.Cache.create ~ttl:(Sim.Stime.s 10) () in
  let mac = Proto.Ether.Mac.of_int 42 in
  Alcotest.(check bool) "miss" true
    (Proto.Arp.Cache.lookup c ~now:Sim.Stime.zero ip_a = None);
  Proto.Arp.Cache.insert c ~now:Sim.Stime.zero ip_a mac;
  Alcotest.(check bool) "hit" true
    (Proto.Arp.Cache.lookup c ~now:(Sim.Stime.s 5) ip_a = Some mac);
  Alcotest.(check bool) "expired" true
    (Proto.Arp.Cache.lookup c ~now:(Sim.Stime.s 11) ip_a = None);
  Proto.Arp.Cache.insert_static c ip_a mac;
  Alcotest.(check bool) "a static entry outlives the ttl" true
    (Proto.Arp.Cache.lookup c ~now:(Sim.Stime.s 100_000) ip_a = Some mac)

let arp_cache_waiters () =
  let c = Proto.Arp.Cache.create () in
  let woken = ref [] in
  Proto.Arp.Cache.wait c ip_a (fun mac -> woken := Proto.Ether.Mac.to_int mac :: !woken);
  Proto.Arp.Cache.wait c ip_a (fun mac -> woken := Proto.Ether.Mac.to_int mac :: !woken);
  Proto.Arp.Cache.insert c ~now:Sim.Stime.zero ip_a (Proto.Ether.Mac.of_int 9);
  Alcotest.(check (list int)) "both waiters woken once" [ 9; 9 ] !woken;
  Proto.Arp.Cache.insert c ~now:Sim.Stime.zero ip_a (Proto.Ether.Mac.of_int 9);
  Alcotest.(check int) "no rewake" 2 (List.length !woken)

(* RFC 826's merge rule: a message for another host refreshes a sender
   the cache holds and adds none; one for this host adds its sender, up
   to 1,024 dynamic entries; a full cache sweeps its expired entries
   before it refuses a new one. *)
let arp_cache_learn () =
  let c = Proto.Arp.Cache.create ~ttl:(Sim.Stime.s 10) () in
  let sender k = Proto.Ipaddr.v 10 77 (k / 250) (1 + (k mod 250)) in
  let msg ?(mac = 7) k ~target =
    Proto.Arp.request ~sender_mac:(Proto.Ether.Mac.of_int mac)
      ~sender_ip:(sender k) ~target_ip:target
  in
  let learn ~at m = Proto.Arp.Cache.learn c ~now:(Sim.Stime.s at) ~self:ip_b m in
  Alcotest.(check bool) "not for us: nothing learned" false
    (learn ~at:0 (msg 0 ~target:ip_a));
  Alcotest.(check int) "empty" 0 (Proto.Arp.Cache.size c);
  Alcotest.(check bool) "for us: learned" true (learn ~at:0 (msg 0 ~target:ip_b));
  Alcotest.(check bool) "a held sender is refreshed by any message" true
    (learn ~at:5 (msg ~mac:8 0 ~target:ip_a));
  Alcotest.(check bool) "with its new MAC, for a fresh ttl" true
    (Proto.Arp.Cache.lookup c ~now:(Sim.Stime.s 12) (sender 0)
    = Some (Proto.Ether.Mac.of_int 8));
  for k = 1 to 2000 do
    ignore (learn ~at:6 (msg k ~target:ip_b) : bool)
  done;
  Alcotest.(check int) "capped at 1,024" 1024 (Proto.Arp.Cache.size c);
  Alcotest.(check bool) "a new sender is refused while none has expired" false
    (learn ~at:14 (msg 3000 ~target:ip_b));
  Alcotest.(check bool) "once one has, it is swept to make room" true
    (learn ~at:15 (msg 3001 ~target:ip_b));
  Alcotest.(check (pair int bool)) "the live ones stay" (1024, true)
    (Proto.Arp.Cache.size c, Proto.Arp.Cache.lookup c ~now:(Sim.Stime.s 15) (sender 0) = None)

(* ---- Byteq ------------------------------------------------------------- *)

(* The [len] bytes [off] after the queue's head, read through
   [Byteq.blit] into the middle of a larger view. *)
let byteq_read q ~off ~len =
  let v = View.create (len + 2) in
  Proto.Byteq.blit q ~off ~len v ~dst_off:1;
  View.get_string v ~off:1 ~len

let byteq_contents q = byteq_read q ~off:0 ~len:(Proto.Byteq.length q)

let byteq_basic () =
  let q = Proto.Byteq.create () in
  Proto.Byteq.push q "hello";
  Proto.Byteq.push q " world";
  Alcotest.(check int) "length" 11 (Proto.Byteq.length q);
  Alcotest.(check string) "blit across chunks" "lo wo"
    (byteq_read q ~off:3 ~len:5);
  Proto.Byteq.drop q 6;
  Alcotest.(check string) "after drop" "world" (byteq_contents q);
  Proto.Byteq.drop q 5;
  Alcotest.(check bool) "empty" true (Proto.Byteq.is_empty q)

let byteq_model =
  QCheck.Test.make ~name:"byteq behaves like a string"
    QCheck.(list (pair (string_of_size Gen.(0 -- 20)) (int_bound 15)))
    (fun ops ->
      let q = Proto.Byteq.create () in
      let model = ref "" in
      List.for_all
        (fun (push, dropn) ->
          Proto.Byteq.push q push;
          model := !model ^ push;
          let dropn = min dropn (String.length !model) in
          Proto.Byteq.drop q dropn;
          model := String.sub !model dropn (String.length !model - dropn);
          byteq_contents q = !model
          && Proto.Byteq.length q = String.length !model)
        ops)

(* Every step pushes 0-3 chunks (so the ring wraps and grows), drops
   some bytes, then reads a random range, which may start inside a
   chunk and end several chunks later. *)
let byteq_blit_model =
  QCheck.Test.make ~count:300 ~name:"byteq blit reads any range like a string"
    QCheck.(
      list
        (quad
           (list_of_size Gen.(0 -- 3) (string_of_size Gen.(0 -- 9)))
           (int_bound 12) (int_bound 40) (int_bound 40)))
    (fun ops ->
      let q = Proto.Byteq.create () in
      let model = ref "" in
      List.for_all
        (fun (pushes, dropn, off, len) ->
          List.iter (Proto.Byteq.push q) pushes;
          model := String.concat "" (!model :: pushes);
          let dropn = min dropn (String.length !model) in
          Proto.Byteq.drop q dropn;
          model := String.sub !model dropn (String.length !model - dropn);
          let n = String.length !model in
          let off = off mod (n + 1) in
          let len = len mod (n - off + 1) in
          byteq_read q ~off ~len = String.sub !model off len)
        ops)

(* ---- Tcp_wire ----------------------------------------------------------- *)

let tcp_wire_roundtrip () =
  let h =
    {
      Proto.Tcp_wire.src_port = 1234;
      dst_port = 80;
      seq = Proto.Tcp_wire.Seq.of_int 1000;
      ack = Proto.Tcp_wire.Seq.of_int 2000;
      flags = Proto.Tcp_wire.Flags.(syn + ack);
      window = 8192;
    }
  in
  let pkt = Segment.tcp ~src:ip_a ~dst:ip_b h "body" in
  let v = View.ro (Mbuf.view pkt) in
  Alcotest.(check bool) "check accepts" true
    (Proto.Tcp_wire.check ~src:ip_a ~dst:ip_b v = None);
  match Proto.Tcp_wire.parse v with
  | Some (h', off) ->
      Alcotest.(check int) "data offset" 20 off;
      Alcotest.(check int) "sport" 1234 h'.Proto.Tcp_wire.src_port;
      Alcotest.(check int) "seq" 1000 (Proto.Tcp_wire.Seq.to_int h'.Proto.Tcp_wire.seq);
      Alcotest.(check bool) "flags" true
        Proto.Tcp_wire.Flags.(test h'.Proto.Tcp_wire.flags syn
                              && test h'.Proto.Tcp_wire.flags ack);
      Alcotest.(check int) "window" 8192 h'.Proto.Tcp_wire.window
  | None -> Alcotest.fail "parse failed"

let tcp_seq_wraparound () =
  let module S = Proto.Tcp_wire.Seq in
  let near_max = S.of_int 0xfffffff0 in
  let wrapped = S.add near_max 0x20 in
  Alcotest.(check int) "wraps" 0x10 (S.to_int wrapped);
  Alcotest.(check bool) "lt across wrap" true (S.lt near_max wrapped);
  Alcotest.(check bool) "gt across wrap" true (S.gt wrapped near_max);
  Alcotest.(check int) "diff across wrap" 0x20 (S.diff wrapped near_max)

let tcp_seq_ordering =
  QCheck.Test.make ~name:"seq ordering is antisymmetric for nearby values"
    QCheck.(pair (int_bound 0x3fffffff) (int_range 1 100000))
    (fun (base, delta) ->
      let module S = Proto.Tcp_wire.Seq in
      let a = S.of_int base in
      let b = S.add a delta in
      S.lt a b && S.gt b a && S.le a b && S.ge b a && not (S.lt b a))

(* ---- Tcp engine over an in-memory wire -------------------------------- *)

module H = struct
  type side = {
    tcp : Proto.Tcp.t;
    mutable listening : bool;  (** passive, and no SYN accepted yet *)
    rx : Buffer.t;
    mutable established : bool;
    mutable peer_closed : bool;
    mutable closed : bool;
    mutable errors : string list;
  }

  (* Receive the way a stack does: [Tcp_wire.check] first, and a
     listening side opens with [Tcp.accept] on the first opening SYN. *)
  let deliver ~src side frame =
    let v = View.ro (Mbuf.view frame) in
    let dst = fst (Proto.Tcp.local_endpoint side.tcp) in
    if Proto.Tcp_wire.check ~src ~dst v = None then
      if side.listening && Proto.Tcp_wire.opening_syn v then begin
        side.listening <- false;
        Proto.Tcp.accept side.tcp ~remote:(src, Proto.Tcp_wire.get_src_port v)
          ~iss:(Proto.Tcp_wire.Seq.of_int 5000) v
      end
      else Proto.Tcp.input side.tcp frame v

  (* Two engines joined by a lossy, optionally-reordering wire; [B] is
     the passive side. *)
  let pair ?(loss = 0.) ?(reorder = false) ?(seed = 11) ?cfg_a ?cfg_b () =
    let engine = Sim.Engine.create ~seed () in
    let rng = Sim.Rng.create (seed * 31) in
    let cfg_a = match cfg_a with Some c -> c | None -> Proto.Tcp.default_config () in
    let cfg_b = match cfg_b with Some c -> c | None -> Proto.Tcp.default_config () in
    let a_ref = ref None and b_ref = ref None in
    let wire ~src dst_ref pkt =
      if Sim.Rng.float rng 1.0 >= loss then begin
        let data = Mbuf.to_string pkt in
        let delay =
          if reorder then Sim.Stime.us (100 + Sim.Rng.int rng 500)
          else Sim.Stime.us 200
        in
        ignore
          (Sim.Engine.schedule_in engine ~delay (fun () ->
               match !dst_ref with
               | Some side -> deliver ~src side (Mbuf.ro (Mbuf.of_string data))
               | None -> ()))
      end
    in
    let mk cfg ~local ~dst_ref =
      let side_ref = ref None in
      let env =
        {
          Proto.Tcp.engine;
          tx = (fun pkt -> wire ~src:(fst local) dst_ref pkt);
          on_receive =
            (fun _frame data ->
              match !side_ref with
              | Some s -> Buffer.add_string s.rx (View.to_string data)
              | None -> ());
          on_established =
            (fun () ->
              match !side_ref with Some s -> s.established <- true | None -> ());
          on_peer_close =
            (fun () ->
              match !side_ref with Some s -> s.peer_closed <- true | None -> ());
          on_close =
            (fun () -> match !side_ref with Some s -> s.closed <- true | None -> ());
          on_error =
            (fun e ->
              match !side_ref with
              | Some s -> s.errors <- e :: s.errors
              | None -> ());
        }
      in
      let side =
        {
          tcp = Proto.Tcp.create env cfg ~local;
          listening = false;
          rx = Buffer.create 64;
          established = false;
          peer_closed = false;
          closed = false;
          errors = [];
        }
      in
      side_ref := Some side;
      side
    in
    let a = mk cfg_a ~local:(ip_a, 1000) ~dst_ref:b_ref in
    let b = mk cfg_b ~local:(ip_b, 80) ~dst_ref:a_ref in
    a_ref := Some a;
    b_ref := Some b;
    b.listening <- true;
    (engine, a, b)

  let connect engine a =
    Proto.Tcp.connect a.tcp ~remote:(ip_b, 80)
      ~iss:(Proto.Tcp_wire.Seq.of_int 100);
    ignore engine
end

let tcp_handshake () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 2);
  Alcotest.(check bool) "client established" true a.H.established;
  Alcotest.(check bool) "server established" true b.H.established;
  Alcotest.(check string) "client state" "ESTABLISHED"
    (Proto.Tcp.state_to_string (Proto.Tcp.state a.H.tcp));
  Alcotest.(check string) "server state" "ESTABLISHED"
    (Proto.Tcp.state_to_string (Proto.Tcp.state b.H.tcp))

let tcp_bidirectional_data () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  Proto.Tcp.send a.H.tcp "hello from a";
  Proto.Tcp.send b.H.tcp "hello from b";
  Sim.Engine.run engine ~until:(Sim.Stime.s 3);
  Alcotest.(check string) "b received" "hello from a" (Buffer.contents b.H.rx);
  Alcotest.(check string) "a received" "hello from b" (Buffer.contents a.H.rx)

let tcp_bulk_transfer () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  let payload = String.init 200_000 (fun i -> Char.chr (i mod 256)) in
  Proto.Tcp.send a.H.tcp payload;
  Sim.Engine.run engine ~until:(Sim.Stime.s 30);
  Alcotest.(check int) "all delivered" 200_000 (Buffer.length b.H.rx);
  Alcotest.(check bool) "in order and intact" true
    (Buffer.contents b.H.rx = payload);
  let c = Proto.Tcp.counters a.H.tcp in
  Alcotest.(check bool) "respected mss" true
    (c.Proto.Tcp.segs_out >= 200_000 / 1460);
  Alcotest.(check int) "no retransmissions on a clean wire" 0
    c.Proto.Tcp.retransmits

let tcp_close_sequence () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  Proto.Tcp.send a.H.tcp "bye";
  Proto.Tcp.close a.H.tcp;
  Sim.Engine.run engine ~until:(Sim.Stime.s 2);
  Alcotest.(check bool) "b saw EOF" true b.H.peer_closed;
  Alcotest.(check string) "data before FIN delivered" "bye"
    (Buffer.contents b.H.rx);
  Alcotest.(check string) "b in CLOSE_WAIT" "CLOSE_WAIT"
    (Proto.Tcp.state_to_string (Proto.Tcp.state b.H.tcp));
  Proto.Tcp.close b.H.tcp;
  Sim.Engine.run engine ~until:(Sim.Stime.s 5);
  Alcotest.(check string) "a in TIME_WAIT" "TIME_WAIT"
    (Proto.Tcp.state_to_string (Proto.Tcp.state a.H.tcp));
  Alcotest.(check bool) "b fully closed" true b.H.closed;
  (* 2*MSL later the client is gone too *)
  Sim.Engine.run engine ~until:(Sim.Stime.s 120);
  Alcotest.(check bool) "a fully closed" true a.H.closed

let tcp_abort () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  Proto.Tcp.abort a.H.tcp;
  Sim.Engine.run engine ~until:(Sim.Stime.s 2);
  Alcotest.(check bool) "peer saw reset" true
    (List.exists (fun e -> e = "connection reset by peer") b.H.errors);
  Alcotest.(check string) "peer closed" "CLOSED"
    (Proto.Tcp.state_to_string (Proto.Tcp.state b.H.tcp))

let tcp_loss_recovery () =
  let engine, a, b = H.pair ~loss:0.15 ~seed:5 () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 5);
  let payload = String.init 50_000 (fun i -> Char.chr (i mod 256)) in
  Proto.Tcp.send a.H.tcp payload;
  Sim.Engine.run engine ~until:(Sim.Stime.s 600);
  Alcotest.(check bool) "delivered despite loss" true
    (Buffer.contents b.H.rx = payload);
  Alcotest.(check bool) "retransmissions happened" true
    ((Proto.Tcp.counters a.H.tcp).Proto.Tcp.retransmits > 0
    || (Proto.Tcp.counters a.H.tcp).Proto.Tcp.fast_retransmits > 0)

let tcp_reorder_tolerance () =
  let engine, a, b = H.pair ~reorder:true ~seed:9 () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 2);
  let payload = String.init 40_000 (fun i -> Char.chr ((i * 7) mod 256)) in
  Proto.Tcp.send a.H.tcp payload;
  Sim.Engine.run engine ~until:(Sim.Stime.s 120);
  Alcotest.(check bool) "in-order delivery despite reordering" true
    (Buffer.contents b.H.rx = payload)

let tcp_corrupt_segment_dropped () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  (* deliver a corrupted segment directly *)
  let pkt =
    Segment.tcp ~src:ip_a ~dst:ip_b
      {
        Proto.Tcp_wire.src_port = 1000;
        dst_port = 80;
        seq = Proto.Tcp_wire.Seq.of_int 0;
        ack = Proto.Tcp_wire.Seq.of_int 0;
        flags = Proto.Tcp_wire.Flags.ack;
        window = 100;
      }
      "evil"
  in
  let v = Mbuf.view pkt in
  View.set_u8 v 21 0x99;
  Alcotest.(check bool) "check refuses it" true
    (Proto.Tcp_wire.check ~src:ip_a ~dst:ip_b v
    = Some Proto.Tcp_wire.Bad_checksum);
  (* the wire drops what [check] refuses before the engine sees it *)
  let segs_in = (Proto.Tcp.counters b.H.tcp).Proto.Tcp.segs_in in
  H.deliver ~src:ip_a b (Mbuf.ro pkt);
  Alcotest.(check int) "the engine never saw it" segs_in
    (Proto.Tcp.counters b.H.tcp).Proto.Tcp.segs_in;
  Alcotest.(check string) "no data delivered" "" (Buffer.contents b.H.rx)

let tcp_small_window () =
  let cfg_b = { (Proto.Tcp.default_config ()) with Proto.Tcp.window = 4096 } in
  let engine, a, b = H.pair ~cfg_b () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  let payload = String.make 30_000 'w' in
  Proto.Tcp.send a.H.tcp payload;
  Sim.Engine.run engine ~until:(Sim.Stime.s 60);
  Alcotest.(check int) "delivered through a small window" 30_000
    (Buffer.length b.H.rx)

let tcp_syn_retransmit () =
  (* server never answers: SYN should be retransmitted, then give up *)
  let engine, a, _b = H.pair ~loss:1.0 () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 4000);
  Alcotest.(check bool) "retransmitted" true
    ((Proto.Tcp.counters a.H.tcp).Proto.Tcp.retransmits > 3);
  Alcotest.(check bool) "eventually errored" true (a.H.errors <> []);
  Alcotest.(check string) "closed" "CLOSED"
    (Proto.Tcp.state_to_string (Proto.Tcp.state a.H.tcp))

let tcp_loss_qcheck =
  QCheck.Test.make ~count:10 ~name:"transfers survive random loss"
    (QCheck.make (QCheck.Gen.int_range 1 1000))
    (fun seed ->
      let engine, a, b = H.pair ~loss:0.1 ~seed () in
      H.connect engine a;
      Sim.Engine.run engine ~until:(Sim.Stime.s 5);
      let payload = String.init 20_000 (fun i -> Char.chr ((i + seed) mod 256)) in
      (match Proto.Tcp.state a.H.tcp with
      | Proto.Tcp.Established -> Proto.Tcp.send a.H.tcp payload
      | _ -> ());
      Sim.Engine.run engine ~until:(Sim.Stime.s 2000);
      (* either the handshake never survived total early loss (possible but
         rare) or the payload arrived intact *)
      (not a.H.established) || Buffer.contents b.H.rx = payload)

(* ---- Http --------------------------------------------------------------- *)

let http_request_roundtrip () =
  let r = { Proto.Http.meth = "GET"; path = "/index.html"; headers = [ ("host", "x") ] } in
  let s = Proto.Http.request_to_string r in
  match Proto.Http.parse_request s with
  | Some r' ->
      Alcotest.(check string) "method" "GET" r'.Proto.Http.meth;
      Alcotest.(check string) "path" "/index.html" r'.Proto.Http.path;
      Alcotest.(check (option string)) "header" (Some "x")
        (List.assoc_opt "host" r'.Proto.Http.headers)
  | None -> Alcotest.fail "parse failed"

let http_response_roundtrip () =
  let r = Proto.Http.ok ~headers:[ ("content-type", "text/plain") ] "the body" in
  let s = Proto.Http.response_to_string r in
  match Proto.Http.parse_response s with
  | Some r' ->
      Alcotest.(check int) "status" 200 r'.Proto.Http.status;
      Alcotest.(check string) "body" "the body" r'.Proto.Http.body;
      Alcotest.(check (option string)) "content-length" (Some "8")
        (List.assoc_opt "content-length" r'.Proto.Http.headers)
  | None -> Alcotest.fail "parse failed"

(* A body line with a ':' is body, not a header. *)
let http_body_colon_is_not_a_header () =
  match Proto.Http.parse_response "HTTP/1.0 200 OK\r\ncontent-length: 5\r\n\r\nx: y\n" with
  | Some r ->
      Alcotest.(check (list (pair string string))) "headers"
        [ ("content-length", "5") ] r.Proto.Http.headers;
      Alcotest.(check string) "body" "x: y\n" r.Proto.Http.body
  | None -> Alcotest.fail "parse failed"

(* Responses whose reason, header values and body mix ':', spaces and
   CR/LF (a body may hold "\r\n\r\n"); header keys are lower case and
   values carry no outer blanks, as the parser normalises both. *)
let http_response_gen =
  let open QCheck.Gen in
  let text chars n = string_size ~gen:(oneofl chars) n in
  let plain = [ 'a'; 'Z'; '0'; ' '; ':'; '/'; '-' ] in
  let key = text [ 'a'; 'k'; 'z'; '-' ] (1 -- 8) in
  let value = map String.trim (text plain (0 -- 12)) in
  let body =
    oneof
      [
        text [ 'x'; ':'; ' '; '\r'; '\n' ] (0 -- 64);
        string_size ~gen:char (0 -- 64);
      ]
  in
  map
    (fun (status, reason, headers, body) ->
      { Proto.Http.status; reason; headers; body })
    (quad (100 -- 599) (text plain (0 -- 12)) (list_size (0 -- 4) (pair key value)) body)

let http_print_response r = String.escaped (Proto.Http.response_to_string r)

let http_response_roundtrip_prop =
  QCheck.Test.make ~count:300 ~name:"parse_response inverts response_to_string"
    (QCheck.make ~print:http_print_response http_response_gen)
    (fun r ->
      match Proto.Http.parse_response (Proto.Http.response_to_string r) with
      | Some r' ->
          r'.Proto.Http.status = r.Proto.Http.status
          && r'.Proto.Http.reason = r.Proto.Http.reason
          && r'.Proto.Http.headers
             = ("content-length", string_of_int (String.length r.Proto.Http.body))
               :: r.Proto.Http.headers
          && r'.Proto.Http.body = r.Proto.Http.body
      | None -> false)

(* Feeding a message to the reader in arbitrary chunks gives what
   parsing it whole gives: whole responses, responses cut short or run
   past their Content-Length, and CR/LF soup with or without a status
   line. *)
let http_reader_chunking =
  let open QCheck.Gen in
  let raw =
    map (String.concat "")
      (list_size (0 -- 12) (oneofl [ "\r"; "\n"; "\r\n\r\n"; "x: y"; " " ]))
  in
  let message =
    oneof
      [
        map Proto.Http.response_to_string http_response_gen;
        map2
          (fun r cut ->
            let s = Proto.Http.response_to_string r in
            String.sub s 0 (cut mod (String.length s + 1)))
          http_response_gen nat;
        map2
          (fun r extra -> Proto.Http.response_to_string r ^ extra)
          http_response_gen (string_size (1 -- 300));
        raw;
        map (( ^ ) "HTTP/1.0 200 OK\r\n") raw;
      ]
  in
  (* Each chunk is a view lent for the call, as a connection lends it:
     its bytes are overwritten as soon as [feed] returns, so a reader
     that kept a view instead of copying would answer wrongly. *)
  QCheck.Test.make ~count:500
    ~name:"reader = parse_response over any chunking of lent views"
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut %s" s (String.concat "," (List.map string_of_int cuts)))
       (pair message (list_size (0 -- 6) (0 -- 30))))
    (fun (s, cuts) ->
      let r = Proto.Http.reader () in
      let wire = View.copy (View.of_string s) in
      let lend off len =
        let chunk = View.sub wire ~off ~len in
        Proto.Http.feed r (View.ro chunk);
        View.fill chunk '\xa5'
      in
      let off =
        List.fold_left
          (fun off n ->
            let n = min n (String.length s - off) in
            lend off n;
            off + n)
          0 cuts
      in
      lend off (String.length s - off);
      Proto.Http.response r = Proto.Http.parse_response s)

(* The request head arrives split inside its blank line; the answer
   comes once, when the head is in, and later bytes change nothing. *)
let http_on_request_once () =
  let answers = ref [] in
  let rx = Proto.Http.on_request (fun r -> answers := r :: !answers) in
  List.iter
    (fun s -> rx (View.of_string s))
    [ "GET /a HT"; "TP/1.0\r\nhost: x\r\n\r"; "\nbody"; "GET /b HTTP/1.0\r\n\r\n" ];
  (match !answers with
  | [ Some r ] ->
      Alcotest.(check string) "path" "/a" r.Proto.Http.path;
      Alcotest.(check (list (pair string string))) "headers" [ ("host", "x") ]
        r.Proto.Http.headers
  | _ -> Alcotest.fail "expected one parsed request");
  let bad = ref [] in
  Proto.Http.on_request (fun r -> bad := r :: !bad)
    (View.of_string "garbage\r\n\r\n");
  Alcotest.(check bool) "bad start line answered with None" true (!bad = [ None ])

let http_bad_request () =
  Alcotest.(check bool) "garbage rejected" true
    (Proto.Http.parse_request "garbage\r\n" = None)

let suite =
  [
    ( "proto.ipaddr",
      [ tc "roundtrip" ipaddr_roundtrip; tc "subnets" ipaddr_subnet ] );
    ( "proto.ether",
      [
        tc "header roundtrip" ether_roundtrip;
        tc "mac formatting" ether_mac_pp;
        tc "encapsulate" ether_encapsulate;
      ] );
    ( "proto.ipv4",
      [
        tc "header roundtrip + checksum" ipv4_roundtrip;
        tc "corruption detected" ipv4_corruption_detected;
        tc "fragment fields" ipv4_frag_fields;
      ] );
    ( "proto.ip_frag",
      [
        tc "small payloads pass through" frag_small_passthrough;
        tc "fragment sizes and flags" frag_sizes;
        tc "roundtrip" frag_roundtrip;
        tc "out-of-order fragments" frag_out_of_order;
        tc "duplicates ignored" frag_duplicates_ignored;
        tc "inconsistent trains dropped" frag_inconsistent_trains_dropped;
        tc "stale contexts expire" frag_timeout;
        tc "trains release their frames" frag_trains_release_frames;
        prop frag_qcheck;
      ] );
    ( "proto.udp",
      [
        tc "roundtrip" udp_roundtrip;
        tc "checksum catches corruption" udp_checksum_catches_corruption;
        tc "checksum disabled variant" udp_no_checksum;
        tc "length mismatch" udp_length_mismatch;
      ] );
    ( "proto.icmp",
      [ tc "echo roundtrip" icmp_echo_roundtrip; tc "corruption" icmp_corruption ] );
    ( "proto.arp",
      [
        tc "codec roundtrip" arp_roundtrip;
        tc "cache ttl" arp_cache;
        tc "cache waiters" arp_cache_waiters;
        tc "cache learns by RFC 826's merge rule" arp_cache_learn;
      ] );
    ( "proto.byteq", [ tc "basics" byteq_basic; prop byteq_model; prop byteq_blit_model ] );
    ( "proto.tcp_wire",
      [
        tc "segment roundtrip" tcp_wire_roundtrip;
        tc "sequence wraparound" tcp_seq_wraparound;
        prop tcp_seq_ordering;
      ] );
    ( "proto.tcp",
      [
        tc "three-way handshake" tcp_handshake;
        tc "bidirectional data" tcp_bidirectional_data;
        stc "bulk transfer" tcp_bulk_transfer;
        tc "orderly close" tcp_close_sequence;
        tc "abort sends RST" tcp_abort;
        stc "loss recovery" tcp_loss_recovery;
        stc "reordering tolerated" tcp_reorder_tolerance;
        tc "corrupt segments dropped" tcp_corrupt_segment_dropped;
        stc "small peer window" tcp_small_window;
        stc "SYN retransmission and give-up" tcp_syn_retransmit;
        prop tcp_loss_qcheck;
      ] );
    ( "proto.http",
      [
        tc "request roundtrip" http_request_roundtrip;
        tc "response roundtrip" http_response_roundtrip;
        tc "bad request" http_bad_request;
        tc "body lines are not headers" http_body_colon_is_not_a_header;
        tc "request read across chunks, answered once" http_on_request_once;
        prop http_response_roundtrip_prop;
        prop http_reader_chunking;
      ] );
  ]

(* ---- more TCP state machine coverage ----------------------------------- *)

let tcp_simultaneous_close () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  (* both ends close at the same instant: FIN crosses FIN *)
  Proto.Tcp.close a.H.tcp;
  Proto.Tcp.close b.H.tcp;
  Sim.Engine.run engine ~until:(Sim.Stime.s 5);
  let sa = Proto.Tcp.state_to_string (Proto.Tcp.state a.H.tcp) in
  let sb = Proto.Tcp.state_to_string (Proto.Tcp.state b.H.tcp) in
  (* both sides go through CLOSING/TIME_WAIT *)
  Alcotest.(check bool)
    (Printf.sprintf "both in TIME_WAIT (%s/%s)" sa sb)
    true
    (sa = "TIME_WAIT" && sb = "TIME_WAIT");
  Sim.Engine.run engine ~until:(Sim.Stime.s 120);
  Alcotest.(check bool) "both fully closed" true (a.H.closed && b.H.closed)

let tcp_half_close_data_still_flows () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  (* a closes its sending side; b can still send data to a *)
  Proto.Tcp.close a.H.tcp;
  Sim.Engine.run engine ~until:(Sim.Stime.s 2);
  Alcotest.(check bool) "b saw the FIN" true b.H.peer_closed;
  Proto.Tcp.send b.H.tcp "late data";
  Sim.Engine.run engine ~until:(Sim.Stime.s 4);
  Alcotest.(check string) "data flows into the half-closed side" "late data"
    (Buffer.contents a.H.rx)

let tcp_synack_retransmit () =
  (* heavy loss through the handshake and a transfer: both sides must
     retransmit (SYN, SYN|ACK or data) yet converge *)
  let engine, a, b = H.pair ~loss:0.6 ~seed:17 () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 60);
  if Proto.Tcp.state a.H.tcp = Proto.Tcp.Established then
    Proto.Tcp.send a.H.tcp (String.make 10_000 'h');
  Sim.Engine.run engine ~until:(Sim.Stime.s 4000);
  let total_retx =
    (Proto.Tcp.counters a.H.tcp).Proto.Tcp.retransmits
    + (Proto.Tcp.counters b.H.tcp).Proto.Tcp.retransmits
  in
  Alcotest.(check bool) "retransmissions happened" true (total_retx > 0);
  Alcotest.(check bool) "converged: delivered or cleanly dead" true
    (Buffer.length b.H.rx = 10_000
    || Proto.Tcp.state a.H.tcp = Proto.Tcp.Closed)

let tcp_send_after_close_rejected () =
  let engine, a, _b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  Proto.Tcp.close a.H.tcp;
  match Proto.Tcp.send a.H.tcp "too late" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "send after close accepted"

let tcp_rtt_srtt_convergence () =
  (* constant 400us wire delay -> srtt should approach the real RTT *)
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  Proto.Tcp.send a.H.tcp (String.make 100_000 'r');
  Sim.Engine.run engine ~until:(Sim.Stime.s 30);
  ignore b;
  let srtt = Sim.Stime.to_us (Proto.Tcp.srtt a.H.tcp) in
  (* wire is 200us each way in the harness *)
  Alcotest.(check bool)
    (Printf.sprintf "srtt near 400us wire RTT (%.0f)" srtt)
    true
    (srtt > 300. && srtt < 800.)

let suite =
  suite
  @ [
      ( "proto.tcp_states",
        [
          stc "simultaneous close" tcp_simultaneous_close;
          tc "half-close keeps reverse data" tcp_half_close_data_still_flows;
          stc "handshake under heavy loss" tcp_synack_retransmit;
          tc "send after close rejected" tcp_send_after_close_rejected;
          stc "srtt converges" tcp_rtt_srtt_convergence;
        ] );
    ]

(* ---- golden wire formats (hand-computed reference bytes) ----------------- *)

let hex v =
  String.concat ""
    (List.init (View.length v) (fun i -> Printf.sprintf "%02x" (View.get_u8 v i)))

let udp_golden_bytes () =
  let pkt = Mbuf.of_string "hi" in
  Proto.Udp.encapsulate pkt ~src:(Proto.Ipaddr.v 10 0 0 1)
    ~dst:(Proto.Ipaddr.v 10 0 0 2) ~src_port:0x1389 ~dst_port:7;
  Alcotest.(check string) "hand-computed datagram" "13890007000a6fde6869"
    (hex (View.ro (Mbuf.view pkt)))

let ipv4_golden_bytes () =
  let v = View.create Proto.Ipv4.header_len in
  Proto.Ipv4.write v
    (Proto.Ipv4.make ~id:1 ~ttl:64 ~proto:17 ~src:(Proto.Ipaddr.v 10 0 0 1)
       ~dst:(Proto.Ipaddr.v 10 0 0 2) ~payload_len:10 ());
  Alcotest.(check string) "hand-computed header"
    "4500001e00010000401166cc0a0000010a000002" (hex (View.ro v))

let suite =
  suite
  @ [
      ( "proto.golden",
        [
          tc "udp bytes" udp_golden_bytes;
          tc "ipv4 bytes" ipv4_golden_bytes;
        ] );
    ]

(* Regression: a pending delayed ACK must not fire after the connection
   is gone (no stray segments from CLOSED endpoints). *)
let tcp_no_stray_ack_after_abort () =
  let engine, a, b = H.pair () in
  H.connect engine a;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  (* a single in-order segment arms b's delayed-ACK timer *)
  Proto.Tcp.send a.H.tcp "one";
  Sim.Engine.run engine ~until:(Sim.Stime.ms 1002);
  let before = (Proto.Tcp.counters b.H.tcp).Proto.Tcp.segs_out in
  Proto.Tcp.abort b.H.tcp;
  Sim.Engine.run engine ~until:(Sim.Stime.s 5);
  (* only the RST may have left after the abort *)
  Alcotest.(check bool) "no delayed ACK from a dead connection" true
    ((Proto.Tcp.counters b.H.tcp).Proto.Tcp.segs_out <= before + 1)

let suite =
  suite
  @ [
      ( "proto.tcp_teardown",
        [ tc "no stray delayed ACK" tcp_no_stray_ack_after_abort ] );
    ]

(* ---- the TCP endpoint table ------------------------------------------ *)

module Tt = Proto.Tcp_table

(* A segment from ip_b:[src_port] to ip_a:[dst_port]. *)
let table_seg ?(src_port = 1000) ?(dst_port = 80) flags =
  View.ro
    (Mbuf.view
       (Segment.tcp ~src:ip_b ~dst:ip_a
          {
            Proto.Tcp_wire.src_port;
            dst_port;
            seq = Proto.Tcp_wire.Seq.of_int 1;
            ack = Proto.Tcp_wire.Seq.of_int 0;
            flags;
            window = 8192;
          }
          ""))

let verdict : (string, string) Tt.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Tt.Conn c -> Fmt.pf ppf "Conn %s" c
      | Tt.Listener l -> Fmt.pf ppf "Listener %s" l
      | Tt.No_match -> Fmt.string ppf "No_match")
    ( = )

let table_listen_port_in_use () =
  let t = Tt.create () in
  (match Tt.listen t ~port:80 "web" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first listen");
  (match Tt.listen t ~port:80 "again" with
  | Error (`Port_in_use 80) -> ()
  | _ -> Alcotest.fail "a listened port must be in use");
  Tt.unlisten t 80;
  match Tt.listen t ~port:80 "again" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unlisten frees the port"

let table_only_opening_syn_accepts () =
  let module F = Proto.Tcp_wire.Flags in
  let t = Tt.create () in
  ignore (Tt.listen t ~port:80 "web" : (unit, _) result);
  let find flags = Tt.find t ~src:ip_b (table_seg flags) in
  Alcotest.check verdict "SYN" (Tt.Listener "web") (find F.syn);
  Alcotest.check verdict "SYN|ACK" Tt.No_match (find F.(syn + ack));
  Alcotest.check verdict "SYN|RST" Tt.No_match (find F.(syn + rst));
  Alcotest.check verdict "ACK" Tt.No_match (find F.ack);
  Alcotest.check verdict "SYN to an unlistened port" Tt.No_match
    (Tt.find t ~src:ip_b (table_seg ~dst_port:81 F.syn));
  let key = Tt.key ~remote:(ip_b, 1000) ~local_port:80 in
  Tt.add t key "c";
  Alcotest.check verdict "the connection before the listener" (Tt.Conn "c")
    (find F.syn);
  Alcotest.check verdict "ACK on the connection" (Tt.Conn "c") (find F.ack);
  Alcotest.check verdict "another remote port" (Tt.Listener "web")
    (Tt.find t ~src:ip_b (table_seg ~src_port:1001 F.syn));
  Alcotest.check_raises "a live tuple is not added twice"
    (Invalid_argument "Tcp_table.add: tuple in use") (fun () ->
      Tt.add t (Tt.key ~remote:(ip_b, 1000) ~local_port:80) "d")

(* Connections to one destination fill the ephemeral range; closing one
   removes it, through the engine's [on_close], and frees its port. *)
let table_close_frees_tuple () =
  let t = Tt.create () and engine = Sim.Engine.create () in
  let dst = (ip_b, 80) in
  let open_conn local_port =
    let key = Tt.key ~remote:dst ~local_port in
    let env =
      {
        Proto.Tcp.engine;
        tx = ignore;
        on_receive = (fun _ _ -> ());
        on_established = ignore;
        on_peer_close = ignore;
        on_close = (fun () -> Tt.remove t key);
        on_error = ignore;
      }
    in
    let tcp =
      Proto.Tcp.create env (Proto.Tcp.default_config ()) ~local:(ip_a, local_port)
    in
    Tt.add t key tcp;
    Proto.Tcp.connect tcp ~remote:dst ~iss:(Proto.Tcp_wire.Seq.of_int 1);
    tcp
  in
  let range = 60999 - 32768 + 1 in
  let conns =
    Array.init range (fun _ ->
        match Tt.alloc_ephemeral t ~dst with
        | Some p -> open_conn p
        | None -> Alcotest.fail "exhausted early")
  in
  Alcotest.(check (option int)) "range exhausted" None
    (Tt.alloc_ephemeral t ~dst);
  Alcotest.(check (option int)) "another destination" (Some 32768)
    (Tt.alloc_ephemeral t ~dst:(ip_b, 81));
  let victim = conns.(7) in
  let port = snd (Proto.Tcp.local_endpoint victim) in
  Proto.Tcp.close victim;
  Alcotest.(check int) "closed connection removed" (range - 1) (Tt.length t);
  Alcotest.(check (option int)) "its port is free again" (Some port)
    (Tt.alloc_ephemeral t ~dst);
  let successor = open_conn port in
  (* a CLOSED engine reports its close once more *)
  Proto.Tcp.close victim;
  Alcotest.(check int) "a second close removes nothing" range (Tt.length t);
  match
    Tt.find t ~src:ip_b
      (table_seg ~src_port:80 ~dst_port:port Proto.Tcp_wire.Flags.ack)
  with
  | Tt.Conn c when c == successor -> ()
  | _ -> Alcotest.fail "the successor keeps its tuple"

let suite =
  suite
  @ [
      ( "proto.tcp_table",
        [
          tc "listen on a listened port" table_listen_port_in_use;
          tc "only an opening SYN reaches a listener"
            table_only_opening_syn_accepts;
          tc "close frees the tuple for the allocator" table_close_frees_tuple;
        ] );
    ]
