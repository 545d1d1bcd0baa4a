(* Counter-asserted tests for the zero-copy scatter-gather datapath:
   the Metrics counters turn "no copies here" from a claim into a
   checkable invariant. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let ip_b = Experiments.Common.ip_b

(* ---- property: random op sequences match a string model --------------- *)

(* Drive an mbuf and a plain-string model through the same random
   sequence of trim/prepend/extend/concat/pullup/sub operations; the
   mbuf's bytes must match the model after every program. *)
let apply_op (m, s) (op, x, y) =
  let len = String.length s in
  match op mod 7 with
  | 0 ->
      let n = x mod (len + 1) in
      Mbuf.trim_front m n;
      (m, String.sub s n (len - n))
  | 1 ->
      let n = x mod (len + 1) in
      Mbuf.trim_back m n;
      (m, String.sub s 0 (len - n))
  | 2 ->
      let n = x mod 32 in
      View.fill (Mbuf.prepend m n) 'P';
      (m, String.make n 'P' ^ s)
  | 3 ->
      let n = x mod 32 in
      View.fill (Mbuf.extend_back m n) 'E';
      (m, s ^ String.make n 'E')
  | 4 ->
      let extra =
        String.init (x mod 16) (fun i -> Char.chr (33 + ((y + i) mod 64)))
      in
      Mbuf.concat m (Mbuf.of_string extra);
      (m, s ^ extra)
  | 5 ->
      if len > 0 then Mbuf.pullup m ((x mod len) + 1);
      (m, s)
  | _ ->
      if len = 0 then (m, s)
      else begin
        let off = x mod len in
        let n = y mod (len - off + 1) in
        (Mbuf.sub m ~off ~len:n, String.sub s off n)
      end

let mbuf_model =
  QCheck.Test.make ~name:"random op sequences preserve bytes" ~count:500
    QCheck.(
      pair
        (string_of_size Gen.(0 -- 48))
        (small_list (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))))
    (fun (init, ops) ->
      let final_m, final_s =
        List.fold_left apply_op (Mbuf.of_string init, init) ops
      in
      let ok = Mbuf.to_string final_m = final_s in
      ok && Mbuf.length final_m = String.length final_s)

(* ---- counter-asserted allocation behaviour ---------------------------- *)

let prepend_no_alloc () =
  let m = Mbuf.alloc ~headroom:64 100 in
  Metrics.reset ();
  View.set_u16 (Mbuf.prepend m 42) 0 0xbeef;
  let s = Metrics.snapshot () in
  Alcotest.(check int) "no copies" 0 s.Metrics.copies;
  Alcotest.(check int) "no fresh buffers" 0 s.Metrics.allocs;
  Alcotest.(check int) "no recycled buffers" 0 s.Metrics.recycled;
  Alcotest.(check int) "still one segment" 1 (Mbuf.num_segs m);
  Alcotest.(check int) "grew" 142 (Mbuf.length m)

let freelist_recycles () =
  Mbuf.drain_freelist ();
  Metrics.reset ();
  let m = Mbuf.alloc 1000 in
  Mbuf.free m;
  let m2 = Mbuf.alloc 1000 in
  let s = Metrics.snapshot () in
  Alcotest.(check int) "one fresh buffer" 1 s.Metrics.allocs;
  Alcotest.(check int) "second came from the free list" 1 s.Metrics.recycled;
  Alcotest.(check bool) "recycled buffer reads as zeros" true
    (String.for_all (fun c -> c = '\000') (Mbuf.to_string m2))

let sub_is_zero_copy () =
  let m = Mbuf.of_string "0123456789" in
  Metrics.reset ();
  let s = Mbuf.sub m ~off:2 ~len:5 in
  Alcotest.(check int) "no copies" 0 (Metrics.snapshot ()).Metrics.copies;
  (* shares bytes with the parent *)
  View.set_u8 (Mbuf.view m) 2 (Char.code 'Z');
  Alcotest.(check string) "window contents (shared)" "Z3456" (Mbuf.to_string s)

let shared_headroom_not_clobbered () =
  (* two sub-chains over one store: prepending into the first must not
     scribble on bytes the second can see, so the prepend must allocate a
     fresh header segment instead of using the shared headroom *)
  let m = Mbuf.of_string "abcdefgh" in
  let s1 = Mbuf.sub m ~off:4 ~len:4 in
  let s2 = Mbuf.sub m ~off:0 ~len:8 in
  View.fill (Mbuf.prepend s1 4) 'H';
  Alcotest.(check string) "prepend lands in front" "HHHHefgh" (Mbuf.to_string s1);
  Alcotest.(check bool) "fresh segment used" true (Mbuf.num_segs s1 > 1);
  Alcotest.(check string) "sibling untouched" "abcdefgh" (Mbuf.to_string s2)

(* ---- double-free detection ------------------------------------------- *)

let mbuf_double_free_raises () =
  let m = Mbuf.alloc 10 in
  Mbuf.free m;
  Alcotest.check_raises "second free rejected"
    (Invalid_argument "Mbuf.free: double free") (fun () -> Mbuf.free m)

let pool_underflow_raises () =
  let pool = Pool.create ~name:"ring" ~capacity:4 () in
  Alcotest.(check bool) "slot granted" true (Pool.reserve pool);
  Pool.release pool;
  (match Pool.release pool with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "underflow not detected");
  Alcotest.(check int) "underflow counted" 1 (Pool.underflows pool)

let pool_reserve_release () =
  let pool = Pool.create ~capacity:2 () in
  Alcotest.(check bool) "slot 1" true (Pool.reserve pool);
  Alcotest.(check bool) "slot 2" true (Pool.reserve pool);
  Alcotest.(check bool) "exhausted" false (Pool.reserve pool);
  Alcotest.(check int) "failure counted" 1 (Pool.failures pool);
  Pool.release pool;
  Alcotest.(check bool) "slot freed up" true (Pool.reserve pool);
  Alcotest.(check int) "peak" 2 (Pool.peak pool)

(* ---- chain-aware checksum ≡ byte-at-a-time reference ------------------ *)

let cksum_chain_vs_reference =
  QCheck.Test.make ~name:"chain cksum = bytewise reference on random chains"
    ~count:500
    QCheck.(small_list (string_of_size Gen.(0 -- 33)))
    (fun parts ->
      (* odd-length interior segments exercised on purpose *)
      let views = List.map View.of_string parts in
      let whole = View.of_string (String.concat "" parts) in
      let fast = Cksum.of_views views in
      fast = Cksum.of_views_bytewise views && fast = Cksum.of_view_bytewise whole)

(* Long views, at every alignment, so the eight-byte loads, their
   16-bit tail and carries out of all-ones words are all exercised. *)
let cksum_long_view_vs_reference =
  QCheck.Test.make ~name:"cksum = bytewise reference on long offset views"
    ~count:300
    QCheck.(triple (int_bound 7) (int_bound 1600) bool)
    (fun (off, len, ones) ->
      let s =
        String.init (off + len) (fun i ->
            if ones then '\xff' else Char.chr ((i * 131) land 0xff))
      in
      let v = View.sub (View.of_string s) ~off ~len in
      Cksum.of_view v = Cksum.of_view_bytewise v)

let cksum_of_mbuf_chain =
  QCheck.Test.make ~name:"of_mbuf on concat chains = flat checksum" ~count:200
    QCheck.(small_list (string_of_size Gen.(0 -- 33)))
    (fun parts ->
      let m = Mbuf.of_string "" in
      List.iter (fun p -> Mbuf.concat m (Mbuf.of_string p)) parts;
      Cksum.of_mbuf m = Cksum.of_view (View.of_string (String.concat "" parts)))

(* ---- the UDP send fast path is copy-free end to end ------------------- *)

let udp_fast_path_zero_copy () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server =
    match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref "" in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        got := View.get_string (Plexus.Pctx.view ctx) ~off:0 ~len:(Plexus.Pctx.payload_len ctx))
  in
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  (* warm up ARP so the measured round is pure datapath *)
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "warmup";
  Sim.Engine.run p.Experiments.Common.engine;
  (* the application writes its payload once, into a headroom-bearing
     buffer it allocated; that production write is not a copy *)
  let payload = Mbuf.alloc 1000 in
  View.set_string (Mbuf.view payload) ~off:0 (String.make 1000 'p');
  Metrics.reset ();
  let e0 = Sim.Engine.events_run p.Experiments.Common.engine in
  let w0 = Gc.minor_words () in
  Plexus.Udp_mgr.send_mbuf udp_a client ~dst:(ip_b, 7) payload;
  Sim.Engine.run p.Experiments.Common.engine;
  let words = Gc.minor_words () -. w0 in
  let s = Metrics.snapshot () in
  Alcotest.(check string) "payload delivered" (String.make 1000 'p') !got;
  (* headers went into the payload's headroom; the chain crossed the
     device, the wire, the ring and the receive graph without one
     payload-byte copy or buffer allocation *)
  Alcotest.(check int) "zero copies tx->rx" 0 s.Metrics.copies;
  Alcotest.(check int) "zero bytes copied" 0 s.Metrics.bytes_copied;
  Alcotest.(check int) "zero buffer allocations" 0 s.Metrics.allocs;
  (* ...and the substrate under it is bounded by deterministic counters:
     13 engine events, and heap words under a seventh of the ~1.8k a
     datagram took when every event boxed its thunk, every CPU item and
     handler delivery allocated its own records, every layer rebuilt its
     header as a record, and every send-path step built a closure (207
     measured in the optimised and the dev build alike) *)
  Alcotest.(check int) "engine events per datagram" 13
    (Sim.Engine.events_run p.Experiments.Common.engine - e0);
  if words > 260. then
    Alcotest.failf "%.0f minor words per datagram (bound 260)" words

(* Primed ARP entries are static: a steady-state run that outlives the
   cache TTL (1200 simulated seconds) sends no ARP traffic. *)
let primed_arp_outlives_ttl () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  let a = p.Experiments.Common.a in
  Sim.Engine.post engine ~at:(Sim.Stime.s 1300) ignore;
  Sim.Engine.run engine;
  let udp_a = Plexus.Stack.udp a in
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "late";
  Sim.Engine.run engine;
  Alcotest.(check int) "no ARP request" 0
    (Plexus.Arp_mgr.requests_sent (Plexus.Stack.arp a))

(* Every received frame goes back to the free lists when its walk ends:
   fragments once their train is reassembled, the reassembled datagram
   once it is delivered, a whole datagram once it is delivered.  After a
   warm-up round, the same traffic runs from recycled buffers alone and
   leaves no mbuf live, on Plexus and on the DIGITAL UNIX baseline. *)
let received_frames_recycle () =
  let live () = snd (Mbuf.stats ()) in
  let rounds name send =
    send ();
    let live0 = live () in
    Metrics.reset ();
    send ();
    Alcotest.(check int) (name ^ ": no mbuf left live") live0 (live ());
    Alcotest.(check int) (name ^ ": no fresh buffer") 0
      (Metrics.snapshot ()).Metrics.allocs
  in
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let bind udp port =
    match Plexus.Udp_mgr.bind udp ~owner:"t" ~port with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b (bind udp_b 7) (fun ctx ->
        got := !got + Plexus.Pctx.payload_len ctx)
  in
  let client = bind udp_a 5000 in
  rounds "plexus" (fun () ->
      List.iter
        (fun n ->
          Plexus.Udp_mgr.send_mbuf udp_a client ~dst:(ip_b, 7) (Mbuf.alloc n))
        [ 12000; 64 ];
      Sim.Engine.run p.Experiments.Common.engine);
  Alcotest.(check int) "plexus: delivered" (2 * 12064) !got;
  let d = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let sock host port =
    match Osmodel.Du_stack.udp_bind host ~port with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let du_got = ref 0 in
  Osmodel.Du_stack.udp_set_recv (sock d.Experiments.Common.dub 7)
    (fun ~src:_ data -> du_got := !du_got + String.length data);
  let du_client = sock d.Experiments.Common.dua 5000 in
  rounds "digital unix" (fun () ->
      List.iter
        (fun n ->
          Osmodel.Du_stack.udp_sendto d.Experiments.Common.dua du_client ~dst:(ip_b, 7)
            (String.make n 'd'))
        [ 12000; 64 ];
      Sim.Engine.run d.Experiments.Common.du_engine);
  Alcotest.(check int) "digital unix: delivered" (2 * 12064) !du_got

let fragmentation_is_zero_copy () =
  let payload = Mbuf.of_string (String.make 12500 'v') in
  Metrics.reset ();
  let frags = Proto.Ip_frag.fragment ~mtu:1500 payload in
  Alcotest.(check int) "fragment count" 9 (List.length frags);
  let total = List.fold_left (fun a (_, _, f) -> a + Mbuf.length f) 0 frags in
  Alcotest.(check int) "covers the datagram" 12500 total;
  let s = Metrics.snapshot () in
  Alcotest.(check int) "zero copies to fragment 12.5KB" 0 s.Metrics.copies;
  Alcotest.(check int) "zero buffer allocations" 0 s.Metrics.allocs

(* ---- header fields read and written in place ----------------------- *)

let ip_a = Experiments.Common.ip_a

(* Minor-heap words of [f]'s second run: the first warms anything built
   lazily, so what is left is the per-packet cost. *)
let words_of f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_no_words name w =
  if w <> 0. then Alcotest.failf "%s: %.0f minor words, expected 0" name w

(* The HTTP head search compares bytes in place: no candidate
   substring, no option. *)
let substring_search_allocates_nothing () =
  let head = "HTTP/1.0 200 OK\r\ncontent-length: 5" in
  let s = head ^ "\r\n\r\nhello" and at = ref 0 in
  check_no_words "Str_find.find_sub, found"
    (words_of (fun () -> at := Proto.Str_find.find_sub s "\r\n\r\n"));
  Alcotest.(check int) "blank line" (String.length head) !at;
  check_no_words "Str_find.find_sub, absent"
    (words_of (fun () -> at := Proto.Str_find.find_sub s "\n\n"));
  Alcotest.(check int) "absent" (-1) !at

(* A 64-B UDP datagram as it leaves the sender: three headers pushed into
   the payload's headroom and written field by field. *)
let udp_frame ~dst_mac =
  let m = Mbuf.alloc 64 in
  Proto.Udp.encapsulate m ~src:ip_a ~dst:ip_b ~src_port:5000 ~dst_port:7;
  Proto.Ipv4.push m ~id:1 ~more_fragments:false ~frag_offset:0
    ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b;
  Proto.Ether.push m ~dst:dst_mac ~src:(Proto.Ether.Mac.of_int 1)
    ~etype:Proto.Ether.etype_ip;
  m

(* The reads every received frame pays for — the dispatch keys, the
   flow signature, the EtherType guard, the IPv4, UDP and TCP receive
   checks, the TCP connection lookup, the transport checksums over a
   view and over a 2-segment chain — allocate nothing.  Holds in the optimised and the
   dev (-opaque, no cross-module inlining) builds alike. *)
let in_place_reads_allocate_nothing () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let ctx =
    Plexus.Pctx.make dev
      (Mbuf.ro (udp_frame ~dst_mac:Proto.Ether.Mac.broadcast))
  in
  let keys = Array.make Plexus.Filter.num_key_dims 0 in
  check_no_words "Filter.read_context_keys"
    (words_of (fun () -> Plexus.Filter.read_context_keys ctx keys));
  Alcotest.(check int) "EtherType key" Proto.Ether.etype_ip keys.(0);
  let key = Bytes.create Plexus.Filter.signature_len and signed = ref false in
  check_no_words "Filter.write_signature"
    (words_of (fun () -> signed := Plexus.Filter.write_signature ctx key));
  Alcotest.(check bool) "a fresh frame is signed" true !signed;
  check_no_words "Pctx.view of a fresh context"
    (words_of (fun () -> ignore (Sys.opaque_identity (Plexus.Pctx.view ctx))));
  let guard = ref false in
  check_no_words "Ether_mgr.etype_guard"
    (words_of (fun () ->
         guard := Plexus.Ether_mgr.etype_guard Proto.Ether.etype_ip ctx));
  Alcotest.(check bool) "guard matches" true !guard;
  let dgram =
    View.sub ctx.Plexus.Pctx.frame
      ~off:(Proto.Ether.header_len + Proto.Ipv4.header_len)
      ~len:(Proto.Udp.header_len + 64)
  in
  let ipv = View.shift ctx.Plexus.Pctx.frame Proto.Ether.header_len in
  let ip_verdict = ref (Some Proto.Ipv4.Runt) in
  check_no_words "Proto.Ipv4.check"
    (words_of (fun () -> ip_verdict := Proto.Ipv4.check ~host:ip_b ipv));
  Alcotest.(check bool) "ip datagram accepted" true (!ip_verdict = None);
  let verdict = ref (Some Proto.Udp.Runt) in
  check_no_words "Proto.Udp.check"
    (words_of (fun () -> verdict := Proto.Udp.check ~src:ip_a ~dst:ip_b dgram));
  Alcotest.(check bool) "udp datagram accepted" true (!verdict = None);
  let seg =
    View.ro
      (Mbuf.view
         (Segment.tcp ~src:ip_a ~dst:ip_b
            {
              Proto.Tcp_wire.src_port = 80;
              dst_port = 40000;
              seq = Proto.Tcp_wire.Seq.of_int 1;
              ack = Proto.Tcp_wire.Seq.of_int 2;
              flags = Proto.Tcp_wire.Flags.ack;
              window = 8192;
            }
            "a segment payload of odd length"))
  in
  let tverdict = ref (Some Proto.Tcp_wire.Runt) in
  check_no_words "Proto.Tcp_wire.check"
    (words_of (fun () -> tverdict := Proto.Tcp_wire.check ~src:ip_a ~dst:ip_b seg));
  Alcotest.(check bool) "tcp segment accepted" true (!tverdict = None);
  let opens = ref true in
  check_no_words "Proto.Tcp_wire.opening_syn"
    (words_of (fun () -> opens := Proto.Tcp_wire.opening_syn seg));
  Alcotest.(check bool) "an ACK opens nothing" false !opens;
  let table = Proto.Tcp_table.create () in
  Proto.Tcp_table.add table
    (Proto.Tcp_table.key ~remote:(ip_a, 80) ~local_port:40000)
    "conn";
  let hit = ref Proto.Tcp_table.No_match in
  check_no_words "Proto.Tcp_table.find, connection hit"
    (words_of (fun () -> hit := Proto.Tcp_table.find table ~src:ip_a seg));
  Alcotest.(check bool) "the segment's connection" true
    (!hit = Proto.Tcp_table.Conn "conn");
  (* [concat] leaves the second segment on the chain's reversed tail, a
     shared-store [prepend] puts a fresh one at its head: both shapes *)
  let tail_chain = Mbuf.of_string "odd" in
  Mbuf.concat tail_chain (Mbuf.of_string "length segments");
  let base = Mbuf.of_string "payload" in
  let head_chain = Mbuf.sub base ~off:0 ~len:7 in
  View.fill (Mbuf.prepend head_chain 5) 'h';
  List.iter
    (fun (name, m, flat) ->
      Alcotest.(check int) (name ^ ": two segments") 2 (Mbuf.num_segs m);
      let c = ref 0 in
      check_no_words ("Cksum.of_mbuf, " ^ name)
        (words_of (fun () -> c := Cksum.of_mbuf m));
      Alcotest.(check int) (name ^ ": checksum") (Cksum.of_view_bytewise
        (View.of_string flat)) !c)
    [
      ("appended segment", tail_chain, "oddlength segments");
      ("prepended segment", head_chain, "hhhhhpayload");
    ]

(* [push] writes the same bytes as encapsulating a header record. *)
let push_matches_encapsulate () =
  let pushed = Mbuf.of_string "payload" and recorded = Mbuf.of_string "payload" in
  Proto.Ipv4.push pushed ~id:9 ~more_fragments:true ~frag_offset:185
    ~proto:Proto.Ipv4.proto_tcp ~src:ip_a ~dst:ip_b;
  Proto.Ipv4.encapsulate recorded
    (Proto.Ipv4.make ~id:9 ~more_fragments:true ~frag_offset:185
       ~proto:Proto.Ipv4.proto_tcp ~src:ip_a ~dst:ip_b ~payload_len:7 ());
  Alcotest.(check string) "ipv4"
    (Mbuf.to_string recorded) (Mbuf.to_string pushed);
  let mac = Proto.Ether.Mac.of_int 0x0a0b0c0d0e0f in
  Proto.Ether.push pushed ~dst:mac ~src:Proto.Ether.Mac.broadcast ~etype:0x88b5;
  Proto.Ether.encapsulate recorded
    { Proto.Ether.dst = mac; src = Proto.Ether.Mac.broadcast; etype = 0x88b5 };
  Alcotest.(check string) "ether"
    (Mbuf.to_string recorded) (Mbuf.to_string pushed)

(* The offset declarations match the wire: frames built by the in-place
   writers equal byte strings laid out by hand from RFC 791/768/793
   (checksums computed independently). *)
let hex s =
  String.fold_left (fun acc c -> acc ^ Printf.sprintf "%02x" (Char.code c)) "" s

let layouts_match_the_wire () =
  let src = Proto.Ipaddr.v 10 0 0 1 and dst = Proto.Ipaddr.v 10 0 0 2 in
  let m = Mbuf.of_string "payload" in
  Proto.Udp.encapsulate m ~src ~dst ~src_port:5000 ~dst_port:7;
  Proto.Ipv4.push m ~id:9 ~more_fragments:true ~frag_offset:185
    ~proto:Proto.Ipv4.proto_udp ~src ~dst;
  Proto.Ether.push m ~dst:(Proto.Ether.Mac.of_int 0x0a0b0c0d0e0f)
    ~src:Proto.Ether.Mac.broadcast ~etype:Proto.Ether.etype_ip;
  Alcotest.(check string) "ether + ipv4 + udp"
    ("0a0b0c0d0e0fffffffffffff0800"
    ^ "45000023000920b9401146060a0000010a000002"
    ^ "13880007000f1b0f" ^ "7061796c6f6164")
    (hex (Mbuf.to_string m));
  let seg =
    Segment.tcp ~src ~dst
      {
        Proto.Tcp_wire.src_port = 80;
        dst_port = 40000;
        seq = Proto.Tcp_wire.Seq.of_int 1;
        ack = Proto.Tcp_wire.Seq.of_int 2;
        flags = Proto.Tcp_wire.Flags.ack;
        window = 8192;
      }
      "hi"
  in
  Alcotest.(check string) "tcp"
    ("00509c4000000001000000025010200076d30000" ^ "6869")
    (hex (Mbuf.to_string seg))

(* The layer hand-offs build one context each, equal to the step-by-step
   composition they replace. *)
let pctx_one_step_handoffs () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let h =
    Proto.Ipv4.make ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b
      ~payload_len:12 ()
  in
  let open Plexus.Pctx in
  (* 14 + 20 + 8 + 4 bytes of data, then 10 bytes of link padding *)
  let ctx = make dev (Mbuf.ro (Mbuf.of_string (String.make 56 'x'))) in
  let same name a b =
    Alcotest.(check (pair int int)) name (a.off, a.limit) (b.off, b.limit);
    Alcotest.(check bool) (name ^ ": ip") true (a.ip = b.ip);
    Alcotest.(check (pair int int)) (name ^ ": ports")
      (a.src_port, a.dst_port) (b.src_port, b.dst_port);
    Alcotest.(check string) (name ^ ": view")
      (View.to_string (view a)) (View.to_string (view b))
  in
  let one = advance_ip ctx 34 ~len:12 h in
  same "advance_ip" one (with_ip (with_limit (advance ctx 34) 12) h);
  (* a length past the data already bounded keeps the tighter limit *)
  let short = with_limit ctx 40 in
  same "advance_ip, no padding"
    (advance_ip short 34 ~len:12 h)
    (with_ip (advance short 34) h);
  Alcotest.check_raises "advance_ip past the frame"
    (Invalid_argument "Pctx.advance_ip") (fun () ->
      ignore (advance_ip ctx 34 ~len:23 h));
  same "advance_ports"
    (advance_ports one 8 ~src_port:5000 ~dst_port:7)
    (with_ports (advance one 8) ~src_port:5000 ~dst_port:7)

(* ---- properties of the in-place codecs -------------------------------- *)

(* Cut [s] at the (sorted, deduplicated) positions [cuts mod (len+1)]:
   segments of every length, odd-length interior ones included. *)
let split s cuts =
  let n = String.length s in
  let cuts =
    List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) @ [ n ]
  in
  let _, parts =
    List.fold_left
      (fun (at, acc) c -> (c, String.sub s at (c - at) :: acc))
      (0, []) cuts
  in
  List.rev parts

let chain_of parts =
  let m = Mbuf.of_string "" in
  List.iter (fun p -> Mbuf.concat m (Mbuf.of_string p)) parts;
  m

(* The 12-byte pseudo-header, built byte by byte as RFC 768/793 draw it. *)
let pseudo_header ~src ~dst ~proto ~len =
  let v = View.create 12 in
  View.set_u32 v 0 (Proto.Ipaddr.to_int src);
  View.set_u32 v 4 (Proto.Ipaddr.to_int dst);
  View.set_u8 v 9 proto;
  View.set_u16 v 10 len;
  View.ro v

let pseudo_sum_vs_reference =
  QCheck.Test.make
    ~name:"seeded pseudo-header checksum = bytewise over explicit pseudo-header"
    ~count:400
    QCheck.(
      quad (string_of_size Gen.(0 -- 300)) (small_list small_nat) int bool)
    (fun (payload, cuts, addrs, tcp) ->
      let src = Proto.Ipaddr.of_int addrs
      and dst = Proto.Ipaddr.of_int (addrs lsr 31) in
      let proto = if tcp then Proto.Ipv4.proto_tcp else Proto.Ipv4.proto_udp in
      let len = String.length payload in
      let parts = split payload cuts in
      let reference =
        Cksum.of_views_bytewise
          (pseudo_header ~src ~dst ~proto ~len :: List.map View.of_string parts)
      in
      let seed = Proto.Ipv4.pseudo_sum ~src ~dst ~proto ~len in
      let whole = View.of_string payload in
      Cksum.finish (Cksum.fold_mbuf seed (chain_of parts)) = reference
      && Cksum.finish (Cksum.fold_words seed whole) = reference
      &&
      if tcp then Proto.Tcp_wire.compute_cksum ~src ~dst whole = reference
      else
        Proto.Udp.compute_cksum ~src ~dst whole
        = if reference = 0 then 0xffff else reference)

(* Random header-sized byte strings, nudged so the structural checks
   pass about half the time: [patched] sets byte [at] when [patch]. *)
let header_bytes ~max =
  QCheck.(triple (string_of_size Gen.(0 -- max)) bool small_nat)

let patched s ~patch ~at c =
  if patch && String.length s > at then
    String.mapi (fun i x -> if i = at then Char.chr c else x) s
  else s

let accessors_match_parse =
  QCheck.Test.make ~name:"in-place accessors = parse's fields; guards reject"
    ~count:1000 (header_bytes ~max:48)
    (fun (s, patch, k) ->
      let ether = View.of_string s in
      let ipv4 = View.of_string (patched s ~patch ~at:0 0x45) in
      let tcp =
        View.of_string (patched s ~patch ~at:12 ((5 + (k mod 11)) lsl 4))
      in
      (match Proto.Ether.parse ether with
      | None -> not (Proto.Ether.has_header ether)
      | Some h ->
          Proto.Ether.has_header ether
          && h.Proto.Ether.dst = Proto.Ether.get_dst ether
          && h.Proto.Ether.src = Proto.Ether.get_src ether
          && h.Proto.Ether.etype = Proto.Ether.get_etype ether)
      && (match Proto.Ipv4.parse ipv4 with
         | None -> not (Proto.Ipv4.has_header ipv4)
         | Some h ->
             let ff = Proto.Ipv4.get_flags_frag ipv4 in
             Proto.Ipv4.has_header ipv4
             && h.Proto.Ipv4.tos = Proto.Ipv4.get_tos ipv4
             && h.Proto.Ipv4.total_len = Proto.Ipv4.get_total_len ipv4
             && h.Proto.Ipv4.id = Proto.Ipv4.get_id ipv4
             && h.Proto.Ipv4.dont_fragment = (ff land 0x4000 <> 0)
             && h.Proto.Ipv4.more_fragments = (ff land 0x2000 <> 0)
             && h.Proto.Ipv4.frag_offset = ff land 0x1fff
             && h.Proto.Ipv4.ttl = Proto.Ipv4.get_ttl ipv4
             && h.Proto.Ipv4.proto = Proto.Ipv4.get_proto ipv4
             && h.Proto.Ipv4.src = Proto.Ipv4.get_src ipv4
             && h.Proto.Ipv4.dst = Proto.Ipv4.get_dst ipv4)
      && (match Proto.Udp.parse ether with
         | None -> not (Proto.Udp.has_header ether)
         | Some h ->
             Proto.Udp.has_header ether
             && h.Proto.Udp.src_port = Proto.Udp.get_src_port ether
             && h.Proto.Udp.dst_port = Proto.Udp.get_dst_port ether
             && h.Proto.Udp.len = Proto.Udp.get_len ether
             && h.Proto.Udp.cksum = Proto.Udp.get_cksum ether)
      &&
      match Proto.Tcp_wire.parse tcp with
      | None -> not (Proto.Tcp_wire.has_header tcp)
      | Some (h, data_off) ->
          Proto.Tcp_wire.has_header tcp
          && h.Proto.Tcp_wire.src_port = Proto.Tcp_wire.get_src_port tcp
          && h.Proto.Tcp_wire.dst_port = Proto.Tcp_wire.get_dst_port tcp
          && h.Proto.Tcp_wire.seq = Proto.Tcp_wire.get_seq tcp
          && h.Proto.Tcp_wire.ack = Proto.Tcp_wire.get_ack tcp
          && h.Proto.Tcp_wire.flags = Proto.Tcp_wire.get_flags tcp
          && h.Proto.Tcp_wire.window = Proto.Tcp_wire.get_window tcp
          && data_off = Proto.Tcp_wire.get_data_off tcp)

(* The managers' frame guards agree with [parse] on any frame, runts
   included: a frame too short for a header never matches. *)
let frame_guards_match_parse =
  let dev =
    lazy
      (let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
       Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b))
  in
  QCheck.Test.make ~name:"EtherType guard = parse on random frames" ~count:500
    (header_bytes ~max:20)
    (fun (s, patch, _) ->
      let s = patched s ~patch ~at:12 0x08 in
      let s = patched s ~patch ~at:13 0x00 in
      let ctx = Plexus.Pctx.make (Lazy.force dev) (Mbuf.ro (Mbuf.of_string s)) in
      let expect =
        match Proto.Ether.parse (View.of_string s) with
        | Some h -> h.Proto.Ether.etype = Proto.Ether.etype_ip
        | None -> false
      in
      Plexus.Ether_mgr.etype_guard Proto.Ether.etype_ip ctx = expect)

(* ---- the send path's recycled records ------------------------------- *)

(* A sender whose device has no peer: each frame is freed as it leaves
   the wire, so what a send allocates is the send path's alone. *)
let lone_sender () =
  let engine = Sim.Engine.create () in
  let host = Netsim.Host.create engine ~name:"lone" ~ip:ip_a in
  let (_ : Netsim.Dev.t) =
    Netsim.Host.add_device host (Netsim.Costs.ethernet ())
  in
  let stack = Plexus.Stack.build host in
  Plexus.Arp_mgr.prime (Plexus.Stack.arp stack) ip_b
    (Proto.Ether.Mac.of_int 0x02_00_00_00_00_02);
  let udp = Plexus.Stack.udp stack in
  match Plexus.Udp_mgr.bind udp ~owner:"cli" ~port:5000 with
  | Ok ep -> (engine, udp, ep)
  | Error _ -> Alcotest.fail "bind failed"

let payloads n = Array.init n (fun _ -> Mbuf.alloc 64)

(* Send pre-allocated payloads back to back, then run the simulation
   until the last frame has left the wire.  The minor words this
   allocates, with no closure of the test's own in them. *)
let burst_words (engine, udp, ep) ms =
  let dst = (ip_b, 7) in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length ms - 1 do
    Plexus.Udp_mgr.send_mbuf udp ep ~dst ms.(i)
  done;
  Sim.Engine.run engine;
  Gc.minor_words () -. w0

(* Words per 64-B datagram from [send_mbuf] to the frame leaving the
   wire, stashes warm.  The UDP, IP and Ethernet output steps and the
   driver's send item, wire and propagation events each reuse a record
   whose thunk was built with it; the route walk and the ARP probe
   return no option; priorities pass positionally.  What is left is the
   mbuf's own: [Mbuf.take]'s handle when the driver consumes the frame
   (7) and the view each of the three header pushes returns (4 each);
   the buffer goes back to its free list, a preallocated stack, without
   allocating.  Optimised and dev builds alike. *)
let send_words = 19.

let send_allocates_only_mbuf_words () =
  let s = lone_sender () in
  let (engine, _, _) = s in
  ignore (burst_words s (payloads 1) : float);
  let ms = payloads 1 in
  let e0 = Sim.Engine.events_run engine in
  let words = burst_words s ms in
  Alcotest.(check int) "the driver consumed the frame" 0 (Mbuf.length ms.(0));
  (* CPU completions of the UDP, IP, Ethernet and driver items, and the
     wire-done event; with no peer there is no propagation event *)
  Alcotest.(check int) "engine events" 5 (Sim.Engine.events_run engine - e0);
  Alcotest.(check (float 0.)) "minor words per send" send_words words

(* A burst deeper than a stash's first capacity (8 records) grows every
   stash on the way down; the same burst again finds them warm, and
   allocates only what as many single sends would. *)
let deep_burst_reuses_records () =
  let s = lone_sender () in
  let n = 24 in
  ignore (burst_words s (payloads 1) : float);
  let first = burst_words s (payloads n) in
  let second = burst_words s (payloads n) in
  if first <= second then
    Alcotest.failf "the first burst (%.0f words) grew no record" first;
  Alcotest.(check (float 0.)) "second burst: no record allocated"
    (float_of_int n *. send_words) second

let suite =
  [
    ( "datapath.zero_copy",
      [
        tc "headroom prepend allocates nothing" prepend_no_alloc;
        tc "free list recycles buffers" freelist_recycles;
        tc "sub shares, does not copy" sub_is_zero_copy;
        tc "shared headroom is not clobbered" shared_headroom_not_clobbered;
        tc "udp fast path: zero copies end to end" udp_fast_path_zero_copy;
        tc "fragmentation: zero copies" fragmentation_is_zero_copy;
        tc "received frames recycle" received_frames_recycle;
      ] );
    ( "datapath.steady_state",
      [ tc "primed arp outlives the cache ttl" primed_arp_outlives_ttl ] );
    ( "datapath.safety",
      [
        tc "mbuf double free raises" mbuf_double_free_raises;
        tc "pool underflow raises and counts" pool_underflow_raises;
        tc "pool reserve/release budget" pool_reserve_release;
      ] );
    ( "datapath.in_place",
      [
        tc "header reads allocate nothing" in_place_reads_allocate_nothing;
        tc "push writes what encapsulate writes" push_matches_encapsulate;
        tc "layouts match the wire" layouts_match_the_wire;
        tc "one-step layer hand-offs" pctx_one_step_handoffs;
        tc "substring search allocates nothing" substring_search_allocates_nothing;
      ] );
    ( "datapath.send_records",
      [
        tc "a send allocates only mbuf words" send_allocates_only_mbuf_words;
        tc "a deeper burst reuses its records" deep_burst_reuses_records;
      ] );
    ( "datapath.props",
      [
        prop mbuf_model;
        prop cksum_chain_vs_reference;
        prop cksum_long_view_vs_reference;
        prop cksum_of_mbuf_chain;
        prop pseudo_sum_vs_reference;
        prop accessors_match_parse;
        prop frame_guards_match_parse;
      ] );
  ]
