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
     13 engine events, and heap words under half the ~1.8k a datagram
     took when every event boxed its thunk and every CPU item and
     handler delivery allocated its own records *)
  Alcotest.(check int) "engine events per datagram" 13
    (Sim.Engine.events_run p.Experiments.Common.engine - e0);
  if words > 900. then
    Alcotest.failf "%.0f minor words per datagram (bound 900)" words

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
      ] );
    ( "datapath.steady_state",
      [ tc "primed arp outlives the cache ttl" primed_arp_outlives_ttl ] );
    ( "datapath.safety",
      [
        tc "mbuf double free raises" mbuf_double_free_raises;
        tc "pool underflow raises and counts" pool_underflow_raises;
        tc "pool reserve/release budget" pool_reserve_release;
      ] );
    ( "datapath.props",
      [
        prop mbuf_model;
        prop cksum_chain_vs_reference;
        prop cksum_long_view_vs_reference;
        prop cksum_of_mbuf_chain;
      ] );
  ]
