(* Chaos soak and directed fault-handling regressions.

   The soak tests sweep Experiments.Chaos scenarios across many fixed
   seeds — every run is deterministic, so a failure here is always
   reproducible by seed.  The directed tests pin the individual fixes
   that ride with the fault subsystem: the closed [0,1] loss interval,
   the wire_drops/tx_drops split, admission control accounting, the
   scheduled fragment-reassembly expiry, ARP retry exhaustion, pool
   pressure watermarks and TCP checksum verification. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let ip_a = Proto.Ipaddr.v 10 0 1 1
let ip_b = Proto.Ipaddr.v 10 0 1 2

(* --- soak -------------------------------------------------------------- *)

let soak_seeds = List.init 20 (fun i -> 1000 + i)

let mix_for i =
  if i mod 2 = 0 then Experiments.Chaos.default_mix
  else Experiments.Chaos.burst_mix

let udp_soak () =
  List.iteri
    (fun i seed ->
      let o = Experiments.Chaos.udp_blast ~mix:(mix_for i) ~seed () in
      Alcotest.(check bool)
        (Fmt.str "udp seed %d: %a" seed Experiments.Chaos.pp_udp_outcome o)
        true
        (Experiments.Chaos.udp_ok o))
    soak_seeds

let frag_soak () =
  List.iteri
    (fun i seed ->
      let o = Experiments.Chaos.udp_frag ~mix:(mix_for i) ~seed () in
      Alcotest.(check bool)
        (Fmt.str "frag seed %d: %a" seed Experiments.Chaos.pp_frag_outcome o)
        true
        (Experiments.Chaos.frag_ok o))
    soak_seeds

let tcp_soak () =
  List.iteri
    (fun i seed ->
      let o = Experiments.Chaos.tcp_transfer ~mix:(mix_for i) ~seed () in
      Alcotest.(check bool)
        (Fmt.str "tcp seed %d: %a" seed Experiments.Chaos.pp_tcp_outcome o)
        true
        (Experiments.Chaos.tcp_ok o))
    soak_seeds

(* Cached delivery must be observably equivalent to graph dispatch with
   faults in play: same seed, same fault stream, identical counters. *)
let fcache_equivalence () =
  List.iter
    (fun seed ->
      let plain = Experiments.Chaos.udp_blast ~seed () in
      let cached = Experiments.Chaos.udp_blast ~fcache:true ~seed () in
      Alcotest.(check bool)
        (Fmt.str "seed %d cached ok" seed)
        true
        (Experiments.Chaos.udp_ok cached);
      Alcotest.(check bool)
        (Fmt.str "seed %d equivalent" seed)
        true
        (Experiments.Chaos.udp_equivalent plain cached))
    (List.init 6 (fun i -> 4242 + i))

(* Identical seed, identical outcome — the soak's reproducibility
   guarantee, as a property. *)
let determinism =
  QCheck.Test.make ~count:25 ~name:"chaos outcome is a function of the seed"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      Experiments.Chaos.udp_blast ~count:60 ~seed ()
      = Experiments.Chaos.udp_blast ~count:60 ~seed ())

(* --- directed: loss interval and the wire/tx drop split ---------------- *)

let pair () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine
      (Netsim.Costs.ethernet ())
      ~a:("hostA", ip_a) ~b:("hostB", ip_b)
  in
  (engine, ea, eb)

let set_loss_interval () =
  let _, ea, _ = pair () in
  let dev = ea.Netsim.Network.dev in
  Netsim.Dev.set_loss dev 0.0;
  Netsim.Dev.set_loss dev 0.5;
  Netsim.Dev.set_loss dev 1.0;
  Alcotest.check_raises "p > 1 rejected" (Invalid_argument "Dev.set_loss")
    (fun () -> Netsim.Dev.set_loss dev 1.01);
  Alcotest.check_raises "p < 0 rejected" (Invalid_argument "Dev.set_loss")
    (fun () -> Netsim.Dev.set_loss dev (-0.01))

(* Total loss: every frame transmits fine (tx_drops stays 0 — that
   counter means queue overflow, nothing else) and dies on the wire. *)
let wire_drops_split () =
  let engine, ea, eb = pair () in
  Netsim.Dev.set_loss ea.Netsim.Network.dev 1.0;
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  let udp_b = Plexus.Stack.udp b in
  let got = ref 0 in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"sink" ~port:9 with
  | Error _ -> Alcotest.fail "bind"
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr got)
      in
      ());
  let udp_a = Plexus.Stack.udp a in
  (match Plexus.Udp_mgr.bind udp_a ~owner:"src" ~port:5000 with
  | Error _ -> Alcotest.fail "bind"
  | Ok ep ->
      for _ = 1 to 5 do
        Plexus.Udp_mgr.send udp_a ep ~dst:(ip_b, 9) "doomed"
      done);
  Sim.Engine.run engine ~max_events:1_000_000;
  let c = Netsim.Dev.counters ea.Netsim.Network.dev in
  Alcotest.(check int) "nothing arrives" 0 !got;
  Alcotest.(check int) "all transmitted" 5 c.Netsim.Dev.tx_packets;
  Alcotest.(check int) "all lost on the wire" 5 c.Netsim.Dev.wire_drops;
  Alcotest.(check int) "no queue overflow" 0 c.Netsim.Dev.tx_drops

(* --- directed: admission control --------------------------------------- *)

let build_udp_frame ~src_mac ~dst_mac ~dst_port =
  let pkt = Mbuf.of_string (String.make 18 'a') in
  Proto.Udp.encapsulate pkt ~src:ip_a ~dst:ip_b ~src_port:5000 ~dst_port;
  Proto.Ipv4.encapsulate pkt
    (Proto.Ipv4.make ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b
       ~payload_len:(Mbuf.length pkt) ());
  Proto.Ether.encapsulate pkt
    { Proto.Ether.dst = dst_mac; src = src_mac; etype = Proto.Ether.etype_ip };
  Mbuf.to_string pkt

(* A burst far beyond the interrupt budget: the excess defers (and past
   the queue limit, sheds), every frame is accounted exactly once, and
   the deferred queue fully drains. *)
let admission_accounting () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ())
      ~a:("blaster", ip_a) ~b:("victim", ip_b)
  in
  Netsim.Dev.set_admission ~budget:2 ~window:(Sim.Stime.ms 1) ~defer_limit:8
    ~poll_batch:4 eb.Netsim.Network.dev;
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  let udp_b = Plexus.Stack.udp b in
  let got = ref 0 in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"sink" ~port:9 with
  | Error _ -> Alcotest.fail "bind"
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr got)
      in
      ());
  let frame =
    build_udp_frame
      ~src_mac:(Netsim.Dev.mac ea.Netsim.Network.dev)
      ~dst_mac:(Netsim.Dev.mac eb.Netsim.Network.dev)
      ~dst_port:9
  in
  let total = 100 in
  for i = 0 to total - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~at:(Sim.Stime.us (20 * i))
         (fun () ->
           Netsim.Dev.transmit ea.Netsim.Network.dev (Mbuf.of_string frame)))
  done;
  Sim.Engine.run engine ~max_events:5_000_000;
  let c = Netsim.Dev.counters eb.Netsim.Network.dev in
  Alcotest.(check bool) "some frames deferred" true (c.Netsim.Dev.rx_deferred > 0);
  Alcotest.(check bool) "some frames shed" true (c.Netsim.Dev.rx_shed > 0);
  Alcotest.(check int) "every frame accounted once" total
    (c.Netsim.Dev.rx_packets + c.Netsim.Dev.rx_shed);
  Alcotest.(check int) "deferred queue drained" 0
    (Netsim.Dev.admission_backlog eb.Netsim.Network.dev);
  Alcotest.(check int) "delivered = serviced" c.Netsim.Dev.rx_packets !got

(* A frame the admission-control poller serves walks the whole graph at
   thread priority, so its delivery queues behind thread work that was
   already waiting; the interrupt-serviced frame before it is delivered
   ahead of that work. *)
let polled_frames_stay_demoted () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ())
      ~a:("blaster", ip_a) ~b:("victim", ip_b)
  in
  Netsim.Dev.set_admission ~budget:1 ~window:(Sim.Stime.ms 100)
    eb.Netsim.Network.dev;
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  let udp_b = Plexus.Stack.udp b in
  let log = ref [] in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"sink" ~port:9 with
  | Error _ -> Alcotest.fail "bind"
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> log := "udp" :: !log)
      in
      ());
  let frame =
    build_udp_frame
      ~src_mac:(Netsim.Dev.mac ea.Netsim.Network.dev)
      ~dst_mac:(Netsim.Dev.mac eb.Netsim.Network.dev)
      ~dst_port:9
  in
  (* the victim's CPU stays busy while both frames arrive, and an
     application item joins the thread queue behind the poller's *)
  let cpu = Netsim.Host.cpu eb.Netsim.Network.host in
  Sim.Cpu.submit cpu Sim.Cpu.Interrupt ~cost:(Sim.Stime.ms 5) ignore;
  for _ = 1 to 2 do
    Netsim.Dev.transmit ea.Netsim.Network.dev (Mbuf.of_string frame)
  done;
  ignore
    (Sim.Engine.schedule engine ~at:(Sim.Stime.ms 4) (fun () ->
         Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(Sim.Stime.us 1) (fun () ->
             log := "app" :: !log)));
  Sim.Engine.run engine;
  Alcotest.(check int) "second frame deferred" 1
    (Netsim.Dev.counters eb.Netsim.Network.dev).Netsim.Dev.rx_deferred;
  Alcotest.(check (list string)) "polled delivery waits behind thread work"
    [ "udp"; "app"; "udp" ] (List.rev !log)

(* --- directed: scheduled fragment expiry ------------------------------- *)

(* A lone first fragment: no further fragment ever arrives, so only the
   scheduled timer can reclaim the reassembly context — and once it has,
   the timer must go quiet (the engine drains instead of ticking to the
   event cap). *)
let frag_train_times_out () =
  let engine, ea, eb = pair () in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  let pkt = Mbuf.of_string (String.make 64 'f') in
  Proto.Ipv4.encapsulate pkt
    (Proto.Ipv4.make ~id:77 ~more_fragments:true ~frag_offset:0
       ~proto:Proto.Ipv4.proto_udp ~src:ip_a ~dst:ip_b ~payload_len:64 ());
  Proto.Ether.encapsulate pkt
    {
      Proto.Ether.dst = Netsim.Dev.mac eb.Netsim.Network.dev;
      src = Netsim.Dev.mac ea.Netsim.Network.dev;
      etype = Proto.Ether.etype_ip;
    };
  Netsim.Dev.transmit ea.Netsim.Network.dev pkt;
  Sim.Engine.run engine ~max_events:1_000_000;
  let frag = Plexus.Ip_mgr.frag_state (Plexus.Stack.ip b) in
  Alcotest.(check int) "reassembly timed out" 1 (Proto.Ip_frag.timeout_count frag);
  Alcotest.(check int) "slots released" 0 (Proto.Ip_frag.pending_count frag);
  (* the timer fired once at the 30 s deadline and then disarmed: the
     engine drained just past it, not at the event cap *)
  let now = Sim.Stime.to_us (Sim.Engine.now engine) in
  Alcotest.(check bool)
    (Printf.sprintf "drained just past the deadline (%.0fus)" now)
    true
    (now >= 30e6 && now < 35e6)

(* --- directed: ARP retry exhaustion ------------------------------------ *)

(* 100%% loss toward the target: the resolver must stop after
   max_retries, remove the pending entry, surface the failure, cancel
   the queued continuations, and leave no timer behind (the engine
   drains). *)
let arp_retry_exhaustion () =
  let engine, ea, eb = pair () in
  Netsim.Dev.set_loss ea.Netsim.Network.dev 1.0;
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let _b = Plexus.Stack.build eb.Netsim.Network.host in
  let arp = Plexus.Stack.arp a in
  let resolved = ref 0 in
  Plexus.Arp_mgr.resolve arp ip_b (fun _ -> incr resolved);
  Sim.Engine.run engine ~max_events:1_000_000;
  Alcotest.(check int) "requests = max_retries" 3
    (Plexus.Arp_mgr.requests_sent arp);
  Alcotest.(check int) "failure surfaced" 1
    (Plexus.Arp_mgr.resolution_failures arp);
  Alcotest.(check int) "pending removed" 0 (Plexus.Arp_mgr.pending_count arp);
  Alcotest.(check int) "continuation cancelled" 1
    (Plexus.Arp_mgr.waiters_dropped arp);
  Alcotest.(check int) "no queued waiter left" 0
    (Proto.Arp.Cache.waiting_count (Plexus.Arp_mgr.cache arp) ip_b);
  Alcotest.(check int) "continuation never fired" 0 !resolved;
  (* engine drained: nothing past the last retry *)
  Alcotest.(check bool) "no leaked timer" true
    (Sim.Stime.to_us (Sim.Engine.now engine) < 5e6);
  (* a reply arriving long after abandonment must not fire the stale
     continuation (it was cancelled) *)
  Proto.Arp.Cache.insert (Plexus.Arp_mgr.cache arp)
    ~now:(Sim.Engine.now engine) ip_b (Proto.Ether.Mac.of_int 0xbbbb);
  Alcotest.(check int) "late reply fires nothing" 0 !resolved

(* A reply landing between retries resolves immediately, fires the
   continuation exactly once, and stops the retry chain. *)
let arp_reply_between_retries () =
  let engine, ea, eb = pair () in
  Netsim.Dev.set_loss ea.Netsim.Network.dev 1.0;
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let _b = Plexus.Stack.build eb.Netsim.Network.host in
  let arp = Plexus.Stack.arp a in
  let resolved = ref 0 in
  Plexus.Arp_mgr.resolve arp ip_b (fun _ -> incr resolved);
  (* an unsolicited reply from B, injected on the clean b -> a direction
     between the first retry (t = 1 s) and the second (t = 2 s) *)
  ignore
    (Sim.Engine.schedule engine ~at:(Sim.Stime.ms 1500) (fun () ->
         let reply =
           Proto.Arp.reply_to
             (Proto.Arp.request
                ~sender_mac:(Netsim.Dev.mac ea.Netsim.Network.dev)
                ~sender_ip:ip_a ~target_ip:ip_b)
             ~mac:(Netsim.Dev.mac eb.Netsim.Network.dev)
         in
         let pkt = Proto.Arp.to_packet reply in
         Proto.Ether.encapsulate pkt
           {
             Proto.Ether.dst = Netsim.Dev.mac ea.Netsim.Network.dev;
             src = Netsim.Dev.mac eb.Netsim.Network.dev;
             etype = Proto.Ether.etype_arp;
           };
         Netsim.Dev.transmit eb.Netsim.Network.dev pkt));
  Sim.Engine.run engine ~max_events:1_000_000;
  Alcotest.(check int) "continuation fired once" 1 !resolved;
  Alcotest.(check int) "retries stopped after the reply" 2
    (Plexus.Arp_mgr.requests_sent arp);
  Alcotest.(check int) "no failure" 0 (Plexus.Arp_mgr.resolution_failures arp);
  Alcotest.(check int) "pending removed" 0 (Plexus.Arp_mgr.pending_count arp)

(* --- directed: pool pressure watermarks -------------------------------- *)

let pool_pressure () =
  let pool = Pool.create ~name:"t" ~capacity:8 () in
  let events = ref [] in
  Pool.set_pressure pool ~hi:0.75 ~lo:0.5 (fun high -> events := high :: !events);
  for _ = 1 to 5 do
    ignore (Pool.reserve pool)
  done;
  Alcotest.(check bool) "below hi watermark" false (Pool.pressured pool);
  ignore (Pool.reserve pool);
  (* live = 6 = ceil(0.75 * 8) *)
  Alcotest.(check bool) "at hi watermark" true (Pool.pressured pool);
  Pool.release pool;
  Alcotest.(check bool) "hysteresis: still pressured above lo" true
    (Pool.pressured pool);
  Pool.release pool;
  (* live = 4 = floor(0.5 * 8) *)
  Alcotest.(check bool) "released at lo watermark" false (Pool.pressured pool);
  ignore (Pool.reserve_n pool 2);
  Alcotest.(check bool) "pressured again" true (Pool.pressured pool);
  Alcotest.(check int) "two onset events" 2 (Pool.pressure_events pool);
  Alcotest.(check (list bool)) "callback saw on/off/on" [ true; false; true ]
    (List.rev !events);
  Alcotest.check_raises "hi > 1 rejected"
    (Invalid_argument "Pool.set_pressure: watermarks") (fun () ->
      Pool.set_pressure pool ~hi:1.5 (fun _ -> ()));
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Pool.set_pressure: watermarks") (fun () ->
      Pool.set_pressure pool ~hi:0.5 ~lo:0.7 (fun _ -> ()))

(* --- directed: TCP checksum verification ------------------------------- *)

(* A corrupted segment must be rejected by checksum before connection
   demux — never routed by its (possibly corrupted) ports. *)
let tcp_bad_checksum_dropped () =
  let engine, ea, eb = pair () in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  let seg hdr payload ~corrupt =
    let pkt = Segment.tcp ~src:ip_a ~dst:ip_b hdr payload in
    if corrupt then begin
      let v = Mbuf.view pkt in
      (* flip a payload byte, past the 20B TCP header *)
      View.set_u8 v 22 (View.get_u8 v 22 lxor 0x40)
    end;
    Proto.Ipv4.encapsulate pkt
      (Proto.Ipv4.make ~proto:Proto.Ipv4.proto_tcp ~src:ip_a ~dst:ip_b
         ~payload_len:(Mbuf.length pkt) ());
    Proto.Ether.encapsulate pkt
      {
        Proto.Ether.dst = Netsim.Dev.mac eb.Netsim.Network.dev;
        src = Netsim.Dev.mac ea.Netsim.Network.dev;
        etype = Proto.Ether.etype_ip;
      };
    pkt
  in
  let hdr =
    {
      Proto.Tcp_wire.src_port = 1234;
      dst_port = 80;
      seq = Proto.Tcp_wire.Seq.of_int 1;
      ack = Proto.Tcp_wire.Seq.of_int 0;
      flags = Proto.Tcp_wire.Flags.ack;
      window = 100;
    }
  in
  Netsim.Dev.transmit ea.Netsim.Network.dev (seg hdr "corrupt-me" ~corrupt:true);
  Netsim.Dev.transmit ea.Netsim.Network.dev (seg hdr "valid-one" ~corrupt:false);
  Sim.Engine.run engine ~max_events:1_000_000;
  let c = Plexus.Tcp_mgr.counters (Plexus.Stack.tcp b) in
  Alcotest.(check int) "both segments reached tcp" 2 c.Plexus.Tcp_mgr.rx;
  Alcotest.(check int) "corrupted one caught by checksum" 1
    c.Plexus.Tcp_mgr.bad_checksum;
  (* only the valid segment proceeded to demux (and found no conn) *)
  Alcotest.(check int) "valid one demuxed" 1 c.Plexus.Tcp_mgr.no_match

let suite =
  [
    ( "chaos-soak",
      [
        tc "udp blast across 20 seeds" udp_soak;
        tc "fragmented udp across 20 seeds" frag_soak;
        tc "tcp transfer across 20 seeds" tcp_soak;
        tc "flow cache equivalent under faults" fcache_equivalence;
        prop determinism;
      ] );
    ( "faults-directed",
      [
        tc "set_loss accepts the closed [0,1] interval" set_loss_interval;
        tc "total loss lands in wire_drops, not tx_drops" wire_drops_split;
        tc "admission control accounts every frame" admission_accounting;
        tc "polled frames walk the graph at thread priority"
          polled_frames_stay_demoted;
        tc "half-delivered fragment train times out" frag_train_times_out;
        tc "arp retry exhaustion under 100% loss" arp_retry_exhaustion;
        tc "arp reply between retries" arp_reply_between_retries;
        tc "pool pressure watermarks" pool_pressure;
        tc "tcp checksum verified before demux" tcp_bad_checksum_dropped;
      ] );
  ]
