(* Tests for the device/host simulation substrate. *)

let tc name f = Alcotest.test_case name `Quick f
let us = Sim.Stime.us

let mk_pair ?(params = Netsim.Costs.loopback ()) () =
  let engine = Sim.Engine.create () in
  let a, b =
    Netsim.Network.pair engine params
      ~a:("a", Proto.Ipaddr.v 10 0 0 1)
      ~b:("b", Proto.Ipaddr.v 10 0 0 2)
  in
  (engine, a, b)

(* ---- Dev -------------------------------------------------------------- *)

let dev_delivers () =
  let engine, a, b = mk_pair () in
  let got = ref [] in
  Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ pkt ->
      got := Mbuf.to_string pkt :: !got);
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.of_string "frame-1");
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.of_string "frame-2");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "in order" [ "frame-1"; "frame-2" ]
    (List.rev !got);
  let c = Netsim.Dev.counters a.Netsim.Network.dev in
  Alcotest.(check int) "tx count" 2 c.Netsim.Dev.tx_packets;
  Alcotest.(check int) "tx bytes" 14 c.Netsim.Dev.tx_bytes;
  let cb = Netsim.Dev.counters b.Netsim.Network.dev in
  Alcotest.(check int) "rx count" 2 cb.Netsim.Dev.rx_packets

let dev_transmit_takes_ownership () =
  let engine, a, b = mk_pair () in
  let got = ref None in
  Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ pkt -> got := Some pkt);
  let pkt = Mbuf.of_string "orig" in
  Netsim.Dev.transmit a.Netsim.Network.dev pkt;
  (* the driver consumed the frame: the sender's handle is empty, so a
     post-transmit scribble cannot reach bytes on the wire *)
  Alcotest.(check bool) "sender handle emptied" true (Mbuf.is_empty pkt);
  View.fill (Mbuf.view pkt) 'X';
  Sim.Engine.run engine;
  match !got with
  | Some p -> Alcotest.(check string) "unaffected" "orig" (Mbuf.to_string p)
  | None -> Alcotest.fail "nothing received"

let dev_no_handler_drops () =
  let engine, a, b = mk_pair () in
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.of_string "frame");
  Sim.Engine.run engine;
  Alcotest.(check int) "rx drop counted" 1
    (Netsim.Dev.counters b.Netsim.Network.dev).Netsim.Dev.rx_drops

(* A frame that reaches a device with no receive handler, one at a time
   or in a coalesced burst, is counted, traced and freed. *)
let dev_no_handler_frees () =
  let engine, a, b = mk_pair () in
  let dev_b = b.Netsim.Network.dev in
  let ring = Observe.Trace.Ring.create () in
  Netsim.Dev.set_trace dev_b (Observe.Trace.create ~sink:(Observe.Trace.Ring ring) ());
  let live () = snd (Mbuf.stats ()) in
  let live0 = live () in
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.of_string "frame");
  Sim.Engine.run engine;
  Alcotest.(check int) "interrupt path: frame freed" live0 (live ());
  Netsim.Dev.deliver_batch dev_b
    [ Mbuf.ro (Mbuf.of_string "b1"); Mbuf.ro (Mbuf.of_string "b2") ];
  Sim.Engine.run engine;
  Alcotest.(check int) "burst: frames freed" live0 (live ());
  Alcotest.(check int) "rx drops" 3 (Netsim.Dev.counters dev_b).Netsim.Dev.rx_drops;
  let drops =
    List.filter_map
      (fun sp ->
        match sp.Observe.Trace.event with
        | Observe.Trace.Drop { scope; reason } -> Some (scope, reason)
        | _ -> None)
      (Observe.Trace.Ring.to_list ring)
  in
  let name = Netsim.Dev.name dev_b in
  Alcotest.(check (list (pair string string))) "one Drop span per frame"
    [ (name, "no_handler"); (name, "no_handler"); (name, "no_handler") ]
    drops

let dev_mtu_enforced () =
  let engine, a, _b = mk_pair ~params:(Netsim.Costs.ethernet ()) () in
  ignore engine;
  let big = Mbuf.alloc 1600 in
  match Netsim.Dev.transmit a.Netsim.Network.dev big with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "oversized frame accepted"

let dev_wire_serializes () =
  (* Ethernet at 10 Mb/s: two 1000-byte frames cannot arrive closer than
     their wire time apart. *)
  let engine, a, b = mk_pair ~params:(Netsim.Costs.ethernet ()) () in
  let arrivals = ref [] in
  Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ _ ->
      arrivals := Sim.Engine.now engine :: !arrivals);
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 1000);
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 1000);
  Sim.Engine.run engine;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      let gap = Sim.Stime.to_us (Sim.Stime.sub t2 t1) in
      let wire =
        Sim.Stime.to_us (Netsim.Dev.wire_time a.Netsim.Network.dev 1000)
      in
      Alcotest.(check bool)
        (Printf.sprintf "gap %.1f >= wire %.1f" gap wire)
        true (gap >= wire -. 0.001)
  | _ -> Alcotest.fail "expected two arrivals"

let dev_shared_medium_contends () =
  (* On the half-duplex Ethernet, simultaneous opposite-direction frames
     serialize; on the full-duplex T3 they do not. *)
  let run params =
    let engine, a, b = mk_pair ~params () in
    let last = ref Sim.Stime.zero in
    Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ _ -> last := Sim.Engine.now engine);
    Netsim.Dev.set_rx a.Netsim.Network.dev (fun _ _ -> last := Sim.Engine.now engine);
    Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 1000);
    Netsim.Dev.transmit b.Netsim.Network.dev (Mbuf.alloc 1000);
    Sim.Engine.run engine;
    Sim.Stime.to_us !last
  in
  let eth = run (Netsim.Costs.ethernet ()) in
  let t3 = run (Netsim.Costs.t3 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "ethernet (%.0f) serializes, t3 (%.0f) does not" eth t3)
    true (eth > 1.8 *. t3)

let dev_pio_charges_cpu () =
  let engine, a, b = mk_pair ~params:(Netsim.Costs.atm ()) () in
  Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ _ -> ());
  let cpu_a = Netsim.Host.cpu a.Netsim.Network.host in
  let before = Sim.Stime.to_ns (Sim.Cpu.busy_time cpu_a) in
  Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 1000);
  Sim.Engine.run engine;
  let tx_cost = Sim.Stime.to_ns (Sim.Cpu.busy_time cpu_a) - before in
  (* 32us fixed + 1000 * 150ns PIO *)
  Alcotest.(check int) "tx charged fixed+PIO" 182_000 tx_cost;
  let cpu_b = Netsim.Host.cpu b.Netsim.Network.host in
  Alcotest.(check int) "rx charged fixed+PIO" 195_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu_b))

let dev_txq_overflow () =
  let params = { (Netsim.Costs.ethernet ()) with Netsim.Costs.txq_limit = 2 } in
  let engine, a, b = mk_pair ~params () in
  Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ _ -> ());
  for _ = 1 to 10 do
    Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 1000)
  done;
  Sim.Engine.run engine;
  let c = Netsim.Dev.counters a.Netsim.Network.dev in
  Alcotest.(check bool) "drops happened" true (c.Netsim.Dev.tx_drops > 0);
  Alcotest.(check int) "sent + dropped = offered" 10
    (c.Netsim.Dev.tx_packets + c.Netsim.Dev.tx_drops)

(* ---- Disk -------------------------------------------------------------- *)

let disk_read () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let disk =
    Netsim.Disk.create ~bw_bytes_per_s:10_000_000 ~access:(us 100) engine ~cpu
      ~costs:Netsim.Costs.default
  in
  let got = ref None in
  Netsim.Disk.read disk ~len:10_000 (fun data ->
      got := Some (String.length data, Sim.Engine.now engine));
  Sim.Engine.run engine;
  match !got with
  | Some (len, t) ->
      Alcotest.(check int) "data length" 10_000 len;
      (* dma setup 20us (cpu) -> access 100us + transfer 1000us + intr 15us *)
      Alcotest.(check bool)
        (Printf.sprintf "latency sensible (%.0fus)" (Sim.Stime.to_us t))
        true
        (Sim.Stime.to_us t >= 1120. && Sim.Stime.to_us t <= 1160.);
      Alcotest.(check int) "reads" 1 (Netsim.Disk.reads disk)
  | None -> Alcotest.fail "no completion"

let disk_serializes () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let disk =
    Netsim.Disk.create ~bw_bytes_per_s:10_000_000 ~access:(us 100) engine ~cpu
      ~costs:Netsim.Costs.default
  in
  let times = ref [] in
  Netsim.Disk.read disk ~len:10_000 (fun _ ->
      times := Sim.Engine.now engine :: !times);
  Netsim.Disk.read disk ~len:10_000 (fun _ ->
      times := Sim.Engine.now engine :: !times);
  Sim.Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
      Alcotest.(check bool) "second waits for first" true
        (Sim.Stime.to_us (Sim.Stime.sub t2 t1) >= 1000.)
  | _ -> Alcotest.fail "expected two completions"

(* ---- Framebuffer ------------------------------------------------------- *)

let framebuffer_cost () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let fb = Netsim.Framebuffer.create ~cpu ~costs:Netsim.Costs.default in
  let done_at = ref Sim.Stime.zero in
  Netsim.Framebuffer.write fb ~len:10_000 (fun () ->
      done_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  (* 10000 bytes * 250 ns = 2.5ms *)
  Alcotest.(check int) "slow device memory" 2_500_000 (Sim.Stime.to_ns !done_at);
  Alcotest.(check int) "bytes" 10_000 (Netsim.Framebuffer.bytes_written fb);
  Alcotest.(check int) "frames" 1 (Netsim.Framebuffer.frames fb)

(* ---- Host / Network ----------------------------------------------------- *)

let host_devices () =
  let engine = Sim.Engine.create () in
  let h = Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 0 0 1) in
  let d1 = Netsim.Host.add_device h (Netsim.Costs.ethernet ()) in
  let d2 = Netsim.Host.add_device h (Netsim.Costs.t3 ()) in
  Alcotest.(check int) "two devices" 2 (List.length (Netsim.Host.devices h));
  Alcotest.(check bool) "distinct macs" false
    (Proto.Ether.Mac.equal (Netsim.Dev.mac d1) (Netsim.Dev.mac d2))

let network_line3 () =
  let engine = Sim.Engine.create () in
  let c, (m1, m2), s =
    Netsim.Network.line3 engine (Netsim.Costs.ethernet ())
      ~client:("c", Proto.Ipaddr.v 10 0 1 2)
      ~middle:("m", Proto.Ipaddr.v 10 0 1 1)
      ~server:("s", Proto.Ipaddr.v 10 0 2 2)
  in
  Alcotest.(check bool) "middle is one host with two devices" true
    (m1.Netsim.Network.host == m2.Netsim.Network.host);
  Alcotest.(check int) "middle devices" 2
    (List.length (Netsim.Host.devices m1.Netsim.Network.host));
  (* client can reach middle's first device *)
  let got = ref 0 in
  Netsim.Dev.set_rx m1.Netsim.Network.dev (fun _ _ -> incr got);
  Netsim.Dev.set_rx s.Netsim.Network.dev (fun _ _ -> incr got);
  Netsim.Dev.transmit c.Netsim.Network.dev (Mbuf.of_string "to-middle");
  Netsim.Dev.transmit m2.Netsim.Network.dev (Mbuf.of_string "to-server");
  Sim.Engine.run engine;
  Alcotest.(check int) "both segments deliver" 2 !got

let suite =
  [
    ( "netsim.dev",
      [
        tc "delivers in order" dev_delivers;
        tc "transmit takes ownership" dev_transmit_takes_ownership;
        tc "no handler -> drop" dev_no_handler_drops;
        tc "no handler: frames freed and traced" dev_no_handler_frees;
        tc "mtu enforced" dev_mtu_enforced;
        tc "wire serializes" dev_wire_serializes;
        tc "shared medium contends" dev_shared_medium_contends;
        tc "PIO charges the CPU" dev_pio_charges_cpu;
        tc "txq overflow drops" dev_txq_overflow;
      ] );
    ( "netsim.disk",
      [ tc "read latency and data" disk_read; tc "serializes requests" disk_serializes ] );
    ("netsim.framebuffer", [ tc "write cost" framebuffer_cost ]);
    ( "netsim.topology",
      [ tc "host devices" host_devices; tc "line3" network_line3 ] );
  ]

(* ---- cost-model arithmetic ----------------------------------------------- *)

let frame_overheads () =
  let eth = Netsim.Costs.ethernet () in
  (* 8-byte UDP -> 50-byte frame -> padded to 60 + FCS/preamble/IFG *)
  Alcotest.(check int) "ethernet pads short frames" (60 + 24)
    (eth.Netsim.Costs.frame_overhead 50);
  Alcotest.(check int) "ethernet big frame" (1514 + 24)
    (eth.Netsim.Costs.frame_overhead 1514);
  let atm = Netsim.Costs.atm () in
  (* 40 bytes + 8 AAL5 = 48 -> exactly one 53-byte cell *)
  Alcotest.(check int) "one cell" 53 (atm.Netsim.Costs.frame_overhead 40);
  Alcotest.(check int) "two cells" 106 (atm.Netsim.Costs.frame_overhead 41);
  Alcotest.(check int) "1514 -> 32 cells" (32 * 53)
    (atm.Netsim.Costs.frame_overhead 1514);
  let t3 = Netsim.Costs.t3 () in
  Alcotest.(check int) "t3 small overhead" 104 (t3.Netsim.Costs.frame_overhead 100)

let per_byte_cost () =
  Alcotest.(check int) "150ns/B over 1000B = 150us" 150_000
    (Sim.Stime.to_ns (Netsim.Costs.per_byte 150. 1000));
  Alcotest.(check int) "zero" 0 (Sim.Stime.to_ns (Netsim.Costs.per_byte 0. 12345))

let wire_time_known () =
  let engine = Sim.Engine.create () in
  let a, _b =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ())
      ~a:("a", Proto.Ipaddr.v 10 0 0 1)
      ~b:("b", Proto.Ipaddr.v 10 0 0 2)
  in
  (* 1514+24 bytes at 10 Mb/s = 1230.4 us *)
  Alcotest.(check (float 0.1)) "full frame wire time" 1230.4
    (Sim.Stime.to_us (Netsim.Dev.wire_time a.Netsim.Network.dev 1514))

let raw_rtt_analytic () =
  (* the analytic driver-to-driver figure must sit below the measured
     full-stack RTT and above pure wire time *)
  let params = Netsim.Costs.ethernet () in
  let raw = Experiments.Common.raw_device_rtt params ~len:64 in
  Alcotest.(check bool) (Printf.sprintf "sane raw rtt (%.0f)" raw) true
    (raw > 2. *. 57.6 && raw < 600.)

let suite =
  suite
  @ [
      ( "netsim.costs",
        [
          tc "frame overheads" frame_overheads;
          tc "per-byte costs" per_byte_cost;
          tc "wire time" wire_time_known;
          tc "raw rtt analytic" raw_rtt_analytic;
        ] );
    ]
