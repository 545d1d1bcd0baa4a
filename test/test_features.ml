(* Tests for the extension features: ICMP port unreachable, UDP
   multicast semantics, the HTTP extension, TCP RTT estimation and
   Nagle. *)

let tc name f = Alcotest.test_case name `Quick f

let ip_a = Experiments.Common.ip_a
let ip_b = Experiments.Common.ip_b

let pair () = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ())

let bind_exn udp ~owner ~port =
  match Plexus.Udp_mgr.bind udp ~owner ~port with
  | Ok ep -> ep
  | Error _ -> Alcotest.fail "bind failed"

(* ---- ICMP port unreachable -------------------------------------------- *)

let udp_port_unreachable_plexus () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 4444) "anyone there?";
  Sim.Engine.run p.Experiments.Common.engine;
  let cb = Plexus.Udp_mgr.counters (Plexus.Stack.udp p.Experiments.Common.b) in
  Alcotest.(check int) "no_port counted" 1 cb.Plexus.Udp_mgr.no_port;
  Alcotest.(check int) "unreachable generated" 1
    cb.Plexus.Udp_mgr.unreachable_sent;
  Alcotest.(check int) "sender was notified" 1
    (Plexus.Icmp_mgr.unreachables_received
       (Plexus.Stack.icmp p.Experiments.Common.a))

let udp_port_unreachable_du () =
  let p = Experiments.Common.du_pair (Netsim.Costs.ethernet ()) in
  let client =
    match Osmodel.Du_stack.udp_bind p.Experiments.Common.dua ~port:5000 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  Osmodel.Du_stack.udp_sendto p.Experiments.Common.dua client ~dst:(ip_b, 4444)
    "anyone?";
  Sim.Engine.run p.Experiments.Common.du_engine;
  Alcotest.(check int) "no_port counted" 1
    (Osmodel.Du_stack.counters p.Experiments.Common.dub).Osmodel.Du_stack.no_port

(* ---- UDP multicast semantics ------------------------------------------- *)

let multicast_delivers_to_all () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let counts = Array.make 3 0 in
  for i = 0 to 2 do
    let ep = bind_exn udp_b ~owner:"sink" ~port:(7000 + i) in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
          if View.to_string (Plexus.Pctx.view ctx) = "frame" then
            counts.(i) <- counts.(i) + 1)
    in
    ()
  done;
  let src = bind_exn udp_a ~owner:"video" ~port:9000 in
  Plexus.Udp_mgr.send_multi udp_a src
    ~dsts:[ (ip_b, 7000); (ip_b, 7001); (ip_b, 7002) ]
    "frame";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check (array int)) "every destination got it" [| 1; 1; 1 |] counts

let multicast_cheaper_than_unicast () =
  (* With 8 destinations and a large frame on a DMA device, the single
     checksum pass of send_multi must beat 8 independent sends. *)
  let cost_of send =
    let p = Experiments.Common.plexus_pair (Netsim.Costs.t3 ()) in
    let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
    let src = bind_exn udp_a ~owner:"video" ~port:9000 in
    let dsts = List.init 8 (fun i -> (ip_b, 7000 + i)) in
    let cpu = Netsim.Host.cpu (Plexus.Stack.host p.Experiments.Common.a) in
    send udp_a src dsts (String.make 8000 'f');
    Sim.Engine.run p.Experiments.Common.engine;
    Sim.Stime.to_us (Sim.Cpu.busy_time cpu)
  in
  let multi =
    cost_of (fun udp src dsts data -> Plexus.Udp_mgr.send_multi udp src ~dsts data)
  in
  let uni =
    cost_of (fun udp src dsts data ->
        List.iter (fun dst -> Plexus.Udp_mgr.send udp src ~dst data) dsts)
  in
  Alcotest.(check bool)
    (Printf.sprintf "multicast %.0fus < unicast %.0fus by ~7 checksum passes"
       multi uni)
    true
    (uni -. multi > 7. *. 8000. *. 0.020 && multi < uni)

(* ---- HTTP as a linked extension ----------------------------------------- *)

let http_extension_serves_and_unlinks () =
  let p = pair () in
  let t, ext = Apps.Http_server.extension ~port:80 ~name:"httpd" () in
  Apps.Http_server.add_route t "/hello" "world\n";
  let linked =
    match Plexus.Stack.link p.Experiments.Common.b ext with
    | Ok l -> l
    | Error f -> Alcotest.failf "link failed: %a" Spin.Extension.pp_failure f
  in
  let result = ref None in
  Apps.Http_client.get p.Experiments.Common.a ~dst:(ip_b, 80) ~path:"/hello"
    (fun r -> result := r);
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 150);
  (match !result with
  | Some r ->
      Alcotest.(check int) "status" 200 r.Apps.Http_client.status;
      Alcotest.(check string) "body" "world\n" r.Apps.Http_client.body
  | None -> Alcotest.fail "no response while linked");
  Alcotest.(check int) "request served" 1 (Apps.Http_server.requests t);
  (* unlink tears the listener down; a new request goes unanswered *)
  Spin.Linker.unlink linked;
  let result2 = ref None in
  Apps.Http_client.get p.Experiments.Common.a ~dst:(ip_b, 80) ~path:"/hello"
    (fun r -> result2 := r);
  Sim.Engine.run p.Experiments.Common.engine
    ~until:(Sim.Stime.add (Sim.Engine.now p.Experiments.Common.engine) (Sim.Stime.s 2));
  Alcotest.(check bool) "no response after unlink" true (!result2 = None);
  Alcotest.(check int) "no extra request" 1 (Apps.Http_server.requests t)

let http_extension_port_conflict_fails_link () =
  let p = pair () in
  let _t1, ext1 = Apps.Http_server.extension ~port:80 ~name:"httpd1" () in
  (match Plexus.Stack.link p.Experiments.Common.b ext1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first link failed");
  let _t2, ext2 = Apps.Http_server.extension ~port:80 ~name:"httpd2" () in
  match Plexus.Stack.link p.Experiments.Common.b ext2 with
  | Error (Spin.Extension.Init_raised _) -> ()
  | Ok _ -> Alcotest.fail "conflicting listener linked"
  | Error f -> Alcotest.failf "wrong failure: %a" Spin.Extension.pp_failure f

(* ---- TCP RTT estimation and Nagle --------------------------------------- *)

let tcp_rtt_estimation () =
  let p = pair () in
  let got = ref 0 in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
       ~owner:"sink" ~port:80
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun d -> got := !got + View.length d))
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
      Plexus.Tcp_mgr.on_established conn (fun () ->
          Plexus.Tcp_mgr.send conn (String.make 50_000 's'));
      Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 30);
      Alcotest.(check int) "delivered" 50_000 !got;
      let tcp = Plexus.Tcp_mgr.tcp conn in
      Alcotest.(check bool) "samples collected" true
        (Proto.Tcp.rtt_samples tcp > 3);
      let srtt = Sim.Stime.to_us (Proto.Tcp.srtt tcp) in
      (* per-packet RTT on 10 Mb/s Ethernet with 1460B data + ack: a few ms *)
      Alcotest.(check bool)
        (Printf.sprintf "srtt plausible (%.0fus)" srtt)
        true
        (srtt > 500. && srtt < 100_000.)

(* Nagle: with the option on, many 1-byte sends while data is in flight
   coalesce into far fewer segments. *)
let tcp_nagle_coalesces () =
  let segs_with nagle =
    let cfg = Proto.Tcp.default_config ~nagle () in
    let p = pair () in
    let got = ref 0 in
    (match
       Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
         ~owner:"sink" ~port:80
         ~on_accept:(fun conn ->
           Plexus.Tcp_mgr.on_receive conn (fun d -> got := !got + View.length d))
         ()
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "listen failed");
    match
      Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Experiments.Common.a)
        ~owner:"src" ~dst:(ip_b, 80) ~cfg ()
    with
    | Error _ -> Alcotest.fail "connect failed"
    | Ok conn ->
        let engine = p.Experiments.Common.engine in
        Plexus.Tcp_mgr.on_established conn (fun () ->
            (* 50 tiny writes, 100us apart *)
            for i = 0 to 49 do
              ignore
                (Sim.Engine.schedule_in engine
                   ~delay:(Sim.Stime.us (100 * i))
                   (fun () -> Plexus.Tcp_mgr.send conn "x"))
            done);
        Sim.Engine.run engine ~until:(Sim.Stime.s 30);
        Alcotest.(check int) "all bytes arrive" 50 !got;
        (Proto.Tcp.counters (Plexus.Tcp_mgr.tcp conn)).Proto.Tcp.segs_out
  in
  let without = segs_with false in
  let with_nagle = segs_with true in
  Alcotest.(check bool)
    (Printf.sprintf "nagle coalesces (%d -> %d data segments)" without
       with_nagle)
    true
    (with_nagle < without - 10)

let suite =
  [
    ( "features.icmp_unreachable",
      [
        tc "plexus generates and counts" udp_port_unreachable_plexus;
        tc "digital unix counts" udp_port_unreachable_du;
      ] );
    ( "features.multicast",
      [
        tc "delivers to every destination" multicast_delivers_to_all;
        tc "single checksum pass" multicast_cheaper_than_unicast;
      ] );
    ( "features.http_extension",
      [
        tc "serves while linked, dead after unlink" http_extension_serves_and_unlinks;
        tc "port conflict fails the link cleanly" http_extension_port_conflict_fails_link;
      ] );
    ( "features.tcp",
      [
        tc "RTT estimation" tcp_rtt_estimation;
        tc "nagle coalesces small writes" tcp_nagle_coalesces;
      ] );
  ]

(* ---- fault containment ---------------------------------------------------- *)

let handler_fault_contained () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"buggy" ~port:7 in
  let healthy = bind_exn udp_b ~owner:"healthy" ~port:8 in
  let healthy_got = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> failwith "extension bug")
  in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b healthy (fun _ -> incr healthy_got)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "crash me";
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 8) "still alive?";
  Sim.Engine.run p.Experiments.Common.engine;
  let disp =
    Spin.Kernel.dispatcher
      (Netsim.Host.kernel (Plexus.Stack.host p.Experiments.Common.b))
  in
  Alcotest.(check int) "fault counted" 1 (Spin.Dispatcher.faults disp);
  Alcotest.(check int) "other handlers unaffected" 1 !healthy_got;
  (* the faulting handler was uninstalled: a second packet to port 7
     does not fault again *)
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "again";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "no repeat fault" 1 (Spin.Dispatcher.faults disp)

let guard_fault_contained () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d "t" in
  let ok = ref 0 in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~guard:(fun _ -> failwith "bad guard")
      ~cost:Sim.Stime.zero (fun _ -> ())
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:Sim.Stime.zero (fun _ -> incr ok)
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  Alcotest.(check int) "fault counted" 1 (Spin.Dispatcher.faults d);
  Alcotest.(check int) "healthy handler ran" 1 !ok;
  Alcotest.(check int) "faulting guard removed" 1
    (Spin.Dispatcher.handler_count ev)

(* ---- diagnostics and ablations ------------------------------------------- *)

let stack_report () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> ())
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "x";
  Sim.Engine.run p.Experiments.Common.engine;
  let r = Plexus.Stack.report p.Experiments.Common.b in
  Alcotest.(check bool) "mentions udp counters" true
    (Proto.Str_find.find_sub r "udp: rx=1 delivered=1" >= 0);
  Alcotest.(check bool) "mentions dispatcher" true
    (Proto.Str_find.find_sub r "dispatcher:" >= 0)

let dispatch_sensitivity_shape () =
  match Experiments.Ablate.dispatch_sensitivity ~factors:[ 1; 100 ] ~iters:20 () with
  | [ base; inflated ] ->
      Alcotest.(check bool) "x100 dispatch visibly slower" true
        (inflated.Experiments.Ablate.rtt_us > base.Experiments.Ablate.rtt_us +. 100.);
      Alcotest.(check bool) "but not catastrophic (<3x)" true
        (inflated.Experiments.Ablate.rtt_us < 3. *. base.Experiments.Ablate.rtt_us)
  | _ -> Alcotest.fail "wrong shape"

let multicast_video_ablation () =
  let uni, multi = Experiments.Ablate.video_multicast_util ~streams:15 () in
  Alcotest.(check bool)
    (Printf.sprintf "multicast halves server CPU (%.1f%% -> %.1f%%)"
       (100. *. uni) (100. *. multi))
    true
    (multi < 0.6 *. uni)

let suite =
  suite
  @ [
      ( "features.safety",
        [
          tc "handler fault contained" handler_fault_contained;
          tc "guard fault contained" guard_fault_contained;
        ] );
      ( "features.diagnostics",
        [
          tc "stack report" stack_report;
          Alcotest.test_case "dispatch sensitivity" `Slow dispatch_sensitivity_shape;
          Alcotest.test_case "multicast video ablation" `Slow multicast_video_ablation;
        ] );
    ]

(* ---- packet filters -------------------------------------------------------- *)

let mk_ctx payload =
  let engine = Sim.Engine.create () in
  let host =
    Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 9 9 9)
  in
  let dev = Netsim.Host.add_device host (Netsim.Costs.loopback ()) in
  Plexus.Pctx.make dev (Mbuf.ro (Mbuf.of_string payload))

let filter_eval_fields () =
  let ctx = mk_ctx "\x01\x02\x03\x04" in
  let open Plexus.Filter in
  Alcotest.(check bool) "u8" true (eval (Eq (U8 (Cur, 0), 1)) ctx);
  Alcotest.(check bool) "u16" true (eval (Eq (U16 (Cur, 1), 0x0203)) ctx);
  Alcotest.(check bool) "u32" true (eval (Eq (U32 (Abs, 0), 0x01020304)) ctx);
  Alcotest.(check bool) "payload_len" true (eval (Eq (Payload_len, 4)) ctx);
  Alcotest.(check bool) "lt" true (eval (Lt (U8 (Cur, 0), 2)) ctx);
  Alcotest.(check bool) "gt" false (eval (Gt (U8 (Cur, 0), 2)) ctx);
  Alcotest.(check bool) "mask" true (eval (Mask (U8 (Cur, 1), 0x0f, 2)) ctx)

let filter_boolean_ops () =
  let ctx = mk_ctx "\x01" in
  let open Plexus.Filter in
  let t = Eq (U8 (Cur, 0), 1) and f = Eq (U8 (Cur, 0), 9) in
  Alcotest.(check bool) "and" true (eval (And (t, t)) ctx);
  Alcotest.(check bool) "and false" false (eval (And (t, f)) ctx);
  Alcotest.(check bool) "or" true (eval (Or (f, t)) ctx);
  Alcotest.(check bool) "not" true (eval (Not f) ctx);
  Alcotest.(check bool) "true/false" true
    (eval True ctx && not (eval False ctx))

let filter_unavailable_fields () =
  let ctx = mk_ctx "\x01" in
  let open Plexus.Filter in
  (* short packet, unparsed headers, unset ports: comparisons are false *)
  Alcotest.(check bool) "oob read" false (eval (Eq (U32 (Cur, 0), 0)) ctx);
  Alcotest.(check bool) "no ip header" false (eval (ip_proto_is 17) ctx);
  Alcotest.(check bool) "no ports" false (eval (dst_port_is 7) ctx);
  (* ...but their negation is then true, which a careful filter can use *)
  Alcotest.(check bool) "not of unavailable" true (eval (Not (dst_port_is 7)) ctx)

let filter_costs () =
  let open Plexus.Filter in
  let f = And (Eq (U8 (Cur, 0), 1), Or (True, Not False)) in
  Alcotest.(check int) "node count" 6 (nodes f);
  Alcotest.(check int) "cost scales with nodes" 900
    (Sim.Stime.to_ns (eval_cost f));
  Alcotest.(check bool) "pp renders" true
    (String.length (Fmt.str "%a" pp f) > 10)

let filter_demux_end_to_end () =
  let p = pair () in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let server = bind_exn udp_b ~owner:"filtered" ~port:7 in
  let big = ref 0 and all = ref 0 in
  (* two handlers on the same endpoint: one interpreted filter accepting
     only payloads > 100 bytes, one unfiltered *)
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv_filtered udp_b server
      Plexus.Filter.(Gt (Payload_len, 100))
      (fun _ -> incr big)
  in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> incr all)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "small";
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) (String.make 300 'L');
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "filter matched only the large datagram" 1 !big;
  Alcotest.(check int) "plain handler saw both" 2 !all

let filter_ablation_shape () =
  let r = Experiments.Ablate.filter_vs_guard ~iters:20 () in
  Alcotest.(check bool)
    (Printf.sprintf "interpretation costs a little (%.1f vs %.1f)"
       r.Experiments.Ablate.interpreted_rtt r.Experiments.Ablate.native_rtt)
    true
    (r.Experiments.Ablate.interpreted_rtt > r.Experiments.Ablate.native_rtt
    && r.Experiments.Ablate.interpreted_rtt
       < r.Experiments.Ablate.native_rtt +. 20.)

let suite =
  suite
  @ [
      ( "features.filter",
        [
          tc "field evaluation" filter_eval_fields;
          tc "boolean operators" filter_boolean_ops;
          tc "unavailable fields" filter_unavailable_fields;
          tc "cost model and pp" filter_costs;
          tc "end-to-end demux" filter_demux_end_to_end;
          Alcotest.test_case "interpreted vs compiled" `Slow filter_ablation_shape;
        ] );
    ]

(* ---- overload / livelock ----------------------------------------------------- *)

let livelock_shape () =
  let low =
    Experiments.Livelock.run_one ~mode:Spin.Dispatcher.Interrupt
      ~offered_pps:1_000 ()
  in
  let high =
    Experiments.Livelock.run_one ~mode:Spin.Dispatcher.Interrupt
      ~offered_pps:12_000 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "interrupt mode livelocks under overload (%.0f -> %.0f)" low high)
    true
    (low > 5_000. && high < 100.)

(* ---- UDP multiple implementations ---------------------------------------------- *)

let udp_multiple_implementations () =
  let p = pair () in
  let b = p.Experiments.Common.b in
  let udp_b = Plexus.Stack.udp b in
  Plexus.Udp_mgr.exclude_ports udp_b [ 9999 ];
  (* UDP-special claims exactly the ceded port at the IP level *)
  let special = ref 0 in
  let ip_node = Plexus.Ip_mgr.node (Plexus.Stack.ip b) in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install
      (Plexus.Graph.recv_event ip_node)
      ~guard:(fun ctx ->
        (match ctx.Plexus.Pctx.ip with
        | Some h -> h.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
        | None -> false)
        &&
        let v = Plexus.Pctx.view ctx in
        View.length v >= 4 && View.get_u16 v 2 = 9999)
      ~cost:(Sim.Stime.us 3)
      (fun _ -> incr special)
  in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 9999) "to the special impl";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "UDP-special got it" 1 !special;
  Alcotest.(check int) "UDP-standard ignored it" 0
    (Plexus.Udp_mgr.counters udp_b).Plexus.Udp_mgr.rx

(* ---- forwarder TTL ---------------------------------------------------------------- *)

let forwarder_ttl_expiry () =
  let engine = Sim.Engine.create () in
  let c, (m1, _m2), _s =
    Netsim.Network.line3 engine (Netsim.Costs.ethernet ())
      ~client:("client", Experiments.Common.ip_client)
      ~middle:("middle", Experiments.Common.ip_middle)
      ~server:("server", Experiments.Common.ip_server)
  in
  let middle =
    Plexus.Stack.build
      ~subnets:[ (Experiments.Common.net1, 24); (Experiments.Common.net2, 24) ]
      m1.Netsim.Network.host
  in
  Plexus.Arp_mgr.prime
    (List.nth (Plexus.Stack.arps middle) 0)
    Experiments.Common.ip_client
    (Netsim.Dev.mac c.Netsim.Network.dev);
  let fwd =
    Apps.Forwarder.create middle ~listen_port:5353
      ~backend:(Experiments.Common.ip_server, 5353)
  in
  (* craft a UDP datagram with TTL 1 straight onto the client's device *)
  let pkt = Mbuf.of_string "dying" in
  Proto.Udp.encapsulate pkt ~src:Experiments.Common.ip_client
    ~dst:Experiments.Common.ip_middle ~src_port:6000 ~dst_port:5353;
  Proto.Ipv4.encapsulate pkt
    (Proto.Ipv4.make ~ttl:1 ~proto:Proto.Ipv4.proto_udp
       ~src:Experiments.Common.ip_client ~dst:Experiments.Common.ip_middle
       ~payload_len:(Mbuf.length pkt) ());
  Proto.Ether.encapsulate pkt
    {
      Proto.Ether.dst = Netsim.Dev.mac m1.Netsim.Network.dev;
      src = Netsim.Dev.mac c.Netsim.Network.dev;
      etype = Proto.Ether.etype_ip;
    };
  Netsim.Dev.transmit c.Netsim.Network.dev pkt;
  Sim.Engine.run engine ~until:(Sim.Stime.s 2);
  Alcotest.(check int) "dropped on ttl expiry" 1 (Apps.Forwarder.ttl_drops fwd);
  Alcotest.(check int) "nothing forwarded" 0 (Apps.Forwarder.forwarded fwd)

let motivation_shapes () =
  (match Experiments.Motivate.wan_windows ~windows:[ 8_192; 65_535 ] () with
  | [ small; big ] ->
      Alcotest.(check bool)
        (Printf.sprintf "window-limited WAN transfer (%.2f vs %.2f Mb/s)"
           small.Experiments.Motivate.mbps big.Experiments.Motivate.mbps)
        true
        (big.Experiments.Motivate.mbps > 4. *. small.Experiments.Motivate.mbps);
      (* each is bounded by its window/RTT ceiling *)
      Alcotest.(check bool) "below ceiling" true
        (small.Experiments.Motivate.mbps <= 8_192. *. 8. /. 60_000. +. 0.1)
  | _ -> Alcotest.fail "wrong shape");
  let t = Experiments.Motivate.transactions ~n:10 () in
  Alcotest.(check bool)
    (Printf.sprintf "tuned TCP beats stock on transactions (%.0f vs %.0f us)"
       t.Experiments.Motivate.tuned_us t.Experiments.Motivate.stock_us)
    true
    (t.Experiments.Motivate.tuned_us < 0.8 *. t.Experiments.Motivate.stock_us)

let suite =
  suite
  @ [
      ( "features.motivation",
        [ Alcotest.test_case "section 1.1 claims" `Slow motivation_shapes ] );
      ( "features.overload",
        [ Alcotest.test_case "interrupt-mode livelock" `Slow livelock_shape ] );
      ( "features.multi_impl",
        [ tc "UDP implementation exclusion" udp_multiple_implementations ] );
      ("features.forwarder_ttl", [ tc "ttl expiry" forwarder_ttl_expiry ]);
    ]

(* ---- user-level protocol library (section 6 related work) ------------------- *)

let ulib_end_to_end () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ())
      ~a:("a", Experiments.Common.ip_a) ~b:("b", Experiments.Common.ip_b)
  in
  let ua = Osmodel.Ulib.create ea.Netsim.Network.host in
  let ub = Osmodel.Ulib.create eb.Netsim.Network.host in
  Osmodel.Ulib.prime_arp ua Experiments.Common.ip_b
    (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Ulib.prime_arp ub Experiments.Common.ip_a
    (Netsim.Dev.mac ea.Netsim.Network.dev);
  let server =
    match Osmodel.Ulib.udp_bind ub ~port:7 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  let got = ref [] in
  Osmodel.Ulib.udp_set_recv server (fun ~src data -> got := (snd src, data) :: !got);
  let client =
    match Osmodel.Ulib.udp_bind ua ~port:5001 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind failed"
  in
  Osmodel.Ulib.udp_sendto ua client ~dst:(ip_b, 7) "user level!";
  (* a large datagram exercises user-level reassembly too *)
  Osmodel.Ulib.udp_sendto ua client ~dst:(ip_b, 7) (String.make 4000 'u');
  Sim.Engine.run engine;
  (match List.rev !got with
  | [ (5001, "user level!"); (5001, big) ] ->
      Alcotest.(check int) "reassembled at user level" 4000 (String.length big)
  | _ -> Alcotest.fail "wrong deliveries");
  Alcotest.(check int) "counters" 2 (Osmodel.Ulib.counters ub).Osmodel.Ulib.delivered

let ulib_filter_rejects_others () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ())
      ~a:("a", Experiments.Common.ip_a) ~b:("b", Experiments.Common.ip_b)
  in
  let _ua = Osmodel.Ulib.create ea.Netsim.Network.host in
  let ub = Osmodel.Ulib.create eb.Netsim.Network.host in
  (* a frame of an unknown EtherType never crosses to user space *)
  let junk = Mbuf.of_string "junk" in
  Proto.Ether.encapsulate junk
    {
      Proto.Ether.dst = Netsim.Dev.mac eb.Netsim.Network.dev;
      src = Netsim.Dev.mac ea.Netsim.Network.dev;
      etype = 0x9999;
    };
  Netsim.Dev.transmit ea.Netsim.Network.dev junk;
  Sim.Engine.run engine;
  Alcotest.(check int) "filtered in the kernel" 1
    (Osmodel.Ulib.counters ub).Osmodel.Ulib.filtered_out

let fig5_user_library_ordering () =
  let params = Netsim.Costs.ethernet () in
  let plexus = Experiments.Common.udp_echo_plexus ~iters:30 params in
  let ulib = Experiments.Common.udp_echo_ulib ~iters:30 params in
  let du = Experiments.Common.udp_echo_du ~iters:30 params in
  Alcotest.(check bool)
    (Printf.sprintf "plexus (%.0f) well below user-lib (%.0f)" plexus ulib)
    true
    (plexus < 0.8 *. ulib);
  Alcotest.(check bool)
    (Printf.sprintf "user-lib (%.0f) in DU's neighbourhood (%.0f)" ulib du)
    true
    (ulib > 0.7 *. du && ulib < 1.3 *. du)

(* ---- ARP retry/give-up --------------------------------------------------------- *)

let arp_gives_up_on_dead_host () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ())
      ~a:("a", Experiments.Common.ip_a) ~b:("b", Experiments.Common.ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  (* B never answers: no stack is built on it *)
  Netsim.Dev.set_rx eb.Netsim.Network.dev (fun _ _ -> ());
  let udp_a = Plexus.Stack.udp a in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) "anyone?";
  Sim.Engine.run engine ~until:(Sim.Stime.s 30);
  let arp = Plexus.Stack.arp a in
  Alcotest.(check bool) "request retransmitted" true
    (Plexus.Arp_mgr.requests_sent arp >= 3);
  Alcotest.(check int) "resolution abandoned" 1
    (Plexus.Arp_mgr.resolution_failures arp)

let suite =
  suite
  @ [
      ( "features.user_library",
        [
          tc "end to end (with reassembly)" ulib_end_to_end;
          tc "kernel filter rejects foreign frames" ulib_filter_rejects_others;
          Alcotest.test_case "figure-5 ordering" `Slow fig5_user_library_ordering;
        ] );
      ("features.arp_retry", [ tc "give-up on dead host" arp_gives_up_on_dead_host ]);
    ]

(* ---- blast vs TCP on a lossy link --------------------------------------- *)

let blast_beats_tcp_under_loss () =
  let r = Experiments.Motivate.blast_vs_tcp ~loss:0.02 ~bytes:200_000 () in
  Alcotest.(check bool) "both complete" true
    (not (Float.is_nan r.Experiments.Motivate.tcp_ms)
    && not (Float.is_nan r.Experiments.Motivate.blast_ms));
  Alcotest.(check bool)
    (Printf.sprintf "blast at least 2x faster (%.0f vs %.0f ms)"
       r.Experiments.Motivate.blast_ms r.Experiments.Motivate.tcp_ms)
    true
    (r.Experiments.Motivate.blast_ms *. 2. < r.Experiments.Motivate.tcp_ms)

let suite =
  suite
  @ [
      ( "features.blast_vs_tcp",
        [ Alcotest.test_case "ALF wins under loss" `Slow blast_beats_tcp_under_loss ] );
    ]
