(* Additional edge-case coverage: Pctx, Graph bookkeeping, Ether manager
   policy details, Host helpers, and more property tests on the
   substrates. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let us = Sim.Stime.us

let mk_ctx payload =
  let engine = Sim.Engine.create () in
  let host =
    Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 9 9 9)
  in
  let dev = Netsim.Host.add_device host (Netsim.Costs.loopback ()) in
  Plexus.Pctx.make dev (Mbuf.ro (Mbuf.of_string payload))

(* ---- Pctx ------------------------------------------------------------- *)

let pctx_cursor () =
  let ctx = mk_ctx "0123456789" in
  Alcotest.(check int) "initial payload" 10 (Plexus.Pctx.payload_len ctx);
  let ctx2 = Plexus.Pctx.advance ctx 4 in
  Alcotest.(check string) "view from cursor" "456789"
    (View.to_string (Plexus.Pctx.view ctx2));
  Alcotest.(check string) "original unchanged" "0123456789"
    (View.to_string (Plexus.Pctx.view ctx))

let pctx_limit () =
  let ctx = Plexus.Pctx.advance (mk_ctx "0123456789") 2 in
  let ctx = Plexus.Pctx.with_limit ctx 5 in
  Alcotest.(check string) "limited view" "23456"
    (View.to_string (Plexus.Pctx.view ctx));
  Alcotest.(check int) "payload_len respects limit" 5
    (Plexus.Pctx.payload_len ctx);
  Alcotest.check_raises "limit beyond packet"
    (Invalid_argument "Pctx.with_limit") (fun () ->
      ignore (Plexus.Pctx.with_limit ctx 100))

let pctx_metadata () =
  let ctx = mk_ctx "x" in
  Alcotest.check_raises "no ip header yet"
    (Invalid_argument "Pctx.ip_exn: no IP header parsed") (fun () ->
      ignore (Plexus.Pctx.ip_exn ctx));
  let h =
    Proto.Ipv4.make ~proto:17 ~src:(Proto.Ipaddr.v 1 2 3 4)
      ~dst:(Proto.Ipaddr.v 5 6 7 8) ~payload_len:1 ()
  in
  let ctx = Plexus.Pctx.with_ip ctx h in
  Alcotest.(check int) "ip attached" 17 (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.proto;
  let ctx = Plexus.Pctx.with_ports ctx ~src_port:9 ~dst_port:10 in
  Alcotest.(check (pair int int)) "ports" (9, 10)
    (ctx.Plexus.Pctx.src_port, ctx.Plexus.Pctx.dst_port);
  let ctx = Plexus.Pctx.with_payload ctx (Mbuf.ro (Mbuf.of_string "fresh")) in
  Alcotest.(check string) "payload swap resets cursor" "fresh"
    (View.to_string (Plexus.Pctx.view ctx))

(* ---- Graph bookkeeping -------------------------------------------------- *)

let graph_bookkeeping () =
  let engine = Sim.Engine.create () in
  let host = Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 0 0 1) in
  let g = Plexus.Graph.create host in
  let n1 = Plexus.Graph.node g "alpha" in
  let n1' = Plexus.Graph.node g "alpha" in
  Alcotest.(check bool) "find-or-create" true (n1 == n1');
  Alcotest.(check (option reject)) "find missing" None
    (Plexus.Graph.find_node g "nope" |> Option.map ignore);
  let _n2 = Plexus.Graph.node g "beta" in
  Plexus.Graph.add_edge g ~parent:n1 ~child:"beta" ~label:"demux";
  Alcotest.(check int) "edge recorded" 1 (List.length (Plexus.Graph.edges g));
  Plexus.Graph.remove_edge g ~parent:"alpha" ~child:"beta";
  Alcotest.(check int) "edge removed" 0 (List.length (Plexus.Graph.edges g));
  Alcotest.(check (list string)) "nodes in creation order" [ "alpha"; "beta" ]
    (Plexus.Graph.nodes g)

(* ---- Ether manager policy --------------------------------------------------- *)

let ether_policy () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let ether = Plexus.Stack.ether p.Experiments.Common.a in
  Alcotest.(check bool) "ethernet is DMA" false
    (Plexus.Ether_mgr.touches_data ether);
  Alcotest.(check int) "mtu" 1500 (Plexus.Ether_mgr.mtu ether);
  (* prio follows the graph's delivery mode *)
  Alcotest.(check bool) "interrupt by default" true
    (Plexus.Ether_mgr.prio ether = Sim.Cpu.Interrupt);
  Plexus.Stack.set_delivery p.Experiments.Common.a Spin.Dispatcher.Thread;
  Alcotest.(check bool) "thread after switch" true
    (Plexus.Ether_mgr.prio ether = Sim.Cpu.Thread);
  (* ATM is PIO *)
  let q = Experiments.Common.plexus_pair (Netsim.Costs.atm ()) in
  Alcotest.(check bool) "atm touches data" true
    (Plexus.Ether_mgr.touches_data (Plexus.Stack.ether q.Experiments.Common.a))

let ether_app_handler_thread_mode () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let a = Plexus.Stack.ether p.Experiments.Common.a in
  let b = Plexus.Stack.ether p.Experiments.Common.b in
  let got = ref 0 in
  (match
     Plexus.Ether_mgr.install_handler b ~owner:"app" ~etype:0x9999
       (fun _ -> incr got)
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "install failed");
  let pkt = Mbuf.of_string "raw payload" in
  Plexus.Ether_mgr.send a (Plexus.Ether_mgr.prio a)
    ~dst:(Plexus.Ether_mgr.mac b) ~etype:0x9999 pkt;
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "delivered" 1 !got

(* ---- Endpoint -------------------------------------------------------------- *)

let endpoint_accessors () =
  let ep =
    Plexus.Endpoint.make ~proto:Plexus.Endpoint.Udp
      ~ip:(Proto.Ipaddr.v 10 0 0 1) ~port:7 ~owner:"me"
  in
  Alcotest.(check int) "port" 7 (Plexus.Endpoint.port ep);
  Alcotest.(check string) "owner" "me" (Plexus.Endpoint.owner ep);
  Alcotest.(check string) "pp" "udp:10.0.0.1:7(me)"
    (Fmt.str "%a" Plexus.Endpoint.pp ep)

(* ---- Stime properties -------------------------------------------------------- *)

let stime_add_sub =
  QCheck.Test.make ~name:"stime add/sub roundtrip"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let ta = Sim.Stime.ns a and tb = Sim.Stime.ns b in
      Sim.Stime.to_ns (Sim.Stime.sub (Sim.Stime.add ta tb) tb) = a)

let stime_scale_mul =
  QCheck.Test.make ~name:"scale by integer = mul"
    QCheck.(pair (int_bound 100_000) (int_bound 50))
    (fun (ns, k) ->
      let t = Sim.Stime.ns ns in
      Sim.Stime.to_ns (Sim.Stime.scale t (float_of_int k))
      = Sim.Stime.to_ns (Sim.Stime.mul t k))

(* ---- Byteq error paths --------------------------------------------------------- *)

let byteq_errors () =
  let q = Proto.Byteq.create () in
  Proto.Byteq.push q "abc";
  Alcotest.check_raises "blit beyond tail" (Invalid_argument "Byteq.blit")
    (fun () -> Proto.Byteq.blit q ~off:1 ~len:3 (View.create 8) ~dst_off:0);
  Alcotest.check_raises "drop beyond length" (Invalid_argument "Byteq.drop")
    (fun () -> Proto.Byteq.drop q 4);
  Proto.Byteq.clear q;
  Alcotest.(check int) "cleared" 0 (Proto.Byteq.length q)

(* ---- Host helpers ---------------------------------------------------------------- *)

let host_utilization_window () =
  let engine = Sim.Engine.create () in
  let host = Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 0 0 1) in
  Sim.Cpu.submit (Netsim.Host.cpu host) Sim.Cpu.Thread ~cost:(us 50) ignore;
  ignore (Sim.Engine.schedule engine ~at:(us 100) ignore);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.02)) "50% busy" 0.5 (Netsim.Host.utilization host);
  Netsim.Host.reset_utilization host;
  ignore (Sim.Engine.schedule engine ~at:(us 200) ignore);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.02)) "idle after reset" 0.0
    (Netsim.Host.utilization host)

(* ---- dispatcher uninstall during raise -------------------------------------------- *)

let uninstall_from_handler () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d "t" in
  let n = ref 0 in
  let un = ref (fun () -> ()) in
  un :=
    Spin.Dispatcher.install ev ~cost:Sim.Stime.zero (fun () ->
        incr n;
        (* a handler removing itself mid-delivery must be safe *)
        !un ());
  Spin.Dispatcher.raise ev ();
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run e;
  Alcotest.(check int) "ran once, then gone" 1 !n

let suite =
  [
    ( "more.pctx",
      [
        tc "cursor" pctx_cursor;
        tc "limit" pctx_limit;
        tc "metadata" pctx_metadata;
      ] );
    ("more.graph", [ tc "bookkeeping" graph_bookkeeping ]);
    ( "more.ether",
      [
        tc "policy and prio" ether_policy;
        tc "app handler delivery" ether_app_handler_thread_mode;
      ] );
    ("more.endpoint", [ tc "accessors and pp" endpoint_accessors ]);
    ("more.stime", [ prop stime_add_sub; prop stime_scale_mul ]);
    ("more.byteq", [ tc "error paths" byteq_errors ]);
    ("more.host", [ tc "utilization window" host_utilization_window ]);
    ("more.dispatcher", [ tc "self-uninstall during raise" uninstall_from_handler ]);
  ]

(* ---- pools and receive rings ------------------------------------------- *)

let pool_accounting () =
  let p = Pool.create ~name:"test" ~capacity:2 () in
  let a = Pool.reserve p and b = Pool.reserve p in
  Alcotest.(check bool) "two reservations fit" true (a && b);
  Alcotest.(check int) "live" 2 (Pool.live p);
  Alcotest.(check bool) "third fails" false (Pool.reserve p);
  Alcotest.(check int) "failure counted" 1 (Pool.failures p);
  Pool.release p;
  Alcotest.(check bool) "after release it fits again" true (Pool.reserve p);
  Alcotest.(check int) "peak high-water" 2 (Pool.peak p);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Pool.create: capacity must be positive") (fun () ->
      ignore (Pool.create ~capacity:0 ()))

let rx_ring_sheds_bursts () =
  let engine = Sim.Engine.create () in
  let a, b =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ())
      ~a:("a", Proto.Ipaddr.v 10 0 0 1)
      ~b:("b", Proto.Ipaddr.v 10 0 0 2)
  in
  let pool = Pool.create ~name:"rx-ring" ~capacity:4 () in
  Netsim.Dev.set_rx_pool b.Netsim.Network.dev pool;
  let got = ref 0 in
  Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ _ -> incr got);
  (* occupy B's CPU so interrupts queue while frames keep arriving *)
  Sim.Cpu.submit
    (Netsim.Host.cpu b.Netsim.Network.host)
    Sim.Cpu.Interrupt ~cost:(Sim.Stime.ms 50) ignore;
  for _ = 1 to 20 do
    Netsim.Dev.transmit a.Netsim.Network.dev (Mbuf.alloc 200)
  done;
  Sim.Engine.run engine;
  let c = Netsim.Dev.counters b.Netsim.Network.dev in
  Alcotest.(check bool)
    (Printf.sprintf "ring drops under burst (%d drops, %d delivered)"
       c.Netsim.Dev.rx_drops !got)
    true
    (c.Netsim.Dev.rx_drops > 0 && !got >= 4);
  Alcotest.(check int) "delivered + dropped = offered" 20
    (!got + c.Netsim.Dev.rx_drops);
  Alcotest.(check int) "ring drained afterwards" 0 (Pool.live pool)

(* ---- determinism --------------------------------------------------------- *)

let simulation_deterministic () =
  let run () =
    Experiments.Common.udp_echo_plexus ~iters:20 (Netsim.Costs.ethernet ())
  in
  let x = run () and y = run () in
  Alcotest.(check (float 0.0)) "bit-identical across runs" x y

let suite =
  suite
  @ [
      ( "more.pool",
        [ tc "accounting" pool_accounting; tc "rx ring sheds bursts" rx_ring_sheds_bursts ] );
      ("more.determinism", [ tc "identical runs" simulation_deterministic ]);
    ]
