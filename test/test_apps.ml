(* Tests for the application-specific protocols of paper section 5 (and
   the active messages of section 3.3). *)

let tc name f = Alcotest.test_case name `Quick f

let ip_b = Experiments.Common.ip_b

let pair () = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ())

(* ---- active messages ------------------------------------------------- *)

let am_roundtrip () =
  let p = pair () in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  let bctx, bext =
    Apps.Active_messages.echo_extension ~name:"echo"
      ~reply_cost:(Sim.Stime.us 2) ()
  in
  (match Plexus.Stack.link b bext with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "link: %a" Spin.Extension.pp_failure f);
  let got = ref [] in
  let actx, aext =
    Apps.Active_messages.extension ~name:"ping"
      ~handlers:(fun _ idx ~src:_ payload ->
        if idx = 1 then
          [
            Spin.Ephemeral.work ~label:"record" ~cost:(Sim.Stime.us 1)
              (fun () -> got := payload :: !got);
          ]
        else Spin.Ephemeral.nothing)
      ()
  in
  (match Plexus.Stack.link a aext with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "link: %a" Spin.Extension.pp_failure f);
  let dst = Plexus.Ether_mgr.mac (Plexus.Stack.ether b) in
  Apps.Active_messages.send actx ~dst ~handler:0 "marco";
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check (list string)) "echoed payload" [ "marco" ] !got;
  Alcotest.(check int) "responder counted" 1 (Apps.Active_messages.received bctx)

let am_send_fails_when_unlinked () =
  let ctx, _ext =
    Apps.Active_messages.extension ~name:"x"
      ~handlers:(fun _ _ ~src:_ _ -> Spin.Ephemeral.nothing)
      ()
  in
  match
    Apps.Active_messages.send ctx ~dst:(Proto.Ether.Mac.of_int 1) ~handler:0 "y"
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "send worked without linking"

let am_budget_termination () =
  let r = Experiments.Micro.budget_termination ~messages:10 ~actions:6
      ~action_cost:(Sim.Stime.us 5) ~budget:(Sim.Stime.us 12) ()
  in
  Alcotest.(check int) "every handler terminated" 10
    r.Experiments.Micro.terminations;
  Alcotest.(check int) "exactly the affordable prefix committed" 20
    r.Experiments.Micro.committed_actions

(* ---- video ------------------------------------------------------------ *)

let video_server_paces_frames () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let env =
    {
      Apps.Video_server.engine;
      read_frame = (fun ~len k -> k (String.make len 'f'));
      send = (fun ~dst:_ data -> sent := String.length data :: !sent);
    }
  in
  let server = Apps.Video_server.create env ~fps:30 ~frame_len:1000 in
  Apps.Video_server.add_stream server (ip_b, 9001);
  Apps.Video_server.add_stream server (ip_b, 9002);
  Apps.Video_server.start ~until:(Sim.Stime.s 1) server;
  Sim.Engine.run engine ~until:(Sim.Stime.s 1);
  (* 2 streams * 30 fps * 1 second, +-1 for stagger boundaries *)
  Alcotest.(check bool)
    (Printf.sprintf "about 60 frames (%d)" (List.length !sent))
    true
    (abs (List.length !sent - 60) <= 2);
  Alcotest.(check bool) "frame sizes" true (List.for_all (( = ) 1000) !sent);
  Alcotest.(check int) "counter matches" (List.length !sent)
    (Apps.Video_server.frames_sent server)

let video_end_to_end_plexus () =
  let p = pair () in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  let host_a = Plexus.Stack.host a in
  let disk =
    Netsim.Disk.create p.Experiments.Common.engine
      ~cpu:(Netsim.Host.cpu host_a) ~costs:(Netsim.Host.costs host_a)
  in
  let udp = Plexus.Stack.udp a in
  let ep =
    match Plexus.Udp_mgr.bind udp ~owner:"video" ~port:9000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let env =
    {
      Apps.Video_server.engine = p.Experiments.Common.engine;
      read_frame = (fun ~len k -> Netsim.Disk.read disk ~len k);
      send = (fun ~dst data -> Plexus.Udp_mgr.send udp ep ~dst data);
    }
  in
  let server = Apps.Video_server.create env ~fps:30 ~frame_len:1400 in
  Apps.Video_server.add_stream server (ip_b, 9001);
  let client = Apps.Video_client.on_plexus ~fps:30 b ~port:9001 in
  Apps.Video_server.start ~until:(Sim.Stime.ms 500) server;
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 1);
  Alcotest.(check bool)
    (Printf.sprintf "frames received (%d)" (Apps.Video_client.frames_received client))
    true
    (Apps.Video_client.frames_received client >= 14);
  Alcotest.(check int) "all received frames displayed"
    (Apps.Video_client.frames_received client)
    (Apps.Video_client.frames_displayed client);
  (* decompression doubles the bytes hitting the framebuffer *)
  Alcotest.(check int) "fb bytes = expansion * rx bytes"
    (Apps.Video_client.bytes_received client * Apps.Codec.expansion_factor)
    (Netsim.Framebuffer.bytes_written (Apps.Video_client.framebuffer client));
  (* one stream on an idle host: every frame makes its deadline and the
     inter-arrival times hover around the 33ms period *)
  Alcotest.(check int) "no deadline misses" 0
    (Apps.Video_client.deadline_misses client);
  let gap_ms = Apps.Video_client.jitter client /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "inter-arrival ~33ms (%.1fms)" gap_ms)
    true
    (abs_float (gap_ms -. 33.3) < 3.)

(* ---- forwarder ---------------------------------------------------------- *)

(* client -- middle -- server, ARP primed on both segments. *)
let nat_line () =
  let engine = Sim.Engine.create () in
  let c, (m1, m2), s =
    Netsim.Network.line3 engine (Netsim.Costs.ethernet ())
      ~client:("client", Experiments.Common.ip_client)
      ~middle:("middle", Experiments.Common.ip_middle)
      ~server:("server", Experiments.Common.ip_server)
  in
  let client = Plexus.Stack.build c.Netsim.Network.host in
  let middle =
    Plexus.Stack.build
      ~subnets:[ (Experiments.Common.net1, 24); (Experiments.Common.net2, 24) ]
      m1.Netsim.Network.host
  in
  let server = Plexus.Stack.build s.Netsim.Network.host in
  Plexus.Arp_mgr.prime (Plexus.Stack.arp client) Experiments.Common.ip_middle
    (Netsim.Dev.mac m1.Netsim.Network.dev);
  Plexus.Arp_mgr.prime
    (List.nth (Plexus.Stack.arps middle) 0)
    Experiments.Common.ip_client
    (Netsim.Dev.mac c.Netsim.Network.dev);
  Plexus.Arp_mgr.prime
    (List.nth (Plexus.Stack.arps middle) 1)
    Experiments.Common.ip_server
    (Netsim.Dev.mac s.Netsim.Network.dev);
  Plexus.Arp_mgr.prime (Plexus.Stack.arp server) Experiments.Common.ip_middle
    (Netsim.Dev.mac m2.Netsim.Network.dev);
  (engine, client, middle, server)

let forwarder_udp_redirect () =
  (* UDP datagrams to the forwarded port are redirected to the backend,
     source preserved at the transport level (NAT at the middle). *)
  let engine, client, middle, server = nat_line () in
  let fwd =
    Apps.Forwarder.create middle ~listen_port:5353
      ~backend:(Experiments.Common.ip_server, 5353)
  in
  let got = ref [] in
  let udp_s = Plexus.Stack.udp server in
  let ep_s =
    match Plexus.Udp_mgr.bind udp_s ~owner:"backend" ~port:5353 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_s ep_s (fun ctx ->
        got := View.to_string (Plexus.Pctx.view ctx) :: !got;
        (* reply to the (rewritten) source: travels back via the middle *)
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Plexus.Udp_mgr.send udp_s ep_s ~dst:(src, ctx.Plexus.Pctx.src_port)
          "backend-reply")
  in
  let udp_c = Plexus.Stack.udp client in
  let ep_c =
    match Plexus.Udp_mgr.bind udp_c ~owner:"client" ~port:6000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let reply = ref "" in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_c ep_c (fun ctx ->
        reply := View.to_string (Plexus.Pctx.view ctx))
  in
  Plexus.Udp_mgr.send udp_c ep_c ~dst:(Experiments.Common.ip_middle, 5353)
    "to-the-service";
  Sim.Engine.run engine ~until:(Sim.Stime.s 5);
  Alcotest.(check (list string)) "backend received" [ "to-the-service" ] !got;
  Alcotest.(check string) "reply routed back through the middle"
    "backend-reply" !reply;
  Alcotest.(check int) "forwarded" 1 (Apps.Forwarder.forwarded fwd);
  Alcotest.(check int) "returned" 1 (Apps.Forwarder.returned fwd);
  (* runtime adaptation: remove the forwarder, packets stop flowing *)
  Apps.Forwarder.remove fwd;
  Plexus.Udp_mgr.send udp_c ep_c ~dst:(Experiments.Common.ip_middle, 5353)
    "after-removal";
  Sim.Engine.run engine ~until:(Sim.Stime.s 10);
  Alcotest.(check int) "no forwarding after removal" 1
    (Apps.Forwarder.forwarded fwd)

(* ---- HTTP ---------------------------------------------------------------- *)

let http_end_to_end () =
  let p = pair () in
  let server = Apps.Http_server.create ~port:80 p.Experiments.Common.b in
  let result = ref None in
  Apps.Http_client.get p.Experiments.Common.a ~dst:(ip_b, 80) ~path:"/paper"
    (fun r -> result := r);
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 150);
  (match !result with
  | Some r ->
      Alcotest.(check int) "status" 200 r.Apps.Http_client.status;
      Alcotest.(check string) "body" "Fiuczynski & Bershad, USENIX 1996.\n"
        r.Apps.Http_client.body
  | None -> Alcotest.fail "no response");
  Alcotest.(check int) "request counted" 1 (Apps.Http_server.requests server)

let http_not_found () =
  let p = pair () in
  let server = Apps.Http_server.create ~port:80 p.Experiments.Common.b in
  let result = ref None in
  Apps.Http_client.get p.Experiments.Common.a ~dst:(ip_b, 80) ~path:"/missing"
    (fun r -> result := r);
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 150);
  (match !result with
  | Some r -> Alcotest.(check int) "404" 404 r.Apps.Http_client.status
  | None -> Alcotest.fail "no response");
  Alcotest.(check int) "counted" 1 (Apps.Http_server.not_found_count server)

(* The farm's path: a client fetching through the NAT forwarder on the
   middle host from a backend HTTP server.  [serve] installs the
   backend on the server stack at port 80. *)
let fetch_through_nat ~serve paths =
  let engine, client, middle, server = nat_line () in
  Plexus.Tcp_mgr.exclude_ports (Plexus.Stack.tcp middle) [ 80 ];
  Plexus.Tcp_mgr.exclude_src_ports (Plexus.Stack.tcp middle) [ 80 ];
  let (_ : Apps.Forwarder.t) =
    Apps.Forwarder.create middle ~listen_port:80
      ~backend:(Experiments.Common.ip_server, 80)
  in
  serve server;
  let results =
    List.map
      (fun path ->
        let result = ref None in
        Apps.Http_client.get client ~dst:(Experiments.Common.ip_middle, 80)
          ~path (fun r -> result := Some r);
        result)
      paths
  in
  Sim.Engine.run engine ~until:(Sim.Stime.s 600);
  List.map2
    (fun path result ->
      match !result with
      | Some (Some r) -> r
      | Some None -> Alcotest.failf "%s: unparsable response" path
      | None -> Alcotest.failf "%s: no response" path)
    paths results

let farm_page_sizes = [ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
let page size = String.init size (fun i -> Char.chr (((i * 7) + (i / 251)) land 0xff))

let http_every_farm_page () =
  let paths = List.map (Printf.sprintf "/obj%d") farm_page_sizes in
  let serve server =
    let http = Apps.Http_server.create ~port:80 server in
    List.iter2 (fun path size -> Apps.Http_server.add_route http path (page size))
      paths farm_page_sizes
  in
  List.iter2
    (fun size r ->
      Alcotest.(check int) (Printf.sprintf "%d-B page status" size) 200
        r.Apps.Http_client.status;
      Alcotest.(check bool) (Printf.sprintf "%d-B page byte for byte" size) true
        (r.Apps.Http_client.body = page size))
    farm_page_sizes (fetch_through_nat ~serve paths)

(* A backend that answers the first request chunk with [raw], then
   closes. *)
let raw_backend raw server =
  match
    Plexus.Tcp_mgr.listen (Plexus.Stack.tcp server) ~owner:"raw" ~port:80
      ~on_accept:(fun conn ->
        let answered = ref false in
        Plexus.Tcp_mgr.on_receive conn (fun _ ->
            if not !answered then begin
              answered := true;
              Plexus.Tcp_mgr.send conn raw;
              Plexus.Tcp_mgr.close conn
            end))
      ()
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "listen"

(* The client must read [raw] as parsing it whole does. *)
let check_raw_response name raw ~body =
  match (fetch_through_nat ~serve:(raw_backend raw) [ "/" ], Proto.Http.parse_response raw) with
  | [ r ], Some whole ->
      Alcotest.(check int) (name ^ ": status") whole.Proto.Http.status
        r.Apps.Http_client.status;
      Alcotest.(check bool) (name ^ ": body as parsed whole") true
        (r.Apps.Http_client.body = whole.Proto.Http.body);
      Alcotest.(check bool) (name ^ ": body byte for byte") true
        (r.Apps.Http_client.body = body)
  | _ -> Alcotest.failf "%s: no response" name

let http_peer_closes_early () =
  let body = page 3000 in
  check_raw_response "truncated"
    ("HTTP/1.0 200 OK\r\ncontent-length: 8192\r\n\r\n" ^ body)
    ~body

let http_no_content_length () =
  let body = page 5000 ^ "\r\n\r\nx: y\r\n" in
  check_raw_response "unsized"
    ("HTTP/1.0 200 OK\r\ncontent-type: text/plain\r\n\r\n" ^ body)
    ~body

let suite =
  [
    ( "apps.active_messages",
      [
        tc "roundtrip through linked extensions" am_roundtrip;
        tc "send requires linking" am_send_fails_when_unlinked;
        tc "budget termination" am_budget_termination;
      ] );
    ( "apps.video",
      [
        tc "server paces frames" video_server_paces_frames;
        tc "end to end over Plexus" video_end_to_end_plexus;
      ] );
    ("apps.forwarder", [ tc "UDP NAT redirect both ways" forwarder_udp_redirect ]);
    ( "apps.http",
      [
        tc "GET end to end" http_end_to_end;
        tc "404" http_not_found;
        tc "every farm page through the NAT" http_every_farm_page;
        tc "peer closes early" http_peer_closes_early;
        tc "no content-length" http_no_content_length;
      ] );
  ]

(* ---- reliable blast (application-level framing) -------------------------- *)

let blast_lossless () =
  let p = pair () in
  let data = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let got = ref None in
  let _r =
    Apps.Blast.receive p.Experiments.Common.b ~port:4000 ~on_complete:(fun d ->
        got := Some d)
  in
  let s =
    Apps.Blast.send p.Experiments.Common.a ~port:4001 ~dst:(ip_b, 4000)
      ~chunk:1000 ~data
      ~on_complete:(fun () -> ())
  in
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 10)
    ~max_events:5_000_000;
  (match !got with
  | Some d -> Alcotest.(check bool) "data intact" true (d = data)
  | None -> Alcotest.fail "transfer incomplete");
  Alcotest.(check bool) "sender confirmed" true (Apps.Blast.complete s);
  Alcotest.(check int) "no retransmissions on a clean wire" 0
    (Apps.Blast.retransmissions s)

let blast_with_loss () =
  let engine = Sim.Engine.create ~seed:99 () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ())
      ~a:("a", Experiments.Common.ip_a) ~b:("b", Experiments.Common.ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  (* drop a tenth of all frames in each direction *)
  Netsim.Dev.set_loss ea.Netsim.Network.dev 0.1;
  Netsim.Dev.set_loss eb.Netsim.Network.dev 0.1;
  let data = String.init 50_000 (fun i -> Char.chr ((i * 13) mod 256)) in
  let got = ref None in
  let r = Apps.Blast.receive b ~port:4000 ~on_complete:(fun d -> got := Some d) in
  let s =
    Apps.Blast.send a ~port:4001 ~dst:(Experiments.Common.ip_b, 4000)
      ~chunk:1000 ~data
      ~on_complete:(fun () -> ())
  in
  Sim.Engine.run engine ~until:(Sim.Stime.s 60) ~max_events:20_000_000;
  (match !got with
  | Some d -> Alcotest.(check bool) "data intact despite loss" true (d = data)
  | None -> Alcotest.fail "transfer incomplete under loss");
  Alcotest.(check bool) "recovery happened" true
    (Apps.Blast.retransmissions s > 0 || Apps.Blast.end_probes s > 0);
  Alcotest.(check bool) "receiver asked for the gaps" true
    (Apps.Blast.nacks_sent r > 0)

let suite =
  suite
  @ [
      ( "apps.blast",
        [
          tc "lossless transfer" blast_lossless;
          tc "recovers from 10% loss" blast_with_loss;
        ] );
    ]

let blast_single_chunk () =
  let p = pair () in
  let got = ref None in
  let _r =
    Apps.Blast.receive p.Experiments.Common.b ~port:4000 ~on_complete:(fun d ->
        got := Some d)
  in
  let _s =
    Apps.Blast.send p.Experiments.Common.a ~port:4001 ~dst:(ip_b, 4000)
      ~chunk:1000 ~data:"tiny"
      ~on_complete:(fun () -> ())
  in
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 5)
    ~max_events:1_000_000;
  Alcotest.(check (option string)) "single frame" (Some "tiny") !got

let blast_heavy_loss_many_rounds () =
  (* more missing frames than fit in one NACK: recovery takes several
     receiver-driven rounds *)
  let engine = Sim.Engine.create ~seed:3 () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ())
      ~a:("a", Experiments.Common.ip_a) ~b:("b", Experiments.Common.ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  Netsim.Dev.set_loss ea.Netsim.Network.dev 0.3;
  let data = String.init 200_000 (fun i -> Char.chr ((i * 31) mod 256)) in
  let got = ref None in
  let r = Apps.Blast.receive b ~port:4000 ~on_complete:(fun d -> got := Some d) in
  let _s =
    Apps.Blast.send a ~port:4001 ~dst:(Experiments.Common.ip_b, 4000)
      ~chunk:1000 ~data
      ~on_complete:(fun () -> ())
  in
  Sim.Engine.run engine ~until:(Sim.Stime.s 120) ~max_events:50_000_000;
  (match !got with
  | Some d -> Alcotest.(check bool) "intact after many rounds" true (d = data)
  | None -> Alcotest.fail "did not complete");
  Alcotest.(check bool) "several NACK rounds" true (Apps.Blast.nacks_sent r >= 2)

let suite =
  suite
  @ [
      ( "apps.blast_edges",
        [
          tc "single chunk" blast_single_chunk;
          tc "heavy loss, multiple NACK rounds" blast_heavy_loss_many_rounds;
        ] );
    ]
