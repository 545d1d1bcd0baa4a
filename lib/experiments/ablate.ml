(* Ablations of the design choices the paper calls out.

   1. Guards-as-packet-filters: every raise evaluates every installed
      guard, so demultiplexing cost grows with the number of installed
      endpoints.  The paper's bet is that guard evaluation is cheap
      enough for this to be negligible at realistic fan-out.
   2. Anti-spoofing by source *overwrite* vs. *verify* (section 3.1:
      "the latter provides the best performance" — overwrite).
   3. The checksum-disabled UDP variant of section 1.1.
   4. Interrupt vs. thread delivery is covered by Figure 5 itself. *)

(* --- 1: guard scaling -------------------------------------------------- *)

(* [rtt_us] installs the bystanders unkeyed (residuals at every leaf of
   the udp event's dispatch tree: every raise evaluates every guard);
   [indexed_rtt_us] installs them with their port as dispatch key, so
   the raise's tree walk switches on the datagram's port and never
   reaches them. *)
type guard_point = { extra_endpoints : int; rtt_us : float; indexed_rtt_us : float }

let guard_scaling ?(counts = [ 0; 8; 32; 128 ]) ?(iters = 100) () =
  let run ~indexed extra =
      let p = Common.plexus_pair (Netsim.Costs.ethernet ()) in
      let udp_b = Plexus.Stack.udp p.Common.b in
      (* Install [extra] unrelated endpoints whose guards will be
         evaluated (and rejected) for every incoming datagram — unless
         the dispatch tree skips them. *)
      for i = 1 to extra do
        match Plexus.Udp_mgr.bind udp_b ~owner:"bystander" ~port:(20000 + i) with
        | Ok ep ->
            let install =
              if indexed then Plexus.Udp_mgr.install_recv
              else Plexus.Udp_mgr.install_recv_linear
            in
            let (_ : unit -> unit) = install udp_b ep (fun _ -> ()) in
            ()
        | Error _ -> assert false
      done;
      (* Echo server + pinger, as in Figure 5. *)
      let server =
        match Plexus.Udp_mgr.bind udp_b ~owner:"echo" ~port:7 with
        | Ok ep -> ep
        | Error _ -> assert false
      in
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
            let data = View.to_string (Plexus.Pctx.view ctx) in
            let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
            Plexus.Udp_mgr.send udp_b server
              ~dst:(src, ctx.Plexus.Pctx.src_port)
              data)
      in
      let udp_a = Plexus.Stack.udp p.Common.a in
      let client =
        match Plexus.Udp_mgr.bind udp_a ~owner:"ping" ~port:5001 with
        | Ok ep -> ep
        | Error _ -> assert false
      in
      let loop = Common.Pingpong.create ~warmup:10 ~iters p.Common.engine in
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_a client (fun _ ->
            Common.Pingpong.pong loop)
      in
      Common.Pingpong.start loop (fun () ->
          Plexus.Udp_mgr.send udp_a client ~dst:(Common.ip_b, 7) "ping-pkt");
      Sim.Engine.run p.Common.engine ~max_events:10_000_000;
      Common.Pingpong.mean_us loop
  in
  List.map
    (fun extra ->
      {
        extra_endpoints = extra;
        rtt_us = run ~indexed:false extra;
        indexed_rtt_us = run ~indexed:true extra;
      })
    counts

(* --- 2: spoof policy --------------------------------------------------- *)

type spoof_result = {
  overwrite_rtt : float;
  verify_rtt : float;
  spoofs_rejected : int;
}

let spoof_policy ?(iters = 100) () =
  let run policy =
    let p = Common.plexus_pair (Netsim.Costs.ethernet ()) in
    let udp_a = Plexus.Stack.udp p.Common.a in
    let udp_b = Plexus.Stack.udp p.Common.b in
    Plexus.Udp_mgr.set_spoof_policy udp_a policy;
    let server =
      match Plexus.Udp_mgr.bind udp_b ~owner:"echo" ~port:7 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
          let data = View.to_string (Plexus.Pctx.view ctx) in
          let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
          Plexus.Udp_mgr.send udp_b server ~dst:(src, ctx.Plexus.Pctx.src_port)
            data)
    in
    let client =
      match Plexus.Udp_mgr.bind udp_a ~owner:"ping" ~port:5001 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let loop = Common.Pingpong.create ~warmup:10 ~iters p.Common.engine in
    let in_flight = ref false in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_a client (fun _ ->
          if !in_flight then begin
            in_flight := false;
            Common.Pingpong.pong loop
          end)
    in
    Common.Pingpong.start loop (fun () ->
        in_flight := true;
        (* an honest claim, so Verify re-checks and passes *)
        match
          Plexus.Udp_mgr.send_claiming udp_a client ~claimed_src_port:5001
            ~dst:(Common.ip_b, 7) "ping-pkt"
        with
        | Ok () -> ()
        | Error `Spoof_rejected -> ());
    Sim.Engine.run p.Common.engine ~max_events:10_000_000;
    (* also demonstrate rejection of a dishonest claim *)
    (match
       Plexus.Udp_mgr.send_claiming udp_a client ~claimed_src_port:9999
         ~dst:(Common.ip_b, 7) "forged"
     with
    | Ok () -> ()
    | Error `Spoof_rejected -> ());
    Sim.Engine.run p.Common.engine ~max_events:10_000_000;
    (Common.Pingpong.mean_us loop, (Plexus.Udp_mgr.counters udp_a).spoof_rejected)
  in
  let overwrite_rtt, _ = run Plexus.Udp_mgr.Overwrite in
  let verify_rtt, rejected = run Plexus.Udp_mgr.Verify in
  { overwrite_rtt; verify_rtt; spoofs_rejected = rejected }

(* --- 3: checksum on/off (section 1.1) ---------------------------------- *)

type cksum_result = { with_cksum : float; without_cksum : float }

let cksum_variant ?(payload_len = 1400) ?(iters = 100) () =
  let run checksum =
    let p = Common.plexus_pair (Netsim.Costs.t3 ()) in
    let udp_b = Plexus.Stack.udp p.Common.b in
    let udp_a = Plexus.Stack.udp p.Common.a in
    let server =
      match Plexus.Udp_mgr.bind udp_b ~owner:"echo" ~port:7 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
          let data = View.to_string (Plexus.Pctx.view ctx) in
          let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
          Plexus.Udp_mgr.send udp_b server ~checksum
            ~dst:(src, ctx.Plexus.Pctx.src_port)
            data)
    in
    let client =
      match Plexus.Udp_mgr.bind udp_a ~owner:"ping" ~port:5001 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let loop = Common.Pingpong.create ~warmup:10 ~iters p.Common.engine in
    let payload = String.make payload_len 'v' in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_a client (fun _ ->
          Common.Pingpong.pong loop)
    in
    Common.Pingpong.start loop (fun () ->
        Plexus.Udp_mgr.send udp_a client ~checksum ~dst:(Common.ip_b, 7) payload);
    Sim.Engine.run p.Common.engine ~max_events:10_000_000;
    Common.Pingpong.mean_us loop
  in
  { with_cksum = run true; without_cksum = run false }

(* --- 4: dispatcher-cost sensitivity ------------------------------------ *)

(* "The overhead of invoking each handler is roughly one procedure call."
   How much would it matter if it were not?  Inflate the dispatch and
   guard costs and watch Figure 5's Ethernet number. *)
type dispatch_point = { factor : int; rtt_us : float }

let dispatch_sensitivity ?(factors = [ 1; 10; 100 ]) ?(iters = 50) () =
  List.map
    (fun factor ->
      let base = Netsim.Costs.default in
      let costs =
        {
          base with
          Netsim.Costs.dispatch =
            {
              Spin.Dispatcher.dispatch =
                Sim.Stime.mul base.Netsim.Costs.dispatch.Spin.Dispatcher.dispatch
                  factor;
              guard =
                Sim.Stime.mul base.Netsim.Costs.dispatch.Spin.Dispatcher.guard
                  factor;
              index =
                Sim.Stime.mul base.Netsim.Costs.dispatch.Spin.Dispatcher.index
                  factor;
              tree_node =
                Sim.Stime.mul
                  base.Netsim.Costs.dispatch.Spin.Dispatcher.tree_node factor;
              thread_spawn =
                base.Netsim.Costs.dispatch.Spin.Dispatcher.thread_spawn;
            };
        }
      in
      {
        factor;
        rtt_us = Common.udp_echo_plexus ~costs ~iters (Netsim.Costs.ethernet ());
      })
    factors

(* --- 4b: interpreted packet filters vs. compiled guards ----------------- *)

(* The systems Plexus's protection model descends from (Mach's user-level
   networking, [MRA87]) demultiplex with *interpreted* packet filters.
   Install the echo endpoint behind a deliberately rich interpreted
   filter and compare with the native guard. *)
type filter_result = {
  native_rtt : float;
  interpreted_rtt : float;
  compiled_rtt : float;
  nodes : int;
}

let filter_vs_guard ?(iters = 100) () =
  let rich_filter =
    (* a 15-node demultiplexing predicate *)
    Plexus.Filter.(
      And
        ( And (dst_port_is 7, Gt (Payload_len, 0)),
          And
            ( Or (src_port_is 5001, Or (src_port_is 5002, src_port_is 5003)),
              Not (Or (Eq (Payload_len, 0), Gt (Payload_len, 65536))) ) ))
  in
  let run install =
    let p = Common.plexus_pair (Netsim.Costs.ethernet ()) in
    let udp_a = Plexus.Stack.udp p.Common.a in
    let udp_b = Plexus.Stack.udp p.Common.b in
    let server =
      match Plexus.Udp_mgr.bind udp_b ~owner:"echo" ~port:7 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let echo ctx =
      let data = View.to_string (Plexus.Pctx.view ctx) in
      let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
      Plexus.Udp_mgr.send udp_b server ~dst:(src, ctx.Plexus.Pctx.src_port) data
    in
    let (_ : unit -> unit) = install udp_b server echo in
    let client =
      match Plexus.Udp_mgr.bind udp_a ~owner:"ping" ~port:5001 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let loop = Common.Pingpong.create ~warmup:10 ~iters p.Common.engine in
    let (_ : unit -> unit) =
      Plexus.Udp_mgr.install_recv udp_a client (fun _ ->
          Common.Pingpong.pong loop)
    in
    Common.Pingpong.start loop (fun () ->
        Plexus.Udp_mgr.send udp_a client ~dst:(Common.ip_b, 7) "ping-pkt");
    Sim.Engine.run p.Common.engine ~max_events:10_000_000;
    Common.Pingpong.mean_us loop
  in
  {
    native_rtt = run (fun udp ep fn -> Plexus.Udp_mgr.install_recv udp ep fn);
    interpreted_rtt =
      run (fun udp ep fn ->
          Plexus.Udp_mgr.install_recv_filtered udp ep rich_filter fn);
    compiled_rtt =
      run (fun udp ep fn ->
          Plexus.Udp_mgr.install_recv_compiled udp ep rich_filter fn);
    nodes = Plexus.Filter.nodes rich_filter;
  }

(* --- 5: multicast semantics for the video server (section 5.1) --------- *)

(* If all clients watch the *same* stream, the UDP multicast send lets
   the server marshal and checksum each frame once; the per-client work
   shrinks to the replicated IP/device path. *)
let video_multicast_util ?(streams = 15) () =
  let run use_multicast =
    let engine = Sim.Engine.create () in
    let ea, eb =
      Netsim.Network.pair engine (Netsim.Costs.t3 ())
        ~a:("server", Common.ip_a) ~b:("clients", Common.ip_b)
    in
    let stack = Plexus.Stack.build ea.Netsim.Network.host in
    Netsim.Dev.set_rx eb.Netsim.Network.dev (fun _ _ -> ());
    Plexus.Arp_mgr.prime (Plexus.Stack.arp stack) Common.ip_b
      (Netsim.Dev.mac eb.Netsim.Network.dev);
    let host = ea.Netsim.Network.host in
    let disk =
      Netsim.Disk.create engine ~cpu:(Netsim.Host.cpu host)
        ~costs:(Netsim.Host.costs host)
    in
    let udp = Plexus.Stack.udp stack in
    let ep =
      match Plexus.Udp_mgr.bind udp ~owner:"video" ~port:9000 with
      | Ok ep -> ep
      | Error _ -> assert false
    in
    let dsts = List.init streams (fun i -> (Common.ip_b, 9001 + i)) in
    let horizon = Sim.Stime.add (Sim.Stime.ms 300) (Sim.Stime.s 2) in
    if use_multicast then begin
      (* one frame clock for everyone: read once, send to all *)
      let rec tick () =
        if Sim.Stime.compare (Sim.Engine.now engine) horizon < 0 then begin
          Netsim.Disk.read disk ~len:12_500 (fun frame ->
              Plexus.Udp_mgr.send_multi udp ep ~dsts frame);
          ignore
            (Sim.Engine.schedule_in engine ~delay:(Sim.Stime.of_s_f (1. /. 30.))
               tick)
        end
      in
      tick ()
    end
    else begin
      let env =
        {
          Apps.Video_server.engine;
          read_frame = (fun ~len k -> Netsim.Disk.read disk ~len k);
          send = (fun ~dst data -> Plexus.Udp_mgr.send udp ep ~dst data);
        }
      in
      let server = Apps.Video_server.create env ~fps:30 ~frame_len:12_500 in
      Apps.Video_server.set_streams server dsts;
      Apps.Video_server.start ~until:horizon server
    end;
    ignore
      (Sim.Engine.schedule engine ~at:(Sim.Stime.ms 300) (fun () ->
           Netsim.Host.reset_utilization host));
    Sim.Engine.run engine ~until:horizon ~max_events:50_000_000;
    Netsim.Host.utilization host
  in
  (run false, run true)

let print () =
  Common.print_header "Ablation: guard (packet filter) scaling";
  Printf.printf "%18s %12s %12s\n" "extra endpoints" "linear(us)" "indexed(us)";
  List.iter
    (fun g ->
      Printf.printf "%18d %12.1f %12.1f\n" g.extra_endpoints g.rtt_us
        g.indexed_rtt_us)
    (guard_scaling ());
  Common.print_header "Ablation: anti-spoofing policy (section 3.1)";
  let s = spoof_policy () in
  Printf.printf
    "  overwrite: %.1f us RTT   verify: %.1f us RTT   forged sends rejected: %d\n"
    s.overwrite_rtt s.verify_rtt s.spoofs_rejected;
  Common.print_header
    "Ablation: UDP checksum disabled (section 1.1, 1400-byte frames on T3)";
  let c = cksum_variant () in
  Printf.printf "  with checksum: %.1f us RTT   without: %.1f us RTT (saves %.1f)\n"
    c.with_cksum c.without_cksum (c.with_cksum -. c.without_cksum);
  Common.print_header
    "Ablation: dispatcher cost sensitivity (Ethernet UDP RTT)";
  List.iter
    (fun d -> Printf.printf "  dispatch+guard x%-4d : %8.1f us\n" d.factor d.rtt_us)
    (dispatch_sensitivity ());
  Common.print_header
    "Ablation: interpreted packet filter vs. compiled guard (Ethernet UDP RTT)";
  let f = filter_vs_guard () in
  Printf.printf
    "  native guard: %.1f us    interpreted %d-node filter: %.1f us (+%.1f)    compiled: %.1f us (+%.1f)\n"
    f.native_rtt f.nodes f.interpreted_rtt
    (f.interpreted_rtt -. f.native_rtt)
    f.compiled_rtt
    (f.compiled_rtt -. f.native_rtt);
  Common.print_header
    "Ablation: multicast semantics for the video server (15 identical streams, T3)";
  let uni, multi = video_multicast_util () in
  Printf.printf
    "  per-client unicast streams: %4.1f%% CPU    shared multicast stream: %4.1f%% CPU\n"
    (100. *. uni) (100. *. multi)
