(* Figure 6: video server CPU utilization as a function of the number of
   client streams, over the T3 network.

   The workload: 30 frames/second per stream, 12.5 KB frames (15 streams
   of 3 Mb/s saturate the 45 Mb/s T3, matching the paper's saturation
   point).  Frames come off the disk; under Plexus the server extension
   sends them without crossing the user/kernel boundary, under DIGITAL
   UNIX each frame is read(2) up to the server process and copied back
   down by sendto(2).  "At 15 streams, both SPIN and DIGITAL UNIX
   saturate the network, but SPIN consumes only half as much of the
   processor." *)

let fps = 30
let frame_len = 12_500
let video_port = 9000

type sample = {
  streams : int;
  spin_util : float;
  du_util : float;
  net_mbps : float; (* achieved network send rate under Plexus *)
}

let measure_window = Sim.Stime.s 2
let warmup = Sim.Stime.ms 300

(* The sink host consumes frames at the device level only: the paper
   measures *server* CPU; the clients are separate machines. *)
let quiet_sink dev =
  let bytes = ref 0 in
  Netsim.Dev.set_rx dev (fun _ pkt -> bytes := !bytes + Mbuf.length pkt);
  bytes

let plexus_run streams =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ()) ~a:("server", Common.ip_a)
      ~b:("clients", Common.ip_b)
  in
  let stack = Plexus.Stack.build ea.Netsim.Network.host in
  let rx_bytes = quiet_sink eb.Netsim.Network.dev in
  Plexus.Arp_mgr.prime (Plexus.Stack.arp stack) Common.ip_b
    (Netsim.Dev.mac eb.Netsim.Network.dev);
  let host = ea.Netsim.Network.host in
  let disk =
    Netsim.Disk.create engine ~cpu:(Netsim.Host.cpu host)
      ~costs:(Netsim.Host.costs host)
  in
  let udp = Plexus.Stack.udp stack in
  let ep =
    match Plexus.Udp_mgr.bind udp ~owner:"video-server" ~port:video_port with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let env =
    {
      Apps.Video_server.engine;
      read_frame = (fun ~len k -> Netsim.Disk.read disk ~len k);
      send = (fun ~dst data -> Plexus.Udp_mgr.send udp ep ~dst data);
    }
  in
  let server = Apps.Video_server.create env ~fps ~frame_len in
  Apps.Video_server.set_streams server
    (List.init streams (fun i -> (Common.ip_b, video_port + 1 + i)));
  let horizon = Sim.Stime.add warmup measure_window in
  Apps.Video_server.start ~until:horizon server;
  (* Measure utilization over a window that starts after warmup. *)
  ignore
    (Sim.Engine.schedule engine ~at:warmup (fun () ->
         Netsim.Host.reset_utilization host;
         rx_bytes := 0));
  Sim.Engine.run engine ~until:horizon ~max_events:50_000_000;
  let util = Netsim.Host.utilization host in
  let mbps =
    float_of_int !rx_bytes *. 8. /. Sim.Stime.to_us measure_window
  in
  (util, mbps)

let du_run streams =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ()) ~a:("server", Common.ip_a)
      ~b:("clients", Common.ip_b)
  in
  let du = Osmodel.Du_stack.create ea.Netsim.Network.host in
  let _rx_bytes = quiet_sink eb.Netsim.Network.dev in
  Osmodel.Du_stack.prime_arp du Common.ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  let host = ea.Netsim.Network.host in
  let costs = Netsim.Host.costs host in
  let cpu = Netsim.Host.cpu host in
  let disk = Netsim.Disk.create engine ~cpu ~costs in
  let sock =
    match Osmodel.Du_stack.udp_bind du ~port:video_port with
    | Ok s -> s
    | Error _ -> assert false
  in
  let env =
    {
      Apps.Video_server.engine;
      read_frame =
        (fun ~len k ->
          (* read(2): the frame is copied from the buffer cache to the
             user process before it can be sent again. *)
          Netsim.Disk.read disk ~len (fun data ->
              Sim.Cpu.run cpu
                ~cost:
                  (Sim.Stime.add costs.Netsim.Costs.os.trap
                     (Osmodel.Syscall.copy_cost costs len))
                (fun () -> k data)));
      send =
        (fun ~dst data -> Osmodel.Du_stack.udp_sendto du sock ~dst data);
    }
  in
  let server = Apps.Video_server.create env ~fps ~frame_len in
  Apps.Video_server.set_streams server
    (List.init streams (fun i -> (Common.ip_b, video_port + 1 + i)));
  let horizon = Sim.Stime.add warmup measure_window in
  Apps.Video_server.start ~until:horizon server;
  ignore
    (Sim.Engine.schedule engine ~at:warmup (fun () ->
         Netsim.Host.reset_utilization host));
  Sim.Engine.run engine ~until:horizon ~max_events:50_000_000;
  Netsim.Host.utilization host

(* --- the client side (section 5.1's second finding) -------------------

   "The CPU utilization between the two operating systems was similar...
   the performance of the video client is limited by the write bandwidth
   of the framebuffer hardware rather than overhead incurred by the
   operating system."  We receive [streams] streams on one client host —
   once over Plexus, once over DIGITAL UNIX — and report both the total
   client CPU utilization and the share of it spent writing the
   framebuffer. *)

type client_sample = {
  c_streams : int;
  plexus_util : float;
  du_util : float;
  plexus_fb_share : float; (* fraction of busy time in framebuffer writes *)
}

let client_run ~streams ~use_du =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.t3 ()) ~a:("server", Common.ip_a)
      ~b:("client", Common.ip_b)
  in
  (* the server always runs Plexus: only the client's OS varies *)
  let server_stack = Plexus.Stack.build ea.Netsim.Network.host in
  let udp = Plexus.Stack.udp server_stack in
  let ep =
    match Plexus.Udp_mgr.bind udp ~owner:"video" ~port:video_port with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let client_host = eb.Netsim.Network.host in
  let clients =
    if use_du then begin
      let du = Osmodel.Du_stack.create client_host in
      Osmodel.Du_stack.prime_arp du Common.ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
      Plexus.Arp_mgr.prime (Plexus.Stack.arp server_stack) Common.ip_b
        (Netsim.Dev.mac eb.Netsim.Network.dev);
      List.init streams (fun i ->
          Apps.Video_client.on_du ~fps du ~port:(video_port + 1 + i))
    end
    else begin
      let stack = Plexus.Stack.build client_host in
      Plexus.Stack.prime_arp server_stack stack;
      List.init streams (fun i ->
          Apps.Video_client.on_plexus ~fps stack ~port:(video_port + 1 + i))
    end
  in
  let env =
    {
      Apps.Video_server.engine;
      (* synthetic frames: the server side is not under test here *)
      read_frame = (fun ~len k -> k (String.make len 'v'));
      send = (fun ~dst data -> Plexus.Udp_mgr.send udp ep ~dst data);
    }
  in
  let server = Apps.Video_server.create env ~fps ~frame_len in
  Apps.Video_server.set_streams server
    (List.init streams (fun i -> (Common.ip_b, video_port + 1 + i)));
  let horizon = Sim.Stime.add warmup measure_window in
  Apps.Video_server.start ~until:horizon server;
  ignore
    (Sim.Engine.schedule engine ~at:warmup (fun () ->
         Netsim.Host.reset_utilization client_host));
  Sim.Engine.run engine ~until:horizon ~max_events:50_000_000;
  let util = Netsim.Host.utilization client_host in
  let fb_busy =
    List.fold_left
      (fun acc c ->
        acc
        +. float_of_int
             (Netsim.Framebuffer.bytes_written (Apps.Video_client.framebuffer c))
           *. 250.)
      0. clients
  in
  let busy_ns =
    float_of_int (Sim.Stime.to_ns (Sim.Cpu.busy_time (Netsim.Host.cpu client_host)))
  in
  (util, if busy_ns > 0. then fb_busy /. busy_ns else 0.)

let client ?(streams = 4) () =
  let plexus_util, plexus_fb_share = client_run ~streams ~use_du:false in
  let du_util, _ = client_run ~streams ~use_du:true in
  { c_streams = streams; plexus_util; du_util; plexus_fb_share }

let run ?(stream_counts = List.init 30 (fun i -> i + 1)) () =
  List.map
    (fun n ->
      let spin_util, net_mbps = plexus_run n in
      let du_util = du_run n in
      { streams = n; spin_util; du_util; net_mbps })
    stream_counts

let print ?stream_counts () =
  Common.print_header
    "Figure 6: video server CPU utilization vs. streams (T3, 30fps, 12.5KB frames)";
  Printf.printf "%8s %12s %12s %12s\n" "streams" "spin-util" "du-util"
    "net(Mb/s)";
  let rows = run ?stream_counts () in
  List.iter
    (fun s ->
      Printf.printf "%8d %11.1f%% %11.1f%% %12.1f\n" s.streams
        (100. *. s.spin_util) (100. *. s.du_util) s.net_mbps)
    rows;
  Printf.printf
    "(paper: both systems saturate the 45 Mb/s T3 at 15 streams; SPIN uses ~half the CPU)\n";
  let c = client ~streams:4 () in
  Printf.printf
    "client side (%d streams): plexus %.1f%%, digital-unix %.1f%% — similar, because\n\
    \ %.0f%% of the client's busy time is framebuffer writes (the paper's point)\n"
    c.c_streams (100. *. c.plexus_util) (100. *. c.du_util)
    (100. *. c.plexus_fb_share);
  rows
