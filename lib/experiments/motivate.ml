(* The paper's section 1.1 motivation, measured.

   "Applications that perform large bulk data transfers over wide area
   networks are best served by a protocol implementation that provides
   large local buffers.  On the other hand, a connection-oriented
   protocol that is used for many small transactions is best served by
   an implementation that minimizes connection lifetime."

   Plexus's point is that one stock implementation cannot serve both;
   because the TCP configuration is per-connection (an application-
   specific protocol choice), we can measure each claim directly. *)

(* A long-haul link: T3 bandwidth with 30 ms of one-way propagation.  The
   bandwidth-delay product (~340 KB) dwarfs small windows. *)
let wan_device () =
  let base = Netsim.Costs.t3 () in
  { base with Netsim.Costs.label = "t3-wan"; prop_delay = Sim.Stime.ms 30 }

type wan_point = { window : int; mbps : float }

(* --- claim 1: bulk transfer over a WAN needs big buffers ------------- *)

let wan_transfer ~window =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (wan_device ()) ~a:("src", Common.ip_a)
      ~b:("dst", Common.ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  let cfg = Proto.Tcp.default_config ~window () in
  let bytes = 2_000_000 in
  let received = ref 0 in
  let start_at = ref Sim.Stime.zero in
  let done_at = ref None in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp b) ~owner:"sink" ~port:5001 ~cfg
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun data ->
             received := !received + View.length data;
             if !received >= bytes && !done_at = None then
               done_at := Some (Sim.Engine.now engine)))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp a) ~owner:"src"
       ~dst:(Common.ip_b, 5001) ~cfg ()
   with
  | Error _ -> assert false
  | Ok conn ->
      Plexus.Tcp_mgr.on_established conn (fun () ->
          start_at := Sim.Engine.now engine;
          Plexus.Tcp_mgr.send conn (String.make bytes 'w')));
  Sim.Engine.run engine ~until:(Sim.Stime.s 300) ~max_events:50_000_000;
  match !done_at with
  | None -> nan
  | Some t ->
      Common.mbps ~bytes ~elapsed_us:(Sim.Stime.to_us (Sim.Stime.sub t !start_at))

let wan_windows ?(windows = [ 8_192; 16_384; 65_535 ]) () =
  List.map (fun window -> { window; mbps = wan_transfer ~window }) windows

(* --- claim 2: small transactions want a tuned connection -------------- *)

type txn_result = { stock_us : float; tuned_us : float }

let reply_len = 5_840 (* four full segments: the initial window matters *)

(* One transaction: connect, send a 100-byte request, get a multi-segment
   reply, close — over the long-haul link, where round trips dominate
   connection lifetime.  Mean per-transaction completion time over [n]
   runs. *)
let transaction_time ~cfg ~n =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (wan_device ())
      ~a:("client", Common.ip_a) ~b:("server", Common.ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp b) ~owner:"txn-server" ~port:5001
       ~cfg
       ~on_accept:(fun conn ->
         let got = ref 0 in
         Plexus.Tcp_mgr.on_receive conn (fun data ->
             got := !got + View.length data;
             if !got >= 100 then begin
               Plexus.Tcp_mgr.send conn (String.make reply_len 'r');
               Plexus.Tcp_mgr.close conn
             end))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  let loop = Common.Pingpong.create ~warmup:0 ~iters:n engine in
  Common.Pingpong.start loop (fun () ->
      match
        Plexus.Tcp_mgr.connect (Plexus.Stack.tcp a) ~owner:"txn-client"
          ~dst:(Common.ip_b, 5001) ~cfg ()
      with
      | Error _ -> ()
      | Ok conn ->
          let got = ref 0 in
          Plexus.Tcp_mgr.on_established conn (fun () ->
              Plexus.Tcp_mgr.send conn (String.make 100 'q'));
          Plexus.Tcp_mgr.on_receive conn (fun data ->
              got := !got + View.length data;
              if !got >= reply_len then begin
                Common.Pingpong.record loop;
                Plexus.Tcp_mgr.close conn;
                (* next transaction on a fresh connection *)
                ignore
                  (Sim.Engine.schedule_in engine ~delay:(Sim.Stime.ms 1)
                     (fun () -> Common.Pingpong.next loop))
              end));
  Sim.Engine.run engine ~until:(Sim.Stime.s 600) ~max_events:50_000_000;
  Common.Pingpong.mean_us loop

let transactions ?(n = 30) () =
  let stock = Proto.Tcp.default_config () in
  (* The application-specific variant: acknowledge everything
     immediately (the request/response fits in one segment anyway) and
     open with a larger initial window, trimming connection lifetime. *)
  let tuned =
    {
      (Proto.Tcp.default_config ~initial_window_segments:4 ()) with
      Proto.Tcp.delack_segments = 1;
    }
  in
  {
    stock_us = transaction_time ~cfg:stock ~n;
    tuned_us = transaction_time ~cfg:tuned ~n;
  }

(* --- claim 3: protocols specific to the application itself ------------ *)

(* The same 500 KB, same lossy link, two protocols: stock TCP vs the
   NACK-based application-level-framing blast (Apps.Blast).  TCP's
   sender-driven timeouts and in-order delivery pay heavily for loss;
   the blast recovers exactly the lost frames in one receiver-driven
   round. *)
type blast_result = { tcp_ms : float; blast_ms : float; blast_retx : int }

let blast_vs_tcp ?(loss = 0.02) ?(bytes = 500_000) () =
  let mk () =
    let engine = Sim.Engine.create ~seed:7 () in
    let ea, eb =
      Netsim.Network.pair engine (Netsim.Costs.t3 ()) ~a:("src", Common.ip_a)
        ~b:("dst", Common.ip_b)
    in
    let a = Plexus.Stack.build ea.Netsim.Network.host in
    let b = Plexus.Stack.build eb.Netsim.Network.host in
    Plexus.Stack.prime_arp a b;
    Netsim.Dev.set_loss ea.Netsim.Network.dev loss;
    Netsim.Dev.set_loss eb.Netsim.Network.dev loss;
    (engine, a, b)
  in
  let data = String.init bytes (fun i -> Char.chr (i mod 251)) in
  (* TCP *)
  let tcp_ms =
    let engine, a, b = mk () in
    let received = ref 0 in
    let done_at = ref None in
    (match
       Plexus.Tcp_mgr.listen (Plexus.Stack.tcp b) ~owner:"sink" ~port:5001
         ~on_accept:(fun conn ->
           Plexus.Tcp_mgr.on_receive conn (fun d ->
               received := !received + View.length d;
               if !received >= bytes && !done_at = None then
                 done_at := Some (Sim.Engine.now engine)))
         ()
     with
    | Ok () -> ()
    | Error _ -> assert false);
    (match
       Plexus.Tcp_mgr.connect (Plexus.Stack.tcp a) ~owner:"src"
         ~dst:(Common.ip_b, 5001) ()
     with
    | Ok conn ->
        Plexus.Tcp_mgr.on_established conn (fun () ->
            Plexus.Tcp_mgr.send conn data)
    | Error _ -> assert false);
    Sim.Engine.run engine ~until:(Sim.Stime.s 600) ~max_events:50_000_000;
    match !done_at with Some t -> Sim.Stime.to_ms t | None -> nan
  in
  (* Blast *)
  let blast_ms, blast_retx =
    let engine, a, b = mk () in
    let done_at = ref None in
    let _r =
      Apps.Blast.receive b ~port:4000 ~on_complete:(fun d ->
          if d = data && !done_at = None then
            done_at := Some (Sim.Engine.now engine))
    in
    let s =
      Apps.Blast.send a ~port:4001 ~dst:(Common.ip_b, 4000) ~chunk:1400 ~data
        ~on_complete:(fun () -> ())
    in
    Sim.Engine.run engine ~until:(Sim.Stime.s 600) ~max_events:50_000_000;
    ( (match !done_at with Some t -> Sim.Stime.to_ms t | None -> nan),
      Apps.Blast.retransmissions s )
  in
  { tcp_ms; blast_ms; blast_retx }

let print () =
  Common.print_header
    "Section 1.1 motivation: WAN bulk transfer vs. receive-buffer size (T3 + 30ms)";
  Printf.printf "%12s %10s %28s\n" "window(B)" "Mb/s" "window/RTT ceiling (Mb/s)";
  List.iter
    (fun p ->
      Printf.printf "%12d %10.2f %28.2f\n" p.window p.mbps
        (float_of_int p.window *. 8. /. 60_000.))
    (wan_windows ());
  Common.print_header
    "Section 1.1 motivation: small-transaction latency, stock vs. tuned TCP (T3 + 30ms)";
  let t = transactions () in
  Printf.printf
    "  stock TCP: %.0f us/transaction    application-specific TCP: %.0f us (-%.0f%%)\n"
    t.stock_us t.tuned_us
    (100. *. (t.stock_us -. t.tuned_us) /. t.stock_us);
  Common.print_header
    "A protocol specific to the application: 500KB over a 2%-lossy T3";
  let b = blast_vs_tcp () in
  Printf.printf
    "  stock TCP: %.0f ms    NACK-based blast (ALF): %.0f ms (%d frames resent)\n"
    b.tcp_ms b.blast_ms b.blast_retx
