(* The two-host testbed with the paper's extension trio on the receiver:
   a wire tap on the ether event, a firewall monitor and a
   byte-accounting monitor on the ip event, and a UDP server endpoint
   on each of [ports]. *)

let ip_b = Experiments.Common.ip_b
let payload_len = 64

type t = {
  engine : Sim.Engine.t;
  a : Plexus.Stack.t;
  b : Plexus.Stack.t;
  udp_a : Plexus.Udp_mgr.t;
  client : Plexus.Endpoint.t;
  ports : int array;
  tap_frames : int ref;
  acct_bytes : int ref;
  mutable delivered : int;
  mutable delivered_bytes : int;
  mutable last_port : int;
  mutable sent_at_ns : int;
  latencies : Hostcost.ibuf;  (* simulated ns, while [recording] *)
  mutable recording : bool;
  trio : Plexus.Pctx.t -> unit;
      (* the three extension bodies and guards, run back to back: the
         benchmark's own closures, timed directly in the traced run *)
}

let udp_guard ctx =
  match ctx.Plexus.Pctx.ip with
  | Some ip -> ip.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
  | None -> false

let recv_event node = Plexus.Graph.recv_event node
let ether_event s = recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether s))
let ip_event s = recv_event (Plexus.Ip_mgr.node (Plexus.Stack.ip s))
let rx_dev s = Plexus.Ether_mgr.dev (Plexus.Stack.ether s)

let bind_exn udp ~owner ~port =
  match Plexus.Udp_mgr.bind udp ~owner ~port with
  | Ok ep -> ep
  | Error _ -> failwith (Printf.sprintf "perfbench: bind %d failed" port)

let create ~flowcache ~ports =
  let p = Experiments.Common.plexus_pair ~flowcache (Netsim.Costs.ethernet ()) in
  let a = p.Experiments.Common.a and b = p.Experiments.Common.b in
  let tap_frames = ref 0 and acct_bytes = ref 0 in
  let tap _ = incr tap_frames in
  let firewall _ = () in
  let acct ctx = acct_bytes := !acct_bytes + Plexus.Pctx.payload_len ctx in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install (ether_event b) ~guard:(fun _ -> true) ~cacheable:true
      ~label:"tap" ~cost:(Sim.Stime.us 2) tap
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install (ip_event b) ~guard:udp_guard ~cacheable:true
      ~label:"firewall" ~cost:(Sim.Stime.us 2) firewall
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install (ip_event b) ~guard:udp_guard ~cacheable:true
      ~label:"acct" ~cost:(Sim.Stime.us 1) acct
  in
  let udp_a = Plexus.Stack.udp a and udp_b = Plexus.Stack.udp b in
  let w =
    {
      engine = p.Experiments.Common.engine;
      a;
      b;
      udp_a;
      client = bind_exn udp_a ~owner:"cli" ~port:5000;
      ports;
      tap_frames;
      acct_bytes;
      delivered = 0;
      delivered_bytes = 0;
      last_port = -1;
      sent_at_ns = 0;
      latencies = Hostcost.ibuf ();
      recording = false;
      trio =
        (fun ctx ->
          tap ctx;
          if udp_guard ctx then firewall ctx;
          if udp_guard ctx then acct ctx);
    }
  in
  Array.iter
    (fun port ->
      let ep = bind_exn udp_b ~owner:"srv" ~port in
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            w.delivered <- w.delivered + 1;
            w.delivered_bytes <- w.delivered_bytes + Plexus.Pctx.payload_len ctx;
            w.last_port <- port;
            if w.recording then
              Hostcost.push w.latencies
                (Sim.Stime.to_ns (Sim.Engine.now w.engine) - w.sent_at_ns))
      in
      ())
    ports;
  w

(* Send one 64-B datagram and run the engine until it has been
   delivered (the engine drains).  [true] iff exactly this datagram
   reached its port. *)
let send_one w port =
  let before = w.delivered in
  w.sent_at_ns <- Sim.Stime.to_ns (Sim.Engine.now w.engine);
  Plexus.Udp_mgr.send_mbuf w.udp_a w.client ~dst:(ip_b, port) (Mbuf.alloc payload_len);
  Sim.Engine.run w.engine;
  w.delivered = before + 1 && w.last_port = port

(* Warm-up: one datagram to every port, then zero the counters the
   correctness checks read. *)
let warm w =
  Array.iter (fun port -> ignore (send_one w port : bool)) w.ports;
  w.delivered <- 0;
  w.delivered_bytes <- 0;
  w.tap_frames := 0;
  w.acct_bytes := 0
