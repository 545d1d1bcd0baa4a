(* Overload behaviour: what interrupt-level protocol processing costs
   the rest of the system.

   Section 3.3 runs protocols at interrupt level for latency.  The
   classic risk (Mogul & Ramakrishnan's receive livelock) is that under
   overload, interrupt-priority packet work starves everything below it.
   This experiment blasts UDP at a receiver that is also running a
   thread-priority compute application, and measures the application's
   progress as offered load rises — once with the graph in interrupt
   mode, once in thread mode.  The measured shape: interrupt delivery's
   lower per-packet cost preserves more compute capacity up to its
   saturation point, beyond which the host livelocks completely (zero
   application progress); thread delivery pays a spawn per invocation,
   saturates earlier, but keeps a trickle of application progress even
   under extreme overload.  A real deployment adds mitigation (polling,
   budgets — Plexus's EPHEMERAL time limits are a piece of that); the
   experiment quantifies the trade-off. *)

type point = {
  offered_pps : int;
  interrupt_progress : float; (* compute iterations/s under interrupt mode *)
  thread_progress : float;
}

let compute_unit = Sim.Stime.us 100

(* A pre-built valid frame: Ethernet + IP + UDP to the victim port. *)
let build_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~port =
  let pkt = Mbuf.of_string (String.make 18 'l') in
  Proto.Udp.encapsulate pkt ~src:src_ip ~dst:dst_ip ~src_port:5000
    ~dst_port:port;
  Proto.Ipv4.encapsulate pkt
    (Proto.Ipv4.make ~proto:Proto.Ipv4.proto_udp ~src:src_ip ~dst:dst_ip
       ~payload_len:(Mbuf.length pkt) ());
  Proto.Ether.encapsulate pkt
    { Proto.Ether.dst = dst_mac; src = src_mac; etype = Proto.Ether.etype_ip };
  Mbuf.to_string pkt

let run_one ?(poisson = false) ~mode ~offered_pps () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine (Netsim.Costs.ethernet ())
      ~a:("blaster", Common.ip_a) ~b:("victim", Common.ip_b)
  in
  let victim = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.set_delivery victim mode;
  let udp = Plexus.Stack.udp victim in
  (match Plexus.Udp_mgr.bind udp ~owner:"sink" ~port:9 with
  | Ok ep ->
      let (_ : unit -> unit) = Plexus.Udp_mgr.install_recv udp ep (fun _ -> ()) in
      ()
  | Error _ -> assert false);
  (* the compute application: thread-priority work units, back to back *)
  let victim_cpu = Netsim.Host.cpu eb.Netsim.Network.host in
  let iterations = ref 0 in
  let horizon = Sim.Stime.add (Sim.Stime.ms 200) (Sim.Stime.s 1) in
  let rec compute () =
    if Sim.Stime.compare (Sim.Engine.now engine) horizon < 0 then
      Sim.Cpu.submit victim_cpu Sim.Cpu.Thread ~cost:compute_unit (fun () ->
          incr iterations;
          compute ())
  in
  compute ();
  (* the blaster: frames injected at the device at a fixed rate,
     bypassing the sender's protocol stack so only the victim is
     stressed *)
  let frame =
    build_frame
      ~src_mac:(Netsim.Dev.mac ea.Netsim.Network.dev)
      ~dst_mac:(Netsim.Dev.mac eb.Netsim.Network.dev)
      ~src_ip:Common.ip_a ~dst_ip:Common.ip_b ~port:9
  in
  (* deterministic spacing by default; Poisson arrivals on request
     (burstiness makes overload bite sooner) *)
  let rng = Sim.Engine.rng engine in
  let mean_period_ns = 1_000_000_000 / offered_pps in
  let next_gap () =
    if poisson then
      Sim.Stime.ns
        (max 1
           (int_of_float
              (Sim.Rng.exponential rng ~mean:(float_of_int mean_period_ns))))
    else Sim.Stime.ns mean_period_ns
  in
  let rec blast () =
    if Sim.Stime.compare (Sim.Engine.now engine) horizon < 0 then begin
      Netsim.Dev.transmit ea.Netsim.Network.dev (Mbuf.of_string frame);
      ignore (Sim.Engine.schedule_in engine ~delay:(next_gap ()) blast)
    end
  in
  blast ();
  (* measure compute progress over the window after warmup *)
  let counted = ref 0 in
  ignore
    (Sim.Engine.schedule engine ~at:(Sim.Stime.ms 200) (fun () ->
         counted := !iterations));
  Sim.Engine.run engine ~until:horizon ~max_events:50_000_000;
  float_of_int (!iterations - !counted)

let default_rates = [ 1_000; 2_000; 4_000; 8_000; 12_000 ]

let run ?poisson ?(rates = default_rates) () =
  List.map
    (fun offered_pps ->
      {
        offered_pps;
        interrupt_progress =
          run_one ?poisson ~mode:Spin.Dispatcher.Interrupt ~offered_pps ();
        thread_progress =
          run_one ?poisson ~mode:Spin.Dispatcher.Thread ~offered_pps ();
      })
    rates

let print ?poisson ?rates () =
  Common.print_header
    "Overload: compute progress (iterations/s) under a UDP blast";
  Printf.printf "%14s %18s %18s\n" "offered pkt/s" "interrupt-mode"
    "thread-mode";
  let rows = run ?poisson ?rates () in
  List.iter
    (fun p ->
      Printf.printf "%14d %18.0f %18.0f\n" p.offered_pps p.interrupt_progress
        p.thread_progress)
    rows;
  Printf.printf
    "(idle ceiling %.0f it/s.  Interrupt delivery has lower per-packet cost, so it\n\
    \ preserves more compute until saturation — then collapses to a hard receive\n\
    \ livelock (0).  Thread delivery pays a spawn per handler, saturates earlier,\n\
    \ but never fully locks out the application.)\n"
    (1e6 /. Sim.Stime.to_us compute_unit);
  rows
