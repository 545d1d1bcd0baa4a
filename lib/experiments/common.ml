(* Shared experiment scaffolding: canonical two-host and three-host
   testbeds under both OS models, echo servers/clients, and helpers for
   driving the simulation to completion. *)

let ip_a = Proto.Ipaddr.v 10 0 1 1
let ip_b = Proto.Ipaddr.v 10 0 1 2
let ip_client = Proto.Ipaddr.v 10 0 1 2
let ip_middle = Proto.Ipaddr.v 10 0 1 1
let ip_middle2 = Proto.Ipaddr.v 10 0 2 1
let ip_server = Proto.Ipaddr.v 10 0 2 2

let net1 = Proto.Ipaddr.v 10 0 1 0
let net2 = Proto.Ipaddr.v 10 0 2 0

type plexus_pair = {
  engine : Sim.Engine.t;
  a : Plexus.Stack.t;
  b : Plexus.Stack.t;
}

let plexus_pair ?costs ?observe ?(flowcache = false) params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair ?costs ?observe engine params ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  if flowcache then begin
    Spin.Dispatcher.set_flow_cache (Plexus.Graph.dispatcher (Plexus.Stack.graph a)) true;
    Spin.Dispatcher.set_flow_cache (Plexus.Graph.dispatcher (Plexus.Stack.graph b)) true
  end;
  { engine; a; b }

type du_pair = {
  du_engine : Sim.Engine.t;
  dua : Osmodel.Du_stack.t;
  dub : Osmodel.Du_stack.t;
}

let du_pair ?costs params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair ?costs engine params ~a:("hostA", ip_a)
      ~b:("hostB", ip_b)
  in
  let dua = Osmodel.Du_stack.create ea.Netsim.Network.host in
  let dub = Osmodel.Du_stack.create eb.Netsim.Network.host in
  Osmodel.Du_stack.prime_arp dua ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Du_stack.prime_arp dub ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
  { du_engine = engine; dua; dub }

(* --- closed-loop round-trip driver ----------------------------------- *)

module Pingpong = struct
  type t = {
    engine : Sim.Engine.t;
    iters : int;
    mutable remaining : int;
    mutable sent_at : Sim.Stime.t;
    mutable ping : unit -> unit;
    rtt : Sim.Stats.Mean.t;
  }

  let create ~warmup ~iters engine =
    {
      engine;
      iters;
      remaining = warmup + iters;
      sent_at = Sim.Stime.zero;
      ping = ignore;
      rtt = Sim.Stats.Mean.create ();
    }

  let next t =
    if t.remaining > 0 then begin
      t.remaining <- t.remaining - 1;
      t.sent_at <- Sim.Engine.now t.engine;
      t.ping ()
    end

  let start t ping =
    t.ping <- ping;
    next t

  (* A ping counts once the warm-up ones are all out: fewer than [iters]
     remain after it was sent. *)
  let record t =
    if t.remaining < t.iters then
      Sim.Stats.Mean.add t.rtt (Sim.Stime.sub (Sim.Engine.now t.engine) t.sent_at)

  let pong t =
    record t;
    next t

  let mean_us t = Sim.Stats.Mean.us t.rtt
end

(* --- UDP echo round-trip measurement --------------------------------- *)

(* Plexus: an echo extension on B, a pinging extension on A.  Returns the
   mean round trip in microseconds. *)
let udp_echo_plexus ?costs ?(mode = Spin.Dispatcher.Interrupt)
    ?(payload_len = 8) ?(warmup = 20) ?(iters = 200) params =
  let p = plexus_pair ?costs params in
  Plexus.Stack.set_delivery p.a mode;
  Plexus.Stack.set_delivery p.b mode;
  let udp_a = Plexus.Stack.udp p.a and udp_b = Plexus.Stack.udp p.b in
  let server =
    match Plexus.Udp_mgr.bind udp_b ~owner:"echo-server" ~port:7 with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun ctx ->
        let data = View.to_string (Plexus.Pctx.view ctx) in
        let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
        Plexus.Udp_mgr.send udp_b server ~dst:(src, ctx.Plexus.Pctx.src_port) data)
  in
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"echo-client" ~port:5001 with
    | Ok ep -> ep
    | Error _ -> assert false
  in
  let loop = Pingpong.create ~warmup ~iters p.engine in
  let payload = String.make payload_len 'x' in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_a client (fun _ -> Pingpong.pong loop)
  in
  Pingpong.start loop (fun () ->
      Plexus.Udp_mgr.send udp_a client ~dst:(ip_b, 7) payload);
  Sim.Engine.run p.engine ~max_events:10_000_000;
  Pingpong.mean_us loop

(* DIGITAL UNIX: same workload over sockets. *)
let udp_echo_du ?(payload_len = 8) ?(warmup = 20) ?(iters = 200) params =
  let p = du_pair params in
  let server =
    match Osmodel.Du_stack.udp_bind p.dub ~port:7 with
    | Ok s -> s
    | Error _ -> assert false
  in
  Osmodel.Du_stack.udp_set_recv server (fun ~src data ->
      Osmodel.Du_stack.udp_sendto p.dub server ~dst:src data);
  let client =
    match Osmodel.Du_stack.udp_bind p.dua ~port:5001 with
    | Ok s -> s
    | Error _ -> assert false
  in
  let loop = Pingpong.create ~warmup ~iters p.du_engine in
  let payload = String.make payload_len 'x' in
  Osmodel.Du_stack.udp_set_recv client (fun ~src:_ _ -> Pingpong.pong loop);
  Pingpong.start loop (fun () ->
      Osmodel.Du_stack.udp_sendto p.dua client ~dst:(ip_b, 7) payload);
  Sim.Engine.run p.du_engine ~max_events:10_000_000;
  Pingpong.mean_us loop

(* User-level protocol library (section 6's related-work model): same
   workload through Osmodel.Ulib. *)
let udp_echo_ulib ?(payload_len = 8) ?(warmup = 20) ?(iters = 200) params =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine params ~a:("hostA", ip_a) ~b:("hostB", ip_b)
  in
  let ua = Osmodel.Ulib.create ea.Netsim.Network.host in
  let ub = Osmodel.Ulib.create eb.Netsim.Network.host in
  Osmodel.Ulib.prime_arp ua ip_b (Netsim.Dev.mac eb.Netsim.Network.dev);
  Osmodel.Ulib.prime_arp ub ip_a (Netsim.Dev.mac ea.Netsim.Network.dev);
  let server =
    match Osmodel.Ulib.udp_bind ub ~port:7 with
    | Ok s -> s
    | Error _ -> assert false
  in
  Osmodel.Ulib.udp_set_recv server (fun ~src data ->
      Osmodel.Ulib.udp_sendto ub server ~dst:src data);
  let client =
    match Osmodel.Ulib.udp_bind ua ~port:5001 with
    | Ok s -> s
    | Error _ -> assert false
  in
  let loop = Pingpong.create ~warmup ~iters engine in
  let payload = String.make payload_len 'x' in
  Osmodel.Ulib.udp_set_recv client (fun ~src:_ _ -> Pingpong.pong loop);
  Pingpong.start loop (fun () ->
      Osmodel.Ulib.udp_sendto ua client ~dst:(ip_b, 7) payload);
  Sim.Engine.run engine ~max_events:10_000_000;
  Pingpong.mean_us loop

(* Theoretical driver-to-driver round trip: what the paper's "minimal
   round trip time using our hardware as measured between the device
   drivers" bar shows. *)
let raw_device_rtt (params : Netsim.Costs.device) ~len =
  let one_way =
    Sim.Stime.to_us params.tx_fixed
    +. Sim.Stime.to_us params.rx_fixed
    +. (params.pio_ns_per_byte *. float_of_int len /. 1000. *. 2.)
    +. float_of_int (params.frame_overhead len)
       *. 8e6 /. float_of_int params.bw_bits_per_s
    +. Sim.Stime.to_us params.prop_delay
  in
  2. *. one_way

(* --- table rendering -------------------------------------------------- *)

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_row fmt = Printf.printf fmt

let mbps ~bytes ~elapsed_us = float_of_int bytes *. 8. /. elapsed_us
