(* A server farm at steady state: N client hosts, each behind its own
   in-kernel forwarder, hammering one HTTP server host with a
   heavy-tailed request mix.

   Topology (chain [i], 1-based):

     client_i (10.i.0.1) -- fwd_i (10.i.0.2) -- server (10.0.0.100)

   The server host carries one device per chain (subnet 10.i.0.0/16 on
   device [i]); each forwarder carries two (10.i.0.0/24 toward its
   client, 10.0.0.0/8 toward the server).  Clients connect to their
   forwarder's address; the forwarder NAT-rewrites both directions
   below transport, exactly as in the Figure 7 redirection experiment,
   so every TCP handshake, data segment and teardown is end-to-end
   between a client and the server.

   Two drivers share the testbed:

   - [run]: an open workload — Poisson request arrivals per client,
     Pareto-distributed response sizes (the classic heavy-tailed web
     mix) — reporting goodput and p50/p99 request latency.

   - [scale_setup]: the million-flow steady-state probe.  It parks
     [live_flows] established-but-idle connections across the farm
     (exercising the sharded connection tables, the per-destination
     ephemeral allocator and the timer wheel at population), then
     returns a thunk that drives a burst of fresh request/response
     probes through the loaded datapath and reports the wire-frame
     count — so a caller can measure the cost per simulated packet at
     1k vs. 100k live flows and check that it stays flat. *)

let service_port = 8080
let server_ip = Proto.Ipaddr.v 10 0 0 100

(* Response bodies are served from a fixed set of log-spaced pages; a
   client draws a Pareto size and requests the smallest page that
   covers it.  Quantisation keeps the route table finite while
   preserving the heavy tail up to the largest page. *)
let page_sizes = [| 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 |]
let page_path size = Printf.sprintf "/obj%d" size

let page_for size =
  let n = Array.length page_sizes in
  let rec go k =
    if k >= n - 1 then page_sizes.(n - 1)
    else if page_sizes.(k) >= size then page_sizes.(k)
    else go (k + 1)
  in
  go 0

type chain = {
  client : Plexus.Stack.t;
  client_rng : Sim.Rng.t;
  fwd_ip : Proto.Ipaddr.t;
}

type farm = {
  engine : Sim.Engine.t;
  server : Plexus.Stack.t;
  http : Apps.Http_server.t;
  chains : chain array;
  devices : Netsim.Dev.t list;
}

let build ?(params = Netsim.Costs.ethernet ()) ?(flowcache = true) ?(seed = 7)
    ~clients () =
  if clients < 1 || clients > 250 then
    invalid_arg "Farm.build: clients must be in [1, 250]";
  let engine = Sim.Engine.create ~seed () in
  let hserver = Netsim.Host.create engine ~name:"server" ~ip:server_ip in
  (* Hosts and wiring first: a stack is built over every device already
     attached to its host, so all devices must exist before any
     [Stack.build]. *)
  let raw =
    Array.init clients (fun idx ->
        let i = idx + 1 in
        let cip = Proto.Ipaddr.v 10 i 0 1 and fip = Proto.Ipaddr.v 10 i 0 2 in
        let hc =
          Netsim.Host.create engine ~name:(Printf.sprintf "client%d" i) ~ip:cip
        in
        let hf =
          Netsim.Host.create engine ~name:(Printf.sprintf "fwd%d" i) ~ip:fip
        in
        let dc = Netsim.Host.add_device hc params in
        let df1 = Netsim.Host.add_device hf params in
        let df2 = Netsim.Host.add_device hf params in
        let ds = Netsim.Host.add_device hserver params in
        Netsim.Dev.connect dc df1;
        Netsim.Dev.connect df2 ds;
        (i, hc, hf, dc, df1, df2, ds, cip, fip))
  in
  let server =
    Plexus.Stack.build
      ~subnets:(List.init clients (fun idx -> (Proto.Ipaddr.v 10 (idx + 1) 0 0, 16)))
      hserver
  in
  let enable_cache stack =
    Spin.Dispatcher.set_flow_cache
      (Plexus.Graph.dispatcher (Plexus.Stack.graph stack))
      true
  in
  if flowcache then enable_cache server;
  let server_arps = Plexus.Stack.arps server in
  let rng = Sim.Rng.create seed in
  let chains =
    Array.mapi
      (fun idx (i, hc, hf, dc, df1, df2, ds, cip, fip) ->
        let client = Plexus.Stack.build hc in
        let fwd =
          Plexus.Stack.build
            ~subnets:
              [ (Proto.Ipaddr.v 10 i 0 0, 24); (Proto.Ipaddr.v 10 0 0 0, 8) ]
            hf
        in
        (* Steady-state ARP on every segment of the chain. *)
        Plexus.Arp_mgr.prime (Plexus.Stack.arp client) fip (Netsim.Dev.mac df1);
        (match Plexus.Stack.arps fwd with
        | [ a1; a2 ] ->
            Plexus.Arp_mgr.prime a1 cip (Netsim.Dev.mac dc);
            Plexus.Arp_mgr.prime a2 server_ip (Netsim.Dev.mac ds)
        | _ -> assert false);
        Plexus.Arp_mgr.prime (List.nth server_arps idx) fip
          (Netsim.Dev.mac df2);
        (* The forwarder host's standard TCP cedes the forwarded port. *)
        Plexus.Tcp_mgr.exclude_ports (Plexus.Stack.tcp fwd) [ service_port ];
        Plexus.Tcp_mgr.exclude_src_ports (Plexus.Stack.tcp fwd)
          [ service_port ];
        let (_ : Apps.Forwarder.t) =
          Apps.Forwarder.create fwd ~listen_port:service_port
            ~backend:(server_ip, service_port)
        in
        if flowcache then begin
          enable_cache client;
          enable_cache fwd
        end;
        { client; client_rng = Sim.Rng.split rng; fwd_ip = fip })
      raw
  in
  let http = Apps.Http_server.create ~port:service_port server in
  Array.iter
    (fun size -> Apps.Http_server.add_route http (page_path size)
        (String.make size 'x'))
    page_sizes;
  let devices =
    List.concat_map
      (fun (_, hc, hf, _, _, _, _, _, _) ->
        Netsim.Host.devices hc @ Netsim.Host.devices hf)
      (Array.to_list raw)
    @ Netsim.Host.devices hserver
  in
  { engine; server; http; chains; devices }

let wire_packets f =
  List.fold_left
    (fun acc d -> acc + (Netsim.Dev.counters d).Netsim.Dev.tx_packets)
    0 f.devices

let server_cache_evictions f =
  Spin.Dispatcher.path_cache_evictions
    (Plexus.Graph.dispatcher (Plexus.Stack.graph f.server))

(* Exact latency percentile in µs over the measured requests; 0 when
   none completed. *)
let percentile lat p =
  if Array.length lat = 0 then 0. else Sim.Stats.percentile lat p

(* --- the open heavy-tailed workload ----------------------------------- *)

type result = {
  clients : int;
  completed : int;  (* measured request completions (post-warmup) *)
  errors : int;
  goodput_mbps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  evictions : int;  (* server path-cache evictions over the run *)
}

let run ?params ?flowcache ?(clients = 8) ?(seed = 7) ?(warmup = 50)
    ?(requests = 400) ?(mean_gap_us = 400.) ?(shape = 1.2) ?(scale = 600.) () =
  let f = build ?params ?flowcache ~seed ~clients () in
  let total = warmup + requests in
  let latencies = ref [] in
  let issued = ref 0 and completed = ref 0 and errors = ref 0 in
  let measured_bytes = ref 0 in
  let mark = ref Sim.Stime.zero and finish = ref Sim.Stime.zero in
  (* Each client runs a closed loop with Poisson think time: draw a gap,
     issue one GET for a Pareto-sized page, and loop when the response
     (or failure) lands.  The global [issued] budget stops the farm. *)
  let rec client_loop ch =
    if !issued < total then begin
      incr issued;
      let gap = Sim.Rng.exponential ch.client_rng ~mean:mean_gap_us in
      let (_ : Sim.Engine.handle) =
        Sim.Engine.schedule_in f.engine ~delay:(Sim.Stime.of_us_f gap)
          (fun () ->
            let size =
              int_of_float (Sim.Rng.pareto ch.client_rng ~shape ~scale)
            in
            let path = page_path (page_for size) in
            Apps.Http_client.get ch.client ~dst:(ch.fwd_ip, service_port) ~path
              (fun res ->
                incr completed;
                (match res with
                | Some r when r.Apps.Http_client.status = 200 ->
                    if !completed > warmup then begin
                      latencies :=
                        Sim.Stime.to_us r.Apps.Http_client.elapsed :: !latencies;
                      measured_bytes :=
                        !measured_bytes + String.length r.Apps.Http_client.body;
                      finish := Sim.Engine.now f.engine
                    end
                | _ -> incr errors);
                if !completed = warmup then mark := Sim.Engine.now f.engine;
                client_loop ch))
      in
      ()
    end
  in
  Array.iter client_loop f.chains;
  Sim.Engine.run f.engine ~until:(Sim.Stime.s 600) ~max_events:200_000_000;
  let window_us = Sim.Stime.to_us (Sim.Stime.sub !finish !mark) in
  let goodput_mbps =
    if window_us > 0. then float_of_int !measured_bytes *. 8. /. window_us
    else 0.
  in
  let lat = Array.of_list !latencies in
  let completed = Array.length lat in
  {
    clients;
    completed;
    errors = !errors;
    goodput_mbps;
    mean_us =
      (if completed = 0 then 0.
       else Array.fold_left ( +. ) 0. lat /. float_of_int completed);
    p50_us = percentile lat 50.;
    p99_us = percentile lat 99.;
    evictions = server_cache_evictions f;
  }

let print ?params ?flowcache ?clients ?seed ?warmup ?requests ?mean_gap_us
    ?shape ?scale () =
  let r =
    run ?params ?flowcache ?clients ?seed ?warmup ?requests ?mean_gap_us
      ?shape ?scale ()
  in
  Common.print_header
    "Server farm: heavy-tailed HTTP through per-client forwarders";
  Printf.printf "%10s %10s %8s %12s %10s %10s %10s\n" "clients" "requests"
    "errors" "goodput" "mean" "p50" "p99";
  Printf.printf "%10d %10d %8d %9.1f Mb/s %7.1f us %7.1f us %7.1f us\n"
    r.clients r.completed r.errors r.goodput_mbps r.mean_us r.p50_us r.p99_us;
  Printf.printf
    "(Pareto page sizes over %d..%d bytes, Poisson arrivals; %d server \
     path-cache evictions)\n"
    page_sizes.(0)
    page_sizes.(Array.length page_sizes - 1)
    r.evictions;
  r

(* --- the steady-state scale probe -------------------------------------- *)

type probe = {
  live_flows : int;    (* idle established connections held open *)
  established : int;   (* how many of them actually completed the handshake *)
  probes : int;        (* fresh request/response exchanges this round *)
  probe_errors : int;
  packets : int;       (* wire frames carried during the probe round *)
  sim_elapsed_us : float;
  probe_goodput_mbps : float;
  probe_p50_us : float;
  probe_p99_us : float;
}

let probe_page = 1024

let scale_setup ?params ?(clients = 8) ?(seed = 11) ?(setup_gap_us = 20)
    ?(probe_gap_us = 150.) ~live_flows ~probes () =
  if live_flows < 0 then invalid_arg "Farm.scale_setup: negative live_flows";
  let f = build ?params ~seed ~clients () in
  (* Park the flow population.  Establishment is a closed loop per
     chain — each client starts its next handshake [setup_gap_us] after
     the previous one completes — so the aggregate connect rate
     self-paces to the server's simulated CPU capacity instead of
     overrunning it into a retransmission storm.  The connections are
     held open and idle — the HTTP server sits waiting for a request
     that never comes — which is exactly the steady state a
     million-flow server lives in. *)
  let established = ref 0 in
  let n_chains = Array.length f.chains in
  let per = live_flows / n_chains and extra = live_flows mod n_chains in
  Array.iteri
    (fun idx ch ->
      let n = per + if idx < extra then 1 else 0 in
      let rec connect_k k =
        if k < n then begin
          let advanced = ref false in
          let next () =
            if not !advanced then begin
              advanced := true;
              let (_ : Sim.Engine.handle) =
                Sim.Engine.schedule_in f.engine
                  ~delay:(Sim.Stime.us setup_gap_us) (fun () ->
                    connect_k (k + 1))
              in
              ()
            end
          in
          match
            Plexus.Tcp_mgr.connect
              (Plexus.Stack.tcp ch.client)
              ~owner:"flow"
              ~dst:(ch.fwd_ip, service_port)
              ()
          with
          | Ok conn ->
              Plexus.Tcp_mgr.on_established conn (fun () ->
                  incr established;
                  next ());
              (* a handshake that dies instead of establishing must not
                 stall the chain *)
              Plexus.Tcp_mgr.on_error conn (fun _ -> next ());
              Plexus.Tcp_mgr.on_close conn (fun () -> next ())
          | Error _ -> next ()
        end
      in
      connect_k 0)
    f.chains;
  Sim.Engine.run f.engine
    ~max_events:(Stdlib.max 10_000_000 (live_flows * 1000));
  let probe_rng = Sim.Rng.create (seed + 1) in
  let path = page_path probe_page in
  (* The probe round: [probes] fresh GETs split over the chains, each
     chain a closed loop with Poisson think time (at most one probe in
     flight per chain, so the numbers measure the loaded datapath, not
     self-inflicted queueing).  Callable repeatedly — each call is one
     timing round. *)
  fun () ->
    let latencies = ref [] in
    let bytes = ref 0 and errors = ref 0 in
    let t0 = Sim.Engine.now f.engine in
    let finish = ref t0 in
    let pk0 = wire_packets f in
    let per = probes / n_chains and extra = probes mod n_chains in
    Array.iteri
      (fun idx ch ->
        let n = per + if idx < extra then 1 else 0 in
        let rec probe_k k =
          if k < n then begin
            let gap = Sim.Rng.exponential probe_rng ~mean:probe_gap_us in
            let (_ : Sim.Engine.handle) =
              Sim.Engine.schedule_in f.engine ~delay:(Sim.Stime.of_us_f gap)
                (fun () ->
                  Apps.Http_client.get ch.client ~dst:(ch.fwd_ip, service_port)
                    ~path (fun res ->
                      (match res with
                      | Some r when r.Apps.Http_client.status = 200 ->
                          latencies :=
                            Sim.Stime.to_us r.Apps.Http_client.elapsed
                            :: !latencies;
                          bytes := !bytes + String.length r.Apps.Http_client.body
                      | _ -> incr errors);
                      finish := Sim.Engine.now f.engine;
                      probe_k (k + 1)))
            in
            ()
          end
        in
        probe_k 0)
      f.chains;
    Sim.Engine.run f.engine ~max_events:100_000_000;
    let sim_elapsed_us = Sim.Stime.to_us (Sim.Stime.sub !finish t0) in
    let lat = Array.of_list !latencies in
    {
      live_flows;
      established = !established;
      probes;
      probe_errors = !errors;
      packets = wire_packets f - pk0;
      sim_elapsed_us;
      probe_goodput_mbps =
        (if sim_elapsed_us > 0. then float_of_int !bytes *. 8. /. sim_elapsed_us
         else 0.);
      probe_p50_us = percentile lat 50.;
      probe_p99_us = percentile lat 99.;
    }
