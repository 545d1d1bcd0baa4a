(* farm_http: 8 clients, each behind an in-kernel NAT forwarder, fetch
   heavy-tailed pages from one HTTP server, one new TCP connection per
   request, flow-path cache on.  TCP, the timer wheel, checksums over
   large payloads, forwarding and connection churn do most of the work.
   A frame is one transmission on any device, so each hop counts.

   The farm is built here from the same public constructors
   [Experiments.Farm] uses, so every host's registry and devices can be
   read. *)

let clients = 8
let mean_gap_us = 400.
let shape = 1.2
let scale = 600.
let service_port = Experiments.Farm.service_port
let server_ip = Experiments.Farm.server_ip

(* Log-spaced pages; a drawn size is served by the smallest page that
   covers it. *)
let page_sizes = [| 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 |]

let page_for size =
  match Array.find_opt (fun p -> p >= size) page_sizes with
  | Some p -> p
  | None -> page_sizes.(Array.length page_sizes - 1)

let page_path size = Printf.sprintf "/obj%d" size

(* A round is [slice] of simulated time; the first [det_rounds] rounds
   are the deterministic leg.  Warm-up before the window is [warm]. *)
let slice = Sim.Stime.ms 250
let det_rounds = 48
let warm = Sim.Stime.ms 250
let setup_reps = 5

(* Simulated time the per-call cost loop gives raised frames to drain. *)
let drain_slice = Sim.Stime.ms 20

type chain = { client : Plexus.Stack.t; rng : Sim.Rng.t; fwd_ip : Proto.Ipaddr.t }

type t = {
  engine : Sim.Engine.t;
  server : Plexus.Stack.t;
  stacks : Plexus.Stack.t list;
  devices : Netsim.Dev.t list;
  latencies : Hostcost.ibuf;  (* simulated ns, while [recording] *)
  mutable recording : bool;
  mutable bytes : int;  (* body bytes of good responses while recording *)
  mutable stopped : bool;  (* clients issue no further requests *)
  tally : Pstat.tally;
}

let build ~seed ~tally =
  let params = Netsim.Costs.ethernet () in
  let engine = Sim.Engine.create ~seed () in
  let hserver = Netsim.Host.create engine ~name:"server" ~ip:server_ip in
  (* every device must exist before any [Stack.build] on its host *)
  let raw =
    Array.init clients (fun idx ->
        let i = idx + 1 in
        let cip = Proto.Ipaddr.v 10 i 0 1 and fip = Proto.Ipaddr.v 10 i 0 2 in
        let hc = Netsim.Host.create engine ~name:(Printf.sprintf "client%d" i) ~ip:cip in
        let hf = Netsim.Host.create engine ~name:(Printf.sprintf "fwd%d" i) ~ip:fip in
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
  let enable_cache s =
    Spin.Dispatcher.set_flow_cache (Plexus.Graph.dispatcher (Plexus.Stack.graph s)) true
  in
  enable_cache server;
  let server_arps = Plexus.Stack.arps server in
  let rng = Sim.Rng.create seed in
  let built =
    Array.mapi
      (fun idx (i, hc, hf, dc, df1, df2, ds, cip, fip) ->
        let client = Plexus.Stack.build hc in
        let fwd =
          Plexus.Stack.build
            ~subnets:[ (Proto.Ipaddr.v 10 i 0 0, 24); (Proto.Ipaddr.v 10 0 0 0, 8) ]
            hf
        in
        Plexus.Arp_mgr.prime (Plexus.Stack.arp client) fip (Netsim.Dev.mac df1);
        (match Plexus.Stack.arps fwd with
        | [ a1; a2 ] ->
            Plexus.Arp_mgr.prime a1 cip (Netsim.Dev.mac dc);
            Plexus.Arp_mgr.prime a2 server_ip (Netsim.Dev.mac ds)
        | _ -> failwith "perfbench: forwarder without two interfaces");
        Plexus.Arp_mgr.prime (List.nth server_arps idx) fip (Netsim.Dev.mac df2);
        Plexus.Tcp_mgr.exclude_ports (Plexus.Stack.tcp fwd) [ service_port ];
        Plexus.Tcp_mgr.exclude_src_ports (Plexus.Stack.tcp fwd) [ service_port ];
        let (_ : Apps.Forwarder.t) =
          Apps.Forwarder.create fwd ~listen_port:service_port ~backend:(server_ip, service_port)
        in
        enable_cache client;
        enable_cache fwd;
        ({ client; rng = Sim.Rng.split rng; fwd_ip = fip }, fwd))
      raw
  in
  let http = Apps.Http_server.create ~port:service_port server in
  Array.iter
    (fun size -> Apps.Http_server.add_route http (page_path size) (String.make size 'x'))
    page_sizes;
  let w =
    {
      engine;
      server;
      stacks = server :: List.concat_map (fun (c, f) -> [ c.client; f ]) (Array.to_list built);
      devices =
        List.concat_map
          (fun (_, hc, hf, _, _, _, _, _, _) -> Netsim.Host.devices hc @ Netsim.Host.devices hf)
          (Array.to_list raw)
        @ Netsim.Host.devices hserver;
      latencies = Hostcost.ibuf ();
      recording = false;
      bytes = 0;
      stopped = false;
      tally;
    }
  in
  (w, Array.map fst built)

(* Every response must be a 200 whose body is exactly the page asked
   for. *)
let on_result w size res =
  let t = w.tally in
  t.attempted <- t.attempted + 1;
  match res with
  | Some r when r.Apps.Http_client.status = 200 && String.length r.Apps.Http_client.body = size + !Pstat.tamper ->
      if w.recording then begin
        Hostcost.push w.latencies (Sim.Stime.to_ns r.Apps.Http_client.elapsed);
        w.bytes <- w.bytes + size
      end
  | Some r when r.Apps.Http_client.status <> 200 ->
      Pstat.fail t (Printf.sprintf "HTTP status %d" r.Apps.Http_client.status)
  | Some r ->
      Pstat.fail t
        (Printf.sprintf "body of %d bytes for a %d-byte page" (String.length r.Apps.Http_client.body) size)
  | None -> Pstat.fail t "request failed"

(* Closed loop per client: think, fetch one page, loop on completion. *)
let rec client_loop w ch =
  if not w.stopped then
  let gap = Sim.Rng.exponential ch.rng ~mean:mean_gap_us in
  let (_ : Sim.Engine.handle) =
    Sim.Engine.schedule_in w.engine ~delay:(Sim.Stime.of_us_f gap) (fun () ->
        let size = page_for (int_of_float (Sim.Rng.pareto ch.rng ~shape ~scale)) in
        Apps.Http_client.get ch.client ~dst:(ch.fwd_ip, service_port) ~path:(page_path size)
          (fun res ->
            on_result w size res;
            client_loop w ch))
  in
  ()

let wire_frames w =
  List.fold_left (fun acc d -> acc + (Netsim.Dev.counters d).Netsim.Dev.tx_packets) 0 w.devices

(* Advance the farm by [d] of simulated time; the frames it carried. *)
let advance w d =
  let f0 = wire_frames w in
  Sim.Engine.run w.engine ~until:(Sim.Stime.add (Sim.Engine.now w.engine) d);
  wire_frames w - f0

let setup ~seed () =
  let tally = Pstat.tally () in
  let w, chains = build ~seed ~tally in
  Array.iter (client_loop w) chains;
  ignore (advance w warm : int);
  w

(* The farm's live heap grows with every connection it has served
   (about 2 KB each), so the window runs in epochs of [det_rounds]
   slices, each on a freshly set-up farm, the previous one compacted
   away untimed.  Epoch [e] draws its traffic from [epoch_seed seed e];
   the first [det_epochs] epochs are the deterministic leg, long enough
   that the p99 of one seed is not one congestion episode.  Peak heap is
   read at the end of the deterministic leg, so it is the largest of
   its epochs'. *)
let det_epochs = 6
let epoch_seed seed e = seed + (7919 * e)

let end_to_end ~seed ~seconds (t : Pstat.tally) =
  Hostcost.setup_during ~reps:setup_reps ~every:8 (setup ~seed) @@ fun first setup_extra ->
  let w = ref first in
  let words = ref 0. and frames = ref 0 and bytes = ref 0 and heap = ref 0. in
  let lat = Hostcost.ibuf () in
  let prepare k =
    if k mod det_rounds = 0 then begin
      if k > 0 then begin
        Pstat.absorb ~into:t !w.tally;
        w := setup ~seed:(epoch_seed seed (k / det_rounds)) ();
        Gc.compact ()
      end;
      !w.recording <- k < det_epochs * det_rounds
    end;
    setup_extra k
  in
  let win =
    Hostcost.window ~prepare ~seconds ~min_rounds:(det_epochs * det_rounds) (fun k ->
        let w0 = Hostcost.minor_words () in
        let n = advance !w slice in
        if !w.recording then begin
          words := !words +. (Hostcost.minor_words () -. w0);
          frames := !frames + n;
          if k mod det_rounds = det_rounds - 1 then begin
            bytes := !bytes + !w.bytes;
            for i = 0 to !w.latencies.Hostcost.len - 1 do
              Hostcost.push lat !w.latencies.Hostcost.data.(i)
            done;
            if k = (det_epochs * det_rounds) - 1 then heap := Hostcost.peak_heap_mb ();
            !w.recording <- false
          end
        end;
        n)
  in
  Pstat.absorb ~into:t !w.tally;
  let det_us = Sim.Stime.to_us slice *. float_of_int (det_epochs * det_rounds) in
  ( [
      ("frames_per_ref_s", win.Hostcost.ref_rate);
      ("minor_words_per_frame", Pstat.per_frame ~frames:!frames !words);
      ("peak_heap_mb", !heap);
      ("sim_goodput_mbps", float_of_int (!bytes * 8) /. det_us);
    ],
    Hostcost.to_floats lat ~scale:1e-3 )

(* The counted windows take half the usual share of [seconds]: one farm
   drives both, and its heap grows with every connection. *)
let traced ~seed ~seconds (t : Pstat.tally) =
  let w = setup ~seed () in
  let win =
    Layers.windows ~seconds:(seconds /. 2.) ~engine:w.engine ~stacks:w.stacks
      ~busy_cpu:(Netsim.Host.cpu (Plexus.Stack.host w.server))
      (fun _ -> advance w slice)
  in
  Pstat.absorb ~into:t w.tally;
  let budget = seconds /. 2. /. 7. in
  (* Frames arriving at the server, captured on a second farm; the
     counted one is left as the workload made it. *)
  let m = setup ~seed () in
  let frames =
    Layers.capture ~stacks:[ m.server ] ~limit:512 (fun () -> ignore (advance m slice : int))
  in
  m.stopped <- true;
  let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether m.server) in
  let base = Layers.common_costs ~budget in
  let costs =
    {
      base with
      Layers.ns_raise = Layers.raise ~budget ~drain:(fun () -> ignore (advance m drain_slice : int)) ~dev (Udp_world.ether_event m.server) frames;
      ns_parse = Layers.parse ~budget frames;
      ns_cksum_kb = Layers.cksum_per_kb ~budget frames;
    }
  in
  Layers.ledger win costs ~frame_bytes:(Layers.mean_length frames)
