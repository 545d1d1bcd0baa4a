(* par_rss: the multicore datapath on a seeded RSS plan of long-lived
   256-B UDP flows (default ARP interleave and 2-tuple legacy steering).
   The flow cache is read-heavy here: mostly hits.  A frame is one plan
   frame injected.  The window's timed rounds run the plan at 1 domain,
   the deterministic oracle; untimed 2-domain runs of the same plan are
   interleaved with them, and each must match the oracle counter for
   counter.

   Host throughput is taken on the 1-domain runs: with as many domains
   as cores, a 2-domain run's wall-clock time follows whatever else the
   host runs on either core (over ten runs its spread was 21%, where
   udp_ext's single-domain rate spread 8%).  The 2-domain host rate is a
   per-layer metric; simulated goodput comes from the 2-domain runs. *)

let flows = 1024
let pkts_per_flow = 64
let domains = 2
let setup_reps = 11

(* Sampled packets' simulated latencies come from the flight recorder
   on oracle runs: ingress to final delivery.  The rate keeps every
   sampled record inside the recorder's ring; each of [latency_legs]
   runs re-keys the sampling so the pooled samples cover different
   packets of the same traffic. *)
let latency_legs = 4
let flight_rate = 200

let plan ~seed ?(pkts_per_flow = pkts_per_flow) () =
  Par.Rss.make ~seed ~flows ~pkts_per_flow ()

(* Set-up: a 1-domain run of one frame per flow, which builds the
   node's world and records every flow's path once.  The nodes of a
   measured run build their own worlds, so nothing carries over. *)
let setup warm () = ignore (Par.Node.run ~domains:1 warm : Par.Node.stats)

let goodput_mbps (plan : Par.Rss.t) (s : Par.Node.stats) =
  float_of_int (s.Par.Node.delivered * plan.Par.Rss.payload_len * 8) /. s.Par.Node.busy_max_us

(* The oracle must deliver every UDP frame; a 2-domain run must match it
   on every equivalence counter. *)
let check_oracle (plan : Par.Rss.t) (o : Par.Node.stats) (t : Pstat.tally) =
  if o.Par.Node.delivered <> plan.Par.Rss.udp_frames + !Pstat.tamper then
    Pstat.fail t ~count:(plan.Par.Rss.udp_frames - o.Par.Node.delivered)
      (Printf.sprintf "oracle delivered %d of %d datagrams" o.Par.Node.delivered plan.Par.Rss.udp_frames)

let check_round oracle (plan : Par.Rss.t) (s : Par.Node.stats) (t : Pstat.tally) =
  let n = Array.length plan.Par.Rss.frames in
  t.attempted <- t.attempted + n;
  if Par.Node.equiv_counters s <> Par.Node.equiv_counters oracle then
    Pstat.fail t ~count:n "2-domain counters diverge from the 1-domain oracle"

let sampled_latencies (plan : Par.Rss.t) =
  let b = Hostcost.ibuf () in
  for leg = 1 to latency_legs do
    let s = Par.Node.run ~flight_rate ~domains:1 { plan with Par.Rss.seed = plan.Par.Rss.seed + leg } in
    List.iter
      (fun (_, records) ->
        let final =
          List.fold_left
            (fun acc (r : Observe.Flight.record) ->
              match r.Observe.Flight.stage with
              | Observe.Flight.Deliver _ -> Int.max acc r.Observe.Flight.dur_ns
              | _ -> acc)
            (-1) records
        in
        if final >= 0 then Hostcost.push b final)
      (Observe.Flight.timelines (Observe.Flight.records s.Par.Node.flight))
  done;
  Hostcost.to_floats b ~scale:1e-3

let end_to_end ~seed ~seconds (t : Pstat.tally) =
  Hostcost.setup_during ~reps:setup_reps ~every:2 (setup (plan ~seed ~pkts_per_flow:1 ()))
  @@ fun () prepare ->
  let plan = plan ~seed () in
  let frames = Array.length plan.Par.Rss.frames in
  let w0 = Hostcost.minor_words () in
  let oracle = Par.Node.run ~domains:1 plan in
  let words = Hostcost.minor_words () -. w0 in
  let heap = Hostcost.peak_heap_mb () in
  check_oracle plan oracle t;
  let lat = sampled_latencies plan in
  let goodputs = ref [] in
  (* Each timed round is a 1-domain run.  Untimed before it: a 2-domain
     run of the same plan every other round, and a full major collection,
     so every round starts from the same heap. *)
  let prepare k =
    if k land 1 = 0 then begin
      let s = Par.Node.run ~domains plan in
      check_round oracle plan s t;
      goodputs := goodput_mbps plan s :: !goodputs
    end;
    Gc.full_major ();
    prepare k
  in
  let win =
    Hostcost.window ~prepare ~seconds ~min_rounds:6 (fun _ ->
        ignore (Par.Node.run ~domains:1 plan : Par.Node.stats);
        frames)
  in
  ( [
      ("frames_per_ref_s", win.Hostcost.ref_rate);
      ("minor_words_per_frame", Pstat.per_frame ~frames words);
      ("peak_heap_mb", heap);
      ("sim_goodput_mbps", Pstat.median (Array.of_list !goodputs));
    ],
    lat )

(* Counters of one 2-domain run that the ledger reads. *)
let self_drains (s : Par.Node.stats) = Layers.sum_suffix s.Par.Node.registry "par.ring.self_drains"

let traced ~seed ~seconds (t : Pstat.tally) =
  let plan = plan ~seed () in
  let frames = Array.length plan.Par.Rss.frames in
  let pm0 = Packet.Metrics.snapshot () in
  let oracle = Par.Node.run ~domains:1 plan in
  let pm1 = Packet.Metrics.snapshot () in
  check_oracle plan oracle t;
  (* The per-call costs are single-threaded, so the closure compares them
     with the 1-domain host cost per frame. *)
  let oracle_win =
    Hostcost.window ~seconds:(seconds /. 4.) ~min_rounds:3 (fun _ ->
        ignore (Par.Node.run ~domains:1 plan : Par.Node.stats);
        frames)
  in
  let oracle_ns = 1e9 /. Pstat.host_rate oracle_win.Hostcost.host_rates in
  let runs = ref [] in
  let win2 =
    Hostcost.window ~seconds:(seconds /. 4.) ~min_rounds:3 (fun _ ->
        let s = Par.Node.run ~domains plan in
        check_round oracle plan s t;
        runs := s :: !runs;
        frames)
  in
  let med f = Pstat.median (Array.of_list (List.map f !runs)) in
  let busy_mean (s : Par.Node.stats) = s.Par.Node.busy_sum_us /. float_of_int s.Par.Node.domains in
  let budget = seconds /. 2. /. 8. in
  (* Per-call costs on a two-host testbed with the same handler set as a
     par node (trio, UDP server on port 7, cache on), fed plan frames. *)
  let sample = Array.sub plan.Par.Rss.frames 0 256 |> Array.map (fun f -> f.Par.Rss.bytes) in
  let m = Udp_world.create ~flowcache:true ~ports:[| 7 |] in
  Udp_world.warm m;
  let dev = Udp_world.rx_dev m.b in
  let base = Layers.common_costs ~budget in
  let costs =
    {
      base with
      Layers.ns_raise =
        Layers.raise ~budget ~drain:(fun () -> Sim.Engine.run m.engine) ~dev (Udp_world.ether_event m.b) sample;
      ns_parse = Layers.parse ~budget sample;
      ns_cksum_kb = Layers.cksum_per_kb ~budget sample;
      ns_handoff = Layers.spsc_handoff ~budget;
    }
  in
  let rx = Layers.rx ~budget ~engine:m.engine ~dev (Array.sub sample 0 32) in
  let pf x = Pstat.per_frame ~frames (float_of_int x) in
  let forwarded_frac = med (fun s -> Pstat.ratio s.Par.Node.forwarded frames) in
  (* Every raise, cache-served ones included.  The timed raise is a
     root raise whose cache hit replays the whole recorded chain, so it
     is weighted by root (device event) raises only. *)
  let raises = pf (Layers.sum_suffix oracle.Par.Node.registry ".PacketRecv.raises") in
  let root_raises = pf (Layers.sum_suffix oracle.Par.Node.registry "ethernet0.PacketRecv.raises") in
  let layers =
    Layers.weighted costs ~events:0. ~items:0. ~raises:root_raises
      ~mbuf_ops:(pf (pm1.Packet.Metrics.allocs - pm0.Packet.Metrics.allocs + pm1.Packet.Metrics.recycled - pm0.Packet.Metrics.recycled))
      ~handoffs:forwarded_frac ~frame_bytes:(Layers.mean_length sample)
  in
  layers @ Layers.cost_metrics costs
  @ Layers.closure ~measured_ns:oracle_ns layers
  @ [
      ("spin.raises_per_frame", raises);
      ("spin.residual_evals_per_frame", pf oracle.Par.Node.tree_residual_evals);
      ( "spin.cache_hit_ratio",
        Pstat.ratio oracle.Par.Node.cache_hits (oracle.Par.Node.cache_hits + oracle.Par.Node.cache_misses) );
      ( "spin.cache_invalidations_per_kframe",
        Pstat.per_kframe ~frames
          (float_of_int (Layers.sum_suffix oracle.Par.Node.registry "spin.path_cache.invalidations")) );
      ("spin.cache_evictions_per_kframe", Pstat.per_kframe ~frames (float_of_int oracle.Par.Node.cache_evictions));
      ("packet.copies_per_frame", pf (pm1.Packet.Metrics.copies - pm0.Packet.Metrics.copies));
      ("packet.bytes_copied_per_frame", pf (pm1.Packet.Metrics.bytes_copied - pm0.Packet.Metrics.bytes_copied));
      ("packet.buf_allocs_per_frame", pf (pm1.Packet.Metrics.allocs - pm0.Packet.Metrics.allocs));
      ("packet.recycled_per_frame", pf (pm1.Packet.Metrics.recycled - pm0.Packet.Metrics.recycled));
      ("plexus.rx_host_ns_per_frame", rx);
      ( "netsim.drops_per_kframe",
        Pstat.per_kframe ~frames
          (float_of_int
             (List.fold_left
                (fun acc g -> acc + Layers.sum_suffix ~gauges:true oracle.Par.Node.registry g)
                0 [ ".tx_drops"; ".rx_drops"; ".wire_drops" ])) );
      ("par.forwarded_frac", forwarded_frac);
      ("par.frames_per_host_s", Pstat.host_rate win2.Hostcost.host_rates);
      ("par.busy_imbalance", med (fun s -> s.Par.Node.busy_max_us /. busy_mean s));
      ("par.ring_self_drains", med (fun s -> float_of_int (self_drains s)));
      ("par.sim_speedup", med (fun s -> s.Par.Node.datagrams_per_s /. oracle.Par.Node.datagrams_per_s));
    ]
