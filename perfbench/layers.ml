(* The per-layer ledger of the traced run.

   Step 1 (counts): counters read at the edges of a window from every
   host's dispatcher, registry, CPU and devices, the engine and the
   global packet metrics.  Step 2 (host cost per call): each layer's
   public function timed on the workload's own frames.  Step 3 (weight):
   per-call cost times calls per frame.  The weighted layer costs are
   summed against the measured host ns per frame; what they leave out is
   [unattributed_frac]. *)

(* --- step 1: counts --------------------------------------------------- *)

type counts = {
  events : int;
  cpu_items : int;
  raises : int;
  residual_evals : int;
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  cache_evictions : int;
  tcp_no_match : int;
  drops : int;
  copies : int;
  bytes_copied : int;
  allocs : int;
  recycled : int;
  spans : int;
}

(* Sum every counter (or, with [~gauges:true], every sampled gauge) of
   [reg] whose name ends in [suffix]. *)
let sum_suffix ?(gauges = false) reg suffix =
  List.fold_left
    (fun acc (name, s) ->
      match s with
      | Observe.Registry.Count n when (not gauges) && String.ends_with ~suffix name -> acc + n
      | Observe.Registry.Level n when gauges && String.ends_with ~suffix name -> acc + n
      | _ -> acc)
    0
    (Observe.Registry.snapshot reg)

let kernel s = Netsim.Host.kernel (Plexus.Stack.host s)

let snapshot ~engine ~stacks ~rings =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stacks in
  let disp s = Plexus.Graph.dispatcher (Plexus.Stack.graph s) in
  let dev_sum f =
    sum (fun s ->
        List.fold_left
          (fun acc d -> acc + f (Netsim.Dev.counters d))
          0
          (Netsim.Host.devices (Plexus.Stack.host s)))
  in
  let pm = Packet.Metrics.snapshot () in
  {
    events = Sim.Engine.events_run engine;
    cpu_items = sum (fun s -> Sim.Cpu.served (Netsim.Host.cpu (Plexus.Stack.host s)));
    raises = sum (fun s -> Spin.Dispatcher.raises (disp s));
    residual_evals =
      sum (fun s -> sum_suffix (Spin.Kernel.registry (kernel s)) ".tree.residual_evals");
    cache_hits = sum (fun s -> Spin.Dispatcher.path_cache_hits (disp s));
    cache_misses = sum (fun s -> Spin.Dispatcher.path_cache_misses (disp s));
    cache_invalidations = sum (fun s -> Spin.Dispatcher.path_cache_invalidations (disp s));
    cache_evictions = sum (fun s -> Spin.Dispatcher.path_cache_evictions (disp s));
    tcp_no_match = sum (fun s -> (Plexus.Tcp_mgr.counters (Plexus.Stack.tcp s)).Plexus.Tcp_mgr.no_match);
    drops =
      dev_sum (fun c ->
          c.Netsim.Dev.tx_drops + c.Netsim.Dev.rx_drops + c.Netsim.Dev.wire_drops);
    copies = pm.Packet.Metrics.copies;
    bytes_copied = pm.Packet.Metrics.bytes_copied;
    allocs = pm.Packet.Metrics.allocs;
    recycled = pm.Packet.Metrics.recycled;
    spans =
      List.fold_left
        (fun acc r -> acc + Observe.Trace.Ring.length r + Observe.Trace.Ring.dropped r)
        0 rings;
  }

let diff a b =
  {
    events = b.events - a.events;
    cpu_items = b.cpu_items - a.cpu_items;
    raises = b.raises - a.raises;
    residual_evals = b.residual_evals - a.residual_evals;
    cache_hits = b.cache_hits - a.cache_hits;
    cache_misses = b.cache_misses - a.cache_misses;
    cache_invalidations = b.cache_invalidations - a.cache_invalidations;
    cache_evictions = b.cache_evictions - a.cache_evictions;
    tcp_no_match = b.tcp_no_match - a.tcp_no_match;
    drops = b.drops - a.drops;
    copies = b.copies - a.copies;
    bytes_copied = b.bytes_copied - a.bytes_copied;
    allocs = b.allocs - a.allocs;
    recycled = b.recycled - a.recycled;
    spans = b.spans - a.spans;
  }

(* Ring sinks on every kernel; the spans they take are counted as
   retained plus overwritten. *)
let attach_rings stacks =
  List.map
    (fun s ->
      let r = Observe.Trace.Ring.create ~capacity:4096 () in
      Observe.Trace.set_sink (Spin.Kernel.trace (kernel s)) (Observe.Trace.Ring r);
      r)
    stacks

let detach_rings stacks =
  List.iter (fun s -> Observe.Trace.set_sink (Spin.Kernel.trace (kernel s)) Observe.Trace.Null) stacks

(* --- step 2: host cost per call --------------------------------------- *)

(* The workload's own frames: copies of those that reach [stacks]'
   devices while [drive] runs, taken by a handler on each device event
   and removed after. *)
let capture ~stacks ~limit drive =
  let frames = ref [] and n = ref 0 in
  let uninstall =
    List.concat_map
      (fun s ->
        List.map
          (fun e ->
            Spin.Dispatcher.install
              (Plexus.Graph.recv_event (Plexus.Ether_mgr.node e))
              ~label:"capture" ~cost:Sim.Stime.zero
              (fun ctx ->
                if !n < limit then begin
                  incr n;
                  frames := Mbuf.to_string ctx.Plexus.Pctx.pkt :: !frames
                end))
          (Plexus.Stack.ethers s))
      stacks
  in
  drive ();
  List.iter (fun u -> u ()) uninstall;
  Array.of_list (List.rev !frames)

let noop () = ()

(* A bare engine event: schedule, pop and run.  Returns host ns and
   minor words per event. *)
let engine_event ~budget =
  let e = Sim.Engine.create () in
  let reps = 1000 in
  let batch () =
    for i = 1 to reps do
      ignore (Sim.Engine.schedule_in e ~delay:(Sim.Stime.ns i) noop : Sim.Engine.handle)
    done;
    Sim.Engine.run e
  in
  let w0 = Hostcost.minor_words () in
  batch ();
  let words = (Hostcost.minor_words () -. w0) /. float_of_int reps in
  let ns =
    Hostcost.ns_per_op ~budget (fun () ->
        let t0 = Hostcost.now () in
        batch ();
        (Hostcost.now () -. t0, reps))
  in
  (ns, words)

(* One [Cpu.run] work item served to completion, engine event included;
   also returns the engine events one item takes. *)
let cpu_item ~budget =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"perfbench" in
  let reps = 1000 in
  let batch () =
    for _ = 1 to reps do
      Sim.Cpu.run cpu ~cost:(Sim.Stime.ns 10) noop
    done;
    Sim.Engine.run e
  in
  let ev0 = Sim.Engine.events_run e in
  batch ();
  let events = float_of_int (Sim.Engine.events_run e - ev0) /. float_of_int reps in
  let ns =
    Hostcost.ns_per_op ~budget (fun () ->
        let t0 = Hostcost.now () in
        batch ();
        (Hostcost.now () -. t0, reps))
  in
  (ns, events)

(* An SPSC ring handoff: one push and one pop. *)
let spsc_handoff ~budget =
  let r = Par.Spsc.create ~capacity:1024 in
  let reps = 512 in
  Hostcost.ns_per_op ~budget (fun () ->
      let t0 = Hostcost.now () in
      for i = 1 to reps do
        ignore (Par.Spsc.try_push r i : bool)
      done;
      ignore (Par.Spsc.drain r ignore : int);
      (Hostcost.now () -. t0, reps))

(* An mbuf life cycle as the send path runs it: alloc, prepend the
   UDP/IP/Ethernet headers, free. *)
let mbuf_cycle ~budget =
  Hostcost.ns_per_call ~budget (fun () ->
      let m = Mbuf.alloc 64 in
      ignore (Mbuf.prepend m 42 : View.rw View.t);
      Mbuf.free m)

(* Header parse and validation of one captured frame: Ethernet, IPv4
   (with its header checksum) and the UDP or TCP header.  The transport
   checksum is per-byte work and is counted under packet.cksum. *)
let parse_frame v =
  match Proto.Ether.parse v with
  | Some eh when eh.Proto.Ether.etype = Proto.Ether.etype_ip -> (
      let ipv = View.shift v Proto.Ether.header_len in
      match Proto.Ipv4.parse ipv with
      | Some ih when Proto.Ipv4.checksum_valid ipv ->
          let l4 =
            View.sub ipv ~off:Proto.Ipv4.header_len
              ~len:(ih.Proto.Ipv4.total_len - Proto.Ipv4.header_len)
          in
          if ih.Proto.Ipv4.proto = Proto.Ipv4.proto_udp then
            Option.is_some (Proto.Udp.parse l4)
          else if ih.Proto.Ipv4.proto = Proto.Ipv4.proto_tcp then
            Option.is_some (Proto.Tcp_wire.parse l4)
          else true
      | _ -> false)
  | Some _ -> true
  | None -> false

let parse ~budget frames =
  let views = Array.map View.of_string frames in
  Array.iter (fun v -> if not (parse_frame v) then failwith "perfbench: captured frame does not parse") views;
  Hostcost.ns_per_op ~budget (fun () ->
      let t0 = Hostcost.now () in
      Array.iter (fun v -> ignore (parse_frame v : bool)) views;
      (Hostcost.now () -. t0, Array.length views))

(* Checksum host ns per KiB over the captured frames as mbufs. *)
let cksum_per_kb ~budget frames =
  let ms = Array.map (fun s -> Mbuf.ro (Mbuf.of_string s)) frames in
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 frames in
  let ns_per_frame =
    Hostcost.ns_per_op ~budget (fun () ->
        let t0 = Hostcost.now () in
        Array.iter (fun m -> ignore (Cksum.of_mbuf m : int)) ms;
        (Hostcost.now () -. t0, Array.length ms))
  in
  ns_per_frame *. float_of_int (Array.length frames) /. (float_of_int bytes /. 1024.)

let fresh_mbufs frames = Array.to_list (Array.map (fun s -> Mbuf.ro (Mbuf.of_string s)) frames)

(* [Dispatcher.raise] of the receiving device's event on the workload's
   captured frames, with the workload's handler set installed.  Only the
   raise is timed; the deliveries it queues drain untimed. *)
let raise ~budget ~drain ~dev ev frames =
  Hostcost.ns_per_op ~budget (fun () ->
      let ctxs = List.map (Plexus.Pctx.make dev) (fresh_mbufs frames) in
      let t0 = Hostcost.now () in
      List.iter (fun c -> Spin.Dispatcher.raise ev c) ctxs;
      let dt = Hostcost.now () -. t0 in
      drain ();
      (dt, Array.length frames))

(* The whole receive path: a coalesced [Dev.deliver_batch] of prebuilt
   frame copies and the engine run that carries them up the graph. *)
let rx ~budget ~engine ~dev frames =
  Hostcost.ns_per_op ~budget (fun () ->
      let ms = fresh_mbufs frames in
      let t0 = Hostcost.now () in
      Netsim.Dev.deliver_batch dev ms;
      Sim.Engine.run engine;
      (Hostcost.now () -. t0, Array.length frames))

(* --- step 3: weight ---------------------------------------------------- *)

(* Per-call costs measured for one workload; 0 where a layer has no
   call on that workload. *)
type costs = {
  ns_event : float;
  words_event : float;
  ns_cpu_item : float;
  events_per_item : float;
  ns_raise : float;
  ns_parse : float;
  ns_cksum_kb : float;
  ns_mbuf : float;
  ns_handoff : float;
  ns_ext : float;  (* the benchmark's own closures, per frame *)
}

(* Frames' bytes checksummed once when sent and once when received. *)
let cksum_kb_per_frame ~frame_bytes = 2. *. frame_bytes /. 1024.

(* Weighted host ns per frame for each layer, from per-call costs and
   per-frame counts of engine events, CPU items, raises, mbuf
   operations and ring handoffs. *)
let weighted costs ~events ~items ~raises ~mbuf_ops ~handoffs ~frame_bytes =
  let cpu_self =
    Float.max 0. (costs.ns_cpu_item -. (costs.events_per_item *. costs.ns_event))
  in
  [
    ("sim.host_ns_per_frame", (events *. costs.ns_event) +. (items *. cpu_self));
    ("spin.host_ns_per_frame", raises *. costs.ns_raise);
    ("proto.parse_host_ns_per_frame", costs.ns_parse);
    ( "packet.host_ns_per_frame",
      (costs.ns_cksum_kb *. cksum_kb_per_frame ~frame_bytes) +. (mbuf_ops *. costs.ns_mbuf) );
    ("par.host_ns_per_frame", handoffs *. costs.ns_handoff);
    ("ext.host_ns_per_frame", costs.ns_ext);
  ]

(* Counts of a window, per frame, as per-layer metrics. *)
let count_metrics ~frames c =
  let pf x = Pstat.per_frame ~frames (float_of_int x) in
  let pk x = Pstat.per_kframe ~frames (float_of_int x) in
  [
    ("sim.events_per_frame", pf c.events);
    ("sim.cpu_items_per_frame", pf c.cpu_items);
    ("spin.raises_per_frame", pf c.raises);
    ("spin.residual_evals_per_frame", pf c.residual_evals);
    ("spin.cache_hit_ratio", Pstat.ratio c.cache_hits (c.cache_hits + c.cache_misses));
    ("spin.cache_invalidations_per_kframe", pk c.cache_invalidations);
    ("spin.cache_evictions_per_kframe", pk c.cache_evictions);
    ("plexus.tcp_no_match_per_kframe", pk c.tcp_no_match);
    ("netsim.drops_per_kframe", pk c.drops);
    ("packet.copies_per_frame", pf c.copies);
    ("packet.bytes_copied_per_frame", pf c.bytes_copied);
    ("packet.buf_allocs_per_frame", pf c.allocs);
    ("packet.recycled_per_frame", pf c.recycled);
    ("observe.spans_per_frame", pf c.spans);
  ]

(* The closure: weighted layer costs against the measured host ns per
   frame.  Negative means the per-call costs over-count (they overlap,
   or run faster in the workload than alone). *)
let closure ~measured_ns layers =
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. layers in
  [
    ("host_ns_per_frame", measured_ns);
    ("unattributed_frac", 1. -. (attributed /. measured_ns));
  ]

(* The substrate costs every workload shares; the workload fills in the
   calls it makes on its own frames. *)
let common_costs ~budget =
  let ns_event, words_event = engine_event ~budget in
  let ns_cpu_item, events_per_item = cpu_item ~budget in
  {
    ns_event;
    words_event;
    ns_cpu_item;
    events_per_item;
    ns_raise = 0.;
    ns_parse = 0.;
    ns_cksum_kb = 0.;
    ns_mbuf = mbuf_cycle ~budget;
    ns_handoff = 0.;
    ns_ext = 0.;
  }

let cost_metrics c =
  [
    ("sim.host_ns_per_event", c.ns_event);
    ("sim.words_per_event", c.words_event);
    ("sim.host_ns_per_cpu_item", c.ns_cpu_item);
    ("spin.host_ns_per_raise", c.ns_raise);
    ("packet.cksum_host_ns_per_kb", c.ns_cksum_kb);
    ("packet.mbuf_host_ns_per_cycle", c.ns_mbuf);
    ("par.host_ns_per_handoff", c.ns_handoff);
  ]

(* --- the traced run of a single-engine workload ------------------------ *)

type windows = {
  fps_untraced : float;
  fps_traced : float;
  frames : int;
  counts : counts;
  util : float;
}

(* An untraced window, then a window with ring sinks on every kernel
   whose counters are read at its edges.  Each takes a quarter of
   [seconds]; the other half is left for per-call costs. *)
let windows ~seconds ~engine ~stacks ~busy_cpu round =
  let q = seconds /. 4. in
  let untraced = Hostcost.window ~seconds:q ~min_rounds:3 round in
  let rings = attach_rings stacks in
  let c0 = snapshot ~engine ~stacks ~rings in
  Sim.Cpu.reset_window busy_cpu;
  let traced = Hostcost.window ~seconds:q ~min_rounds:3 round in
  let util = Sim.Cpu.utilization busy_cpu in
  let c1 = snapshot ~engine ~stacks ~rings in
  detach_rings stacks;
  {
    fps_untraced = Pstat.host_rate untraced.Hostcost.host_rates;
    fps_traced = Pstat.host_rate traced.Hostcost.host_rates;
    frames = traced.Hostcost.frames;
    counts = diff c0 c1;
    util;
  }

let overhead_pct ~untraced ~traced = 100. *. (untraced -. traced) /. untraced

let ledger w costs ~frame_bytes =
  let pf x = Pstat.per_frame ~frames:w.frames (float_of_int x) in
  let c = w.counts in
  let layers =
    weighted costs ~events:(pf c.events) ~items:(pf c.cpu_items) ~raises:(pf c.raises)
      ~mbuf_ops:(pf (c.allocs + c.recycled)) ~handoffs:0. ~frame_bytes
  in
  count_metrics ~frames:w.frames c
  @ layers @ cost_metrics costs
  @ closure ~measured_ns:(1e9 /. w.fps_untraced) layers
  @ [
      ("sim.cpu_util", w.util);
      ( "observe.trace_overhead_pct",
        overhead_pct ~untraced:w.fps_untraced ~traced:w.fps_traced );
    ]

let mean_length frames =
  float_of_int (Array.fold_left (fun acc s -> acc + String.length s) 0 frames)
  /. float_of_int (Array.length frames)
