(* Per-domain datapath nodes and the multicore runner.  See node.mli. *)

(* [Spin.Domain] is the paper's *protection* domain (named interfaces
   guarding extension linkage); [Stdlib.Domain] is an OCaml 5 execution
   domain.  The alias keeps every use in this file unambiguous — see
   DESIGN.md "Multicore datapath". *)
module Sdomain = Stdlib.Domain

(* Simulated cost of the RSS redirect a steering node pays to hand a
   mis-sharded frame to its owner: a header hash plus a ring push, far
   below full protocol processing. *)
let forward_cost = Sim.Stime.ns 500

type world = {
  engine : Sim.Engine.t;
  host : Netsim.Host.t;  (* server host *)
  cpu : Sim.Cpu.t;
  dev : Netsim.Dev.t;  (* server receive device *)
  stack : Plexus.Stack.t;
  udp : Plexus.Udp_mgr.t;
  tap_frames : int ref;
  acct_bytes : int ref;
  swap_tap : unit -> unit;
      (* hot-swap the tap extension for a behaviorally identical next
         generation (Linker.replace through the node's dispatcher) *)
  swaps : int ref;
}

(* The wire tap as a proper compiler-signed extension, so the parallel
   runner can exercise [Linker.replace] under load.  Every generation
   increments the same [tap_frames] cell with the same cost and label,
   which is what makes swap churn invisible to the oracle equivalence
   counters: only the lifecycle differs, never the datapath behavior. *)
let make_tap_ext ~ev ~tap_frames ~gen =
  Spin.Extension.Compiler.compile
    ~name:(Printf.sprintf "par.tap.gen%d" gen)
    ~ops:[ Spin.Verifier.Count ]
    ~imports:[]
    (fun lk ->
      let uninstall =
        Spin.Dispatcher.install ev
          ~guard:(fun _ -> true)
          ~cacheable:true ~label:"tap" ~cost:(Sim.Stime.us 2)
          (fun _ -> incr tap_frames)
      in
      lk.Spin.Extension.on_unlink uninstall)

(* One node's private copy of the steady-state server world: the
   canonical two-host testbed with the paper's extension trio on the
   server — a wire tap on the ether event, a firewall monitor and a
   byte-accounting monitor on the ip event — and a bound UDP server on
   port 7 (the PR 4/PR 6 bench configuration). *)
let make_world ~flowcache () =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine
      (Netsim.Costs.ethernet ())
      ~a:("hostA", Rss.ip_a) ~b:("hostB", Rss.ip_b)
  in
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  if flowcache then
    List.iter
      (fun s ->
        Spin.Dispatcher.set_flow_cache
          (Plexus.Graph.dispatcher (Plexus.Stack.graph s))
          true)
      [ a; b ];
  let ether_ev =
    Plexus.Graph.recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether b))
  in
  let ip_ev =
    Plexus.Graph.recv_event (Plexus.Ip_mgr.node (Plexus.Stack.ip b))
  in
  let tap_frames = ref 0 and acct_bytes = ref 0 in
  let disp = Plexus.Graph.dispatcher (Plexus.Stack.graph b) in
  let tap_domain =
    Spin.Kernel.root_domain (Netsim.Host.kernel eb.Netsim.Network.host)
  in
  let tap_gen = ref 0 in
  let tap_link =
    ref
      (match
         Spin.Linker.link ~domain:tap_domain
           (make_tap_ext ~ev:ether_ev ~tap_frames ~gen:0)
       with
      | Ok l -> l
      | Error _ -> failwith "Par.Node: tap link failed")
  in
  let swaps = ref 0 in
  let swap_tap () =
    incr tap_gen;
    match
      Spin.Linker.replace ~disp ~domain:tap_domain !tap_link
        (make_tap_ext ~ev:ether_ev ~tap_frames ~gen:!tap_gen)
    with
    | Ok (nl, _) ->
        tap_link := nl;
        incr swaps
    | Error _ -> failwith "Par.Node: tap swap failed"
  in
  let udp_guard ctx =
    match ctx.Plexus.Pctx.ip with
    | Some ip -> ip.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
    | None -> false
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ip_ev ~guard:udp_guard ~cacheable:true
      ~label:"firewall" ~cost:(Sim.Stime.us 2)
      (fun _ -> ())
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ip_ev ~guard:udp_guard ~cacheable:true
      ~label:"acct" ~cost:(Sim.Stime.us 1)
      (fun ctx -> acct_bytes := !acct_bytes + Plexus.Pctx.payload_len ctx)
  in
  let udp = Plexus.Stack.udp b in
  let server =
    match Plexus.Udp_mgr.bind udp ~owner:"srv" ~port:7 with
    | Ok ep -> ep
    | Error _ -> failwith "Par.Node: server bind failed"
  in
  let (_ : unit -> unit) = Plexus.Udp_mgr.install_recv udp server (fun _ -> ()) in
  {
    engine;
    host = eb.Netsim.Network.host;
    cpu = Netsim.Host.cpu eb.Netsim.Network.host;
    dev = eb.Netsim.Network.dev;
    stack = b;
    udp;
    tap_frames;
    acct_bytes;
    swap_tap;
    swaps;
  }

type domain_stats = {
  dom : int;
  processed : int;
  forwarded_out : int;
  forwarded_in : int;
  delivered : int;
  udp_rx : int;
  arp_replies : int;
  tap_frames : int;
  acct_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  tree_raises : int;
  tree_residual_evals : int;
  swaps : int;
  busy_us : float;
  registry : Observe.Registry.t;
  flight : Observe.Flight.t;
}

(* Sum every per-event merged-tree counter with the given suffix (e.g.
   "udp.PacketRecv" and "ip.PacketRecv" each expose their own
   [spin.<event>.tree.raises]). *)
let sum_counters reg ~suffix =
  List.fold_left
    (fun acc (name, s) ->
      match s with
      | Observe.Registry.Count n
        when String.length name >= String.length suffix
             && String.sub name
                  (String.length name - String.length suffix)
                  (String.length suffix)
                = suffix ->
          acc + n
      | _ -> acc)
    0
    (Observe.Registry.snapshot reg)

(* The worker body.  Phase A walks the plan's frames steered to this
   node: owned frames are injected in bursts into the private stack,
   mis-sharded frames are pushed owner-ward (draining our own incoming
   rings while a peer's ring is full, which keeps the mesh
   deadlock-free).  After the countdown on [active], phase B drains
   peer rings until every producer has finished and the rings are
   observed empty — sound because phase B never pushes, so once
   [active] reaches zero no new frame can appear. *)
let worker ~plan ~domains ~flowcache ~flight_rate ~batch ~swap_every ~rings
    ~active me =
  let w = make_world ~flowcache () in
  let incoming = Array.init domains (fun j -> rings.(j).(me)) in
  let outgoing = rings.(me) in
  let kernel = Netsim.Host.kernel w.host in
  let reg = Spin.Kernel.registry kernel in
  let tr = Spin.Kernel.trace kernel in
  (* This node's flight recorder.  Sampling decisions do NOT come from
     its own [admit] dice: every injected frame is pre-stamped from the
     plan ordinal via the pure [mark_for] (seeded by the plan), so all
     domains agree on the sampled set and a forwarded frame keeps its
     packet id on the owner node without shipping the mark through the
     ring.  Unsampled frames are stamped [-1] so the device ingress
     doesn't re-roll with domain-local state. *)
  let fl = Spin.Kernel.flight kernel in
  if flight_rate > 0 then begin
    Observe.Flight.set_rate fl flight_rate;
    Observe.Flight.set_domain fl me
  end;
  let mark_of f = Observe.Flight.mark_for ~seed:plan.Rss.seed ~rate:flight_rate f.Rss.pkt in
  let ring_enqueues = Observe.Registry.counter reg "par.ring.enqueues" in
  let ring_self_drains = Observe.Registry.counter reg "par.ring.self_drains" in
  let ring_phase_b = Observe.Registry.counter reg "par.ring.phase_b_drains" in
  let handoff_span op ~from_domain ~to_domain ~frames =
    if Observe.Trace.active tr then
      Observe.Trace.emit tr
        {
          Observe.Trace.at_ns = Sim.Stime.to_ns (Sim.Engine.now w.engine);
          event = Observe.Trace.Handoff { op; from_domain; to_domain; frames };
        }
  in
  let local = ref [] and nlocal = ref 0 in
  (* [stamp.(k)] is the number of the last burst that carried a frame of
     flow key [k] (see [inject]), so starting a new burst clears every
     flow at once. *)
  let stamp = Array.make (plan.Rss.flows + 1) (-1) and burst = ref 0 in
  let processed = ref 0 and forwarded_out = ref 0 and forwarded_in = ref 0 in
  let flush () =
    if !nlocal > 0 then begin
      Netsim.Dev.deliver_batch w.dev (List.rev !local);
      local := [];
      nlocal := 0;
      incr burst;
      Sim.Engine.run w.engine
    end
  in
  (* Flow-aware coalescing: a burst never carries two frames of the same
     flow.  A path recording only commits once the chain's work items
     drain (at the burst-closing [Engine.run]), so a flow's second frame
     inside one burst would re-miss — and whether that happens would
     depend on where burst boundaries fall, which differs between the
     oracle's arrival order and a domain's subsequence.  Keeping each
     flow unique per burst makes the hit/miss totals a pure function of
     the flow set, which is what the equivalence soak asserts.  Flow [i]
     has key [i + 1].  ARP requests all share one path signature (the
     ether-level key does not see the sender), so they coalesce under
     the single key 0: on the owner node a drained, forwarded ARP can
     otherwise land in the same burst as a locally steered one and pay
     a spurious re-miss the oracle never sees. *)
  let inject (f : Rss.frame) =
    let key =
      match f.Rss.kind with Rss.Udp { flow } -> flow + 1 | Rss.Arp _ -> 0
    in
    if stamp.(key) = !burst then flush ();
    stamp.(key) <- !burst;
    (* wrap the shared immutable frame bytes into a domain-local mbuf —
       the node's "DMA" into its own pool *)
    let m = Mbuf.of_string f.Rss.bytes in
    if flight_rate > 0 then begin
      let id = mark_of f in
      Observe.Flight.tally fl ~sampled:(id > 0);
      Mbuf.set_mark m (if id = 0 then -1 else id)
    end;
    local := Mbuf.ro m :: !local;
    incr nlocal;
    incr processed;
    (* Lifecycle churn: every [swap_every]-th frame this node injects,
       hot-swap the tap extension.  The engine is quiescent at every
       inject point (flush runs it to quiescence), so each swap retires
       the old generation with nothing queued — and because every
       generation is behaviorally identical, the oracle equivalence
       counters are unaffected no matter where the swaps land. *)
    if swap_every > 0 && !processed mod swap_every = 0 then w.swap_tap ();
    if !nlocal >= batch then flush ()
  in
  (* [op]: None for routine incoming service; [Some] at the two
     documented handoff observation points (backpressure self-drain,
     phase-B quiescence) to bump the matching [par.ring.*] counter and
     emit a {!Observe.Trace.Handoff} span per non-empty peer ring. *)
  let drain_incoming ?op () =
    let n = ref 0 in
    Array.iteri
      (fun j ring ->
        if j <> me then begin
          let k =
            Spsc.drain ring (fun f ->
                incr forwarded_in;
                inject f)
          in
          if k > 0 then
            (match op with
            | Some ("self_drain" as op) ->
                ring_self_drains := !ring_self_drains + k;
                handoff_span op ~from_domain:j ~to_domain:me ~frames:k
            | Some ("phase_b_drain" as op) ->
                ring_phase_b := !ring_phase_b + k;
                handoff_span op ~from_domain:j ~to_domain:me ~frames:k
            | Some _ | None -> ());
          n := !n + k
        end)
      incoming;
    !n
  in
  let steered = ref 0 in
  Array.iter
    (fun f ->
      if Rss.steer ~domains f = me then begin
        incr steered;
        let owner = Rss.owner ~domains f in
        if owner = me then inject f
        else begin
          Sim.Cpu.charge w.cpu ~cost:forward_cost;
          incr forwarded_out;
          let ring = outgoing.(owner) in
          while not (Spsc.try_push ring f) do
            ignore (drain_incoming ~op:"self_drain" ());
            flush ();
            Sdomain.cpu_relax ()
          done;
          incr ring_enqueues;
          handoff_span "enqueue" ~from_domain:me ~to_domain:owner ~frames:1;
          (* The hop is charged to the sender: its clock, its domain id
             in the record.  The owner's ingress/handler stages follow
             under the same packet id once it drains the ring. *)
          if flight_rate > 0 && Observe.Flight.enabled fl then begin
            let id = mark_of f in
            if id > 0 then
              Observe.Flight.note fl ~pkt:id
                ~at_ns:(Sim.Stime.to_ns (Sim.Engine.now w.engine))
                ~dur_ns:0
                (Observe.Flight.Hop { from_domain = me; to_domain = owner })
          end
        end;
        if !steered land (batch - 1) = 0 then ignore (drain_incoming ())
      end)
    plan.Rss.frames;
  flush ();
  Atomic.decr active;
  let rec settle () =
    let n = drain_incoming ~op:"phase_b_drain" () in
    flush ();
    if n > 0 then settle ()
    else if Atomic.get active > 0 then begin
      Sdomain.cpu_relax ();
      settle ()
    end
    else begin
      (* producers all done: one last drain closes the race between our
         empty read and a peer's final push *)
      let n = drain_incoming ~op:"phase_b_drain" () in
      flush ();
      if n > 0 then settle ()
    end
  in
  settle ();
  let d = Plexus.Graph.dispatcher (Plexus.Stack.graph w.stack) in
  let u = Plexus.Udp_mgr.counters w.udp in
  {
    dom = me;
    processed = !processed;
    forwarded_out = !forwarded_out;
    forwarded_in = !forwarded_in;
    delivered = u.Plexus.Udp_mgr.delivered;
    udp_rx = u.Plexus.Udp_mgr.rx;
    arp_replies = Plexus.Arp_mgr.replies_sent (Plexus.Stack.arp w.stack);
    tap_frames = !(w.tap_frames);
    acct_bytes = !(w.acct_bytes);
    cache_hits = Spin.Dispatcher.path_cache_hits d;
    cache_misses = Spin.Dispatcher.path_cache_misses d;
    cache_evictions = Spin.Dispatcher.path_cache_evictions d;
    tree_raises = sum_counters reg ~suffix:".tree.raises";
    tree_residual_evals = sum_counters reg ~suffix:".tree.residual_evals";
    swaps = !(w.swaps);
    busy_us = Sim.Stime.to_us (Sim.Cpu.busy_time w.cpu);
    registry = reg;
    flight = fl;
  }

type stats = {
  domains : int;
  frames : int;
  delivered : int;
  udp_rx : int;
  arp_replies : int;
  tap_frames : int;
  acct_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  tree_raises : int;
  tree_residual_evals : int;
  swaps : int;
  forwarded : int;
  busy_us : float array;
  busy_max_us : float;
  busy_sum_us : float;
  datagrams_per_s : float;
  wall_s : float;
  per_domain : domain_stats array;
  registry : Observe.Registry.t;
  flight : Observe.Flight.t;
}

let run ?(flowcache = true) ?(flight_rate = 0) ?(batch = 32)
    ?(ring_capacity = 1024) ?(swap_every = 0) ~domains plan =
  if domains < 1 then invalid_arg "Par.Node.run: domains must be >= 1";
  if batch < 1 then invalid_arg "Par.Node.run: batch must be >= 1";
  (* power-of-two batch keeps the periodic-drain mask trick valid *)
  let batch =
    let b = ref 1 in
    while !b < batch do b := !b * 2 done;
    !b
  in
  let t0 = Unix.gettimeofday () in
  let rings =
    Array.init domains (fun _ ->
        Array.init domains (fun _ -> Spsc.create ~capacity:ring_capacity))
  in
  let active = Atomic.make domains in
  let work me () =
    worker ~plan ~domains ~flowcache ~flight_rate ~batch ~swap_every ~rings
      ~active me
  in
  let per =
    if domains = 1 then [| work 0 () |]
    else begin
      let spawned =
        Array.init (domains - 1) (fun k -> Sdomain.spawn (work (k + 1)))
      in
      let d0 = work 0 () in
      Array.append [| d0 |] (Array.map Sdomain.join spawned)
    end
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sum (f : domain_stats -> int) =
    Array.fold_left (fun acc d -> acc + f d) 0 per
  in
  let busy_us = Array.map (fun (d : domain_stats) -> d.busy_us) per in
  let busy_max_us = Array.fold_left Float.max 0. busy_us in
  let busy_sum_us = Array.fold_left ( +. ) 0. busy_us in
  let delivered = sum (fun d -> d.delivered) in
  let forwarded = sum (fun d -> d.forwarded_out) in
  let merged =
    Observe.Registry.create ~name:(Printf.sprintf "parallel-%dd" domains) ()
  in
  Array.iter
    (fun d ->
      Observe.Registry.merge_into
        ~prefix:(Printf.sprintf "domain%d." d.dom)
        ~into:merged d.registry)
    per;
  Observe.Registry.counter merged "par.forwarded" := forwarded;
  Observe.Registry.counter merged "par.frames" := Array.length plan.Rss.frames;
  Observe.Registry.counter merged "par.delivered" := delivered;
  (* One merged timeline ring, sized so no per-domain record is shed at
     merge time; records keep their home domain for attribution. *)
  let merged_flight =
    Observe.Flight.create
      ~capacity:
        (Array.fold_left
           (fun acc (d : domain_stats) -> acc + Observe.Flight.length d.flight)
           1 per)
      ~rate:flight_rate ~seed:plan.Rss.seed ()
  in
  Array.iter
    (fun (d : domain_stats) ->
      Observe.Flight.merge_into ~into:merged_flight d.flight)
    per;
  {
    domains;
    frames = Array.length plan.Rss.frames;
    delivered;
    udp_rx = sum (fun d -> d.udp_rx);
    arp_replies = sum (fun d -> d.arp_replies);
    tap_frames = sum (fun d -> d.tap_frames);
    acct_bytes = sum (fun d -> d.acct_bytes);
    cache_hits = sum (fun d -> d.cache_hits);
    cache_misses = sum (fun d -> d.cache_misses);
    cache_evictions = sum (fun d -> d.cache_evictions);
    tree_raises = sum (fun d -> d.tree_raises);
    tree_residual_evals = sum (fun d -> d.tree_residual_evals);
    swaps = sum (fun d -> d.swaps);
    forwarded;
    busy_us;
    busy_max_us;
    busy_sum_us;
    datagrams_per_s =
      (if busy_max_us > 0. then float_of_int delivered /. (busy_max_us *. 1e-6)
       else 0.);
    wall_s;
    per_domain = per;
    registry = merged;
    flight = merged_flight;
  }

let equiv_counters s =
  [
    ("delivered", s.delivered);
    ("udp_rx", s.udp_rx);
    ("arp_replies", s.arp_replies);
    ("tap_frames", s.tap_frames);
    ("acct_bytes", s.acct_bytes);
    ("cache_hits", s.cache_hits);
    ("cache_misses", s.cache_misses);
    ("cache_evictions", s.cache_evictions);
    (* merged-tree dispatch is per-packet deterministic (replayed
       cache hits skip the walk, and hits already match above), so the
       sharded sums must equal the single-domain oracle's too *)
    ("tree_raises", s.tree_raises);
    ("tree_residual_evals", s.tree_residual_evals);
  ]
