(* The observability layer: histograms, the registry, trace rings, span
   emission from the dispatcher, and the zero-cost disabled path. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let us = Sim.Stime.us

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* ---- Histogram ------------------------------------------------------------ *)

(* The design bound: every value lands in a bucket whose midpoint is
   within 2^-(sub_bits+1) ≈ 3.1% of it (plus 1 absolute for the integer
   midpoint of tiny buckets). *)
let hist_bucket_error =
  QCheck.Test.make ~name:"bucket midpoint within the relative error bound"
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let r = Observe.Histogram.value_of (Observe.Histogram.bucket_of v) in
      abs (r - v) <= 1 + (v / 30))

let hist_vs_exact =
  QCheck.Test.make ~name:"quantiles near exact percentiles within the error bound"
    QCheck.(list_of_size (Gen.int_range 50 300) (int_bound 5_000_000))
    (fun samples ->
      QCheck.assume (samples <> []);
      let h = Observe.Histogram.create () in
      List.iter (Observe.Histogram.record h) samples;
      let exact_samples = Array.of_list (List.map float_of_int samples) in
      List.for_all
        (fun p ->
          let exact = Sim.Stats.percentile exact_samples p in
          let approx = float_of_int (Observe.Histogram.percentile h p) in
          (* rank conventions differ by at most one sample; allow the
             bucket error plus one sample-gap of slack *)
          abs_float (approx -. exact) <= 2. +. (0.07 *. (exact +. approx)))
        [ 50.; 90.; 99. ])

let hist_exact_counts () =
  let h = Observe.Histogram.create () in
  List.iter (Observe.Histogram.record h) [ 3; 14; 15; 9_265; 358_979 ];
  Alcotest.(check int) "count" 5 (Observe.Histogram.count h);
  Alcotest.(check int) "sum" 368_276 (Observe.Histogram.sum h);
  Alcotest.(check int) "min" 3 (Observe.Histogram.min_value h);
  Alcotest.(check int) "max" 358_979 (Observe.Histogram.max_value h);
  (* values below [sub] are recorded exactly *)
  Alcotest.(check int) "small values exact" 3
    (Observe.Histogram.percentile h 1.);
  Observe.Histogram.reset h;
  Alcotest.(check bool) "reset empties" true (Observe.Histogram.is_empty h)

let hist_merge () =
  let a = Observe.Histogram.create () and b = Observe.Histogram.create () in
  List.iter (Observe.Histogram.record a) [ 10; 20 ];
  List.iter (Observe.Histogram.record b) [ 30_000 ];
  Observe.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 3 (Observe.Histogram.count a);
  Alcotest.(check int) "merged max" 30_000 (Observe.Histogram.max_value a)

(* ---- Registry ------------------------------------------------------------- *)

let registry_find_or_create () =
  let r = Observe.Registry.create ~name:"t" () in
  let c1 = Observe.Registry.counter r "a.b" in
  incr c1;
  let c2 = Observe.Registry.counter r "a.b" in
  Alcotest.(check bool) "same ref" true (c1 == c2);
  Alcotest.(check int) "value visible through both" 1 !c2;
  let h1 = Observe.Registry.histogram r "a.lat" in
  Alcotest.(check bool) "same histogram" true
    (h1 == Observe.Registry.histogram r "a.lat");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Registry t: a.b is a counter, not a histogram")
    (fun () -> ignore (Observe.Registry.histogram r "a.b"))

let registry_reset_and_gauges () =
  let r = Observe.Registry.create ~name:"t" () in
  let c = Observe.Registry.counter r "n" in
  c := 42;
  let level = ref 7 in
  Observe.Registry.gauge r "depth" (fun () -> !level);
  Observe.Histogram.record (Observe.Registry.histogram r "lat") 100;
  Observe.Registry.reset r;
  Alcotest.(check int) "counter zeroed" 0 !c;
  Alcotest.(check bool) "histogram zeroed" true
    (Observe.Histogram.is_empty (Observe.Registry.histogram r "lat"));
  level := 9;
  (match Observe.Registry.snapshot r with
  | l -> (
      match List.assoc "depth" l with
      | Observe.Registry.Level v ->
          Alcotest.(check int) "gauge samples live state" 9 v
      | _ -> Alcotest.fail "depth should be a gauge"));
  let names = List.map fst (Observe.Registry.snapshot r) in
  Alcotest.(check (list string)) "snapshot sorted" [ "depth"; "lat"; "n" ] names

let registry_json () =
  let r = Observe.Registry.create ~name:"t" () in
  Observe.Registry.counter r {|weird"name|} := 3;
  let j = Observe.Registry.to_json r in
  Alcotest.(check bool) "escapes quotes" true (contains j {|weird\"name|});
  Alcotest.(check bool) "value present" true (contains j ": 3");
  (* the documented schema: every sample is a tagged object *)
  Alcotest.(check bool) "counters tagged" true
    (contains j {|"kind": "counter"|});
  Observe.Registry.gauge r "depth" (fun () -> 4);
  Observe.Histogram.record (Observe.Registry.histogram r "lat") 10;
  let j = Observe.Registry.to_json r in
  Alcotest.(check bool) "gauges tagged" true (contains j {|"kind": "gauge"|});
  Alcotest.(check bool) "histograms tagged" true
    (contains j {|"kind": "histogram"|});
  Alcotest.(check bool) "histogram carries quantiles" true (contains j {|"p99"|});
  (* pretty and JSON paths must agree sample-for-sample *)
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot sample %s in json" name)
        true
        (contains j (Observe.Registry.json_of_sample s)))
    (Observe.Registry.snapshot r)

(* ---- Trace ring ------------------------------------------------------------ *)

let mk_span at event = { Observe.Trace.at_ns = at; event }
let msg i = Observe.Trace.Drop { scope = "t"; reason = string_of_int i }

let ring_wraps () =
  let ring = Observe.Trace.Ring.create ~capacity:4 () in
  for i = 1 to 7 do
    Observe.Trace.Ring.push ring (mk_span i (msg i))
  done;
  Alcotest.(check int) "length capped" 4 (Observe.Trace.Ring.length ring);
  Alcotest.(check int) "overwrites counted" 3
    (Observe.Trace.Ring.dropped ring);
  let ats =
    List.map (fun s -> s.Observe.Trace.at_ns) (Observe.Trace.Ring.to_list ring)
  in
  Alcotest.(check (list int)) "oldest first" [ 4; 5; 6; 7 ] ats;
  Observe.Trace.Ring.clear ring;
  Alcotest.(check int) "clear" 0 (Observe.Trace.Ring.length ring)

(* ---- Dispatcher spans ------------------------------------------------------- *)

(* The acceptance scenario: a keyed UDP delivery crosses ether -> ip ->
   udp; the ring must contain the full span path in order, and each
   layer's run histogram must agree with its event's raise count. *)
let span_path_reconstruction () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let kernel_b = Netsim.Host.kernel (Plexus.Stack.host p.Experiments.Common.b) in
  let ring = Observe.Trace.Ring.create ~capacity:4096 () in
  Observe.Trace.set_sink (Spin.Kernel.trace kernel_b) (Observe.Trace.Ring ring);
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let bind_exn udp ~owner ~port =
    match Plexus.Udp_mgr.bind udp ~owner ~port with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let delivered = ref 0 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> incr delivered)
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  let sends = 5 in
  for i = 1 to sends do
    Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7)
      (Printf.sprintf "m%d" i)
  done;
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "all datagrams delivered" sends !delivered;
  let spans = Observe.Trace.Ring.to_list ring in
  Alcotest.(check int) "nothing overwritten" 0 (Observe.Trace.Ring.dropped ring);
  let is_ether e = contains e "ethernet" in
  (* one packet's path, as (predicate, description) subsequence steps *)
  let open Observe.Trace in
  let steps =
    [
      ( "raise ether",
        function Raise r -> is_ether r.event | _ -> false );
      ( "guard hit ip@ether",
        function
        | Guard_eval g -> is_ether g.event && g.label = "ip" && g.hit
        | _ -> false );
      ( "run ip@ether",
        function
        | Handler_run h -> is_ether h.event && h.label = "ip" | _ -> false );
      (* the ip event's transports are keyed: its walk switches on the
         IP protocol *)
      ( "raise ip",
        function
        | Raise r -> r.event = "ip.PacketRecv" && r.switches > 0 | _ -> false );
      ( "guard hit udp@ip",
        function
        | Guard_eval g -> g.event = "ip.PacketRecv" && g.label = "udp" && g.hit
        | _ -> false );
      ( "run udp@ip",
        function
        | Handler_run h -> h.event = "ip.PacketRecv" && h.label = "udp"
        | _ -> false );
      ( "raise udp",
        function
        | Raise r -> r.event = "udp.PacketRecv" && r.candidates = 1
        | _ -> false );
      ( "guard hit srv@udp",
        function
        | Guard_eval g ->
            g.event = "udp.PacketRecv" && g.label = "srv" && g.hit
        | _ -> false );
      ( "run srv@udp",
        function
        | Handler_run h -> h.event = "udp.PacketRecv" && h.label = "srv"
        | _ -> false );
    ]
  in
  let rec walk steps spans =
    match steps with
    | [] -> ()
    | (desc, pred) :: rest -> (
        match spans with
        | [] -> Alcotest.fail ("span path incomplete: missing " ^ desc)
        | s :: tail ->
            if pred s.Observe.Trace.event then walk rest tail
            else walk steps tail)
  in
  walk steps spans;
  (* the 1-handler udp event compiles to one leaf: no switch visited *)
  Alcotest.(check bool) "no switch on a 1-handler event" false
    (List.exists
       (fun s ->
         match s.Observe.Trace.event with
         | Raise r -> r.event = "udp.PacketRecv" && r.switches > 0
         | _ -> false)
       spans);
  (* per-handler histogram counts must match the raise counts *)
  let reg = Spin.Kernel.registry kernel_b in
  let counter name =
    match Observe.Registry.find reg name with
    | Some (Observe.Registry.Counter c) -> !c
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  let hist_n name =
    match Observe.Registry.find reg name with
    | Some (Observe.Registry.Hist h) -> Observe.Histogram.count h
    | _ -> Alcotest.fail ("missing histogram " ^ name)
  in
  Alcotest.(check int) "udp raises" sends (counter "spin.udp.PacketRecv.raises");
  Alcotest.(check int) "srv runs = udp raises" sends
    (hist_n "spin.udp.PacketRecv.srv.run_ns");
  Alcotest.(check int) "udp runs = ip raises" sends
    (hist_n "spin.ip.PacketRecv.udp.run_ns");
  Alcotest.(check int) "udp raises all walked the tree" sends
    (counter "spin.udp.PacketRecv.tree.raises");
  (* durations in the spans must equal what the histograms recorded *)
  let span_runs =
    List.filter_map
      (fun s ->
        match s.Observe.Trace.event with
        | Handler_run h when h.event = "udp.PacketRecv" && h.label = "srv" ->
            Some h.duration_ns
        | _ -> None)
      spans
  in
  Alcotest.(check int) "one run span per datagram" sends (List.length span_runs);
  List.iter
    (fun d -> Alcotest.(check bool) "positive duration" true (d > 0))
    span_runs

(* A budget-starved EPHEMERAL handler must surface as a [Terminated]
   span (and count under spin.eph.terminated). *)
let ephemeral_terminated_span () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let registry = Observe.Registry.create ~name:"t" () in
  let trace = Observe.Trace.create () in
  let ring = Observe.Trace.Ring.create () in
  Observe.Trace.set_sink trace (Observe.Trace.Ring ring);
  let d =
    Spin.Dispatcher.create ~registry ~trace ~cpu
      ~costs:Spin.Dispatcher.default_costs ()
  in
  let ev = Spin.Dispatcher.event d "e" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"eph" ~budget:(us 7) (fun () ->
        List.init 4 (fun _ ->
            Spin.Ephemeral.work ~label:"w" ~cost:(us 5) ignore))
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run engine;
  let term =
    List.filter_map
      (fun s ->
        match s.Observe.Trace.event with
        | Observe.Trace.Terminated { label; committed; total; _ } ->
            Some (label, committed, total)
        | _ -> None)
      (Observe.Trace.Ring.to_list ring)
  in
  match term with
  | [ (label, committed, total) ] ->
      Alcotest.(check string) "labelled" "eph" label;
      Alcotest.(check int) "committed prefix" 1 committed;
      Alcotest.(check int) "of total" 4 total;
      Alcotest.(check int) "terminated counted" 1
        !(Observe.Registry.counter registry "spin.eph.terminated");
      Alcotest.(check int) "dispatcher agrees" 1 (Spin.Dispatcher.terminations d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 Terminated span, got %d" (List.length l))

(* A commit within budget emits [Ephemeral_commit] instead. *)
let ephemeral_commit_span () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let trace = Observe.Trace.create () in
  let ring = Observe.Trace.Ring.create () in
  Observe.Trace.set_sink trace (Observe.Trace.Ring ring);
  let d =
    Spin.Dispatcher.create ~trace ~cpu ~costs:Spin.Dispatcher.default_costs ()
  in
  let ev = Spin.Dispatcher.event d "e" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install_ephemeral ev ~label:"eph" ~budget:(us 50) (fun () ->
        List.init 3 (fun _ ->
            Spin.Ephemeral.work ~label:"w" ~cost:(us 5) ignore))
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run engine;
  let commits =
    List.filter_map
      (fun s ->
        match s.Observe.Trace.event with
        | Observe.Trace.Ephemeral_commit { committed; duration_ns; _ } ->
            Some (committed, duration_ns)
        | _ -> None)
      (Observe.Trace.Ring.to_list ring)
  in
  match commits with
  | [ (committed, duration_ns) ] ->
      Alcotest.(check int) "all actions committed" 3 committed;
      Alcotest.(check int) "duration is the consumed budget" 15_000 duration_ns
  | l -> Alcotest.fail (Printf.sprintf "expected 1 commit span, got %d" (List.length l))

(* A contained fault leaves a record: a guard that raises is uninstalled,
   and the dispatcher emits a [Drop] span naming the handler and the
   exception, and counts it in the handler's [faults] counter. *)
let fault_drop_span () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let registry = Observe.Registry.create ~name:"t" () in
  let trace = Observe.Trace.create () in
  let ring = Observe.Trace.Ring.create () in
  Observe.Trace.set_sink trace (Observe.Trace.Ring ring);
  let d =
    Spin.Dispatcher.create ~registry ~trace ~cpu
      ~costs:Spin.Dispatcher.default_costs ()
  in
  let ev = Spin.Dispatcher.event d "e" in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"bad"
      ~guard:(fun () -> failwith "boom")
      ~cost:Sim.Stime.zero ignore
  in
  Spin.Dispatcher.raise ev ();
  Sim.Engine.run engine;
  let drops =
    List.filter_map
      (fun s ->
        match s.Observe.Trace.event with
        | Observe.Trace.Drop { scope; reason } -> Some (scope, reason)
        | _ -> None)
      (Observe.Trace.Ring.to_list ring)
  in
  Alcotest.(check (list (pair string string))) "one fault drop span"
    [ ("spin.e.bad", "fault: " ^ Printexc.to_string (Failure "boom")) ]
    drops;
  Alcotest.(check int) "per-handler fault counter" 1
    !(Observe.Registry.counter registry "spin.e.bad.faults");
  Alcotest.(check int) "handler uninstalled" 0
    (Spin.Dispatcher.handler_count ev)

(* Every frame a device drops leaves one [Drop] span, scoped by the
   device's name, on its host kernel's trace: the endpoint
   [Host.add_device] wires the device to. *)
let device_drop_spans () =
  let setup ?(params = Netsim.Costs.ethernet ()) () =
    let engine = Sim.Engine.create () in
    let a, b =
      Netsim.Network.pair engine params
        ~a:("a", Proto.Ipaddr.v 10 0 0 1)
        ~b:("b", Proto.Ipaddr.v 10 0 0 2)
    in
    let ring (e : Netsim.Network.endpoint) =
      let r = Observe.Trace.Ring.create ~capacity:4096 () in
      Observe.Trace.set_sink
        (Spin.Kernel.trace (Netsim.Host.kernel e.Netsim.Network.host))
        (Observe.Trace.Ring r);
      r
    in
    Netsim.Dev.set_rx b.Netsim.Network.dev (fun _ -> ignore);
    (engine, a, b, ring a, ring b)
  in
  let check_drops reason ring (e : Netsim.Network.endpoint) ~dropped =
    let dev = e.Netsim.Network.dev in
    let spans =
      List.filter_map
        (fun s ->
          match s.Observe.Trace.event with
          | Observe.Trace.Drop { scope; reason } -> Some (scope, reason)
          | _ -> None)
        (Observe.Trace.Ring.to_list ring)
    in
    Alcotest.(check bool) (reason ^ ": frames dropped") true (dropped > 0);
    Alcotest.(check (list (pair string string)))
      (reason ^ ": one span per dropped frame")
      (List.init dropped (fun _ -> (Netsim.Dev.name dev, reason)))
      spans
  in
  let rx_drops (e : Netsim.Network.endpoint) =
    (Netsim.Dev.counters e.Netsim.Network.dev).Netsim.Dev.rx_drops
  in
  (* Keep the receiver's CPU busy so frames wait for their interrupt. *)
  let occupy (e : Netsim.Network.endpoint) =
    Sim.Cpu.run
      (Netsim.Host.cpu e.Netsim.Network.host)
      ~prio:Sim.Cpu.Interrupt ~cost:(Sim.Stime.ms 50) ignore
  in
  let burst (e : Netsim.Network.endpoint) n =
    for _ = 1 to n do
      Netsim.Dev.transmit e.Netsim.Network.dev (Mbuf.alloc 200)
    done
  in
  (* a burst into a two-frame transmit queue *)
  let engine, a, _, ra, _ =
    setup ~params:{ (Netsim.Costs.ethernet ()) with Netsim.Costs.txq_limit = 2 } ()
  in
  burst a 10;
  Sim.Engine.run engine;
  check_drops "txq_full" ra a
    ~dropped:(Netsim.Dev.counters a.Netsim.Network.dev).Netsim.Dev.tx_drops;
  (* a burst off the wire into a four-slot receive ring *)
  let engine, a, b, _, rb = setup () in
  Netsim.Dev.set_rx_pool b.Netsim.Network.dev
    (Pool.create ~name:"rx-ring" ~capacity:4 ());
  occupy b;
  burst a 20;
  Sim.Engine.run engine;
  check_drops "rx_ring_full" rb b ~dropped:(rx_drops b);
  (* the same ring, filled by one coalesced batch of ten *)
  let engine, _, b, _, rb = setup () in
  Netsim.Dev.set_rx_pool b.Netsim.Network.dev
    (Pool.create ~name:"rx-ring" ~capacity:4 ());
  Netsim.Dev.deliver_batch b.Netsim.Network.dev
    (List.init 10 (fun _ -> Mbuf.ro (Mbuf.alloc 200)));
  Sim.Engine.run engine;
  Alcotest.(check int) "batch: six past the ring" 6 (rx_drops b);
  check_drops "rx_ring_full" rb b ~dropped:6;
  (* a burst past the admission budget and the deferred queue *)
  let engine, a, b, _, rb = setup () in
  Netsim.Dev.set_admission ~budget:1 ~defer_limit:2 b.Netsim.Network.dev;
  occupy b;
  burst a 20;
  Sim.Engine.run engine;
  check_drops "admission_shed" rb b
    ~dropped:(Netsim.Dev.counters b.Netsim.Network.dev).Netsim.Dev.rx_shed;
  (* a blacked-out wire *)
  let engine, a, _, ra, _ = setup () in
  Netsim.Dev.set_loss a.Netsim.Network.dev 1.0;
  burst a 5;
  Sim.Engine.run engine;
  check_drops "wire_loss" ra a
    ~dropped:(Netsim.Dev.counters a.Netsim.Network.dev).Netsim.Dev.wire_drops

(* ---- Flight recorder --------------------------------------------------------- *)

(* The sampling decision is a pure function of (seed, rate, ordinal):
   same inputs, same mark — the property the parallel datapath leans on
   to pre-compute marks per shard. *)
let flight_mark_pure =
  QCheck.Test.make ~name:"mark_for is pure and returns the ordinal or 0"
    QCheck.(pair small_int (int_range 1 16))
    (fun (seed, rate) ->
      List.for_all
        (fun n ->
          let a = Observe.Flight.mark_for ~seed ~rate n in
          a = Observe.Flight.mark_for ~seed ~rate n && (a = 0 || a = n))
        (List.init 200 (fun i -> i + 1)))

(* Ring wraparound: only the newest [capacity] records are retained, in
   emission order, and every overwritten record is counted. *)
let flight_ring_wraparound =
  QCheck.Test.make ~name:"record ring keeps the newest records in order"
    QCheck.(pair (int_range 1 32) (int_bound 200))
    (fun (cap, n) ->
      let fl = Observe.Flight.create ~capacity:cap ~rate:1 ~seed:1 () in
      for i = 1 to n do
        Observe.Flight.note fl ~pkt:i ~at_ns:i ~dur_ns:0
          (Observe.Flight.Raise { event = "e" })
      done;
      let kept = min cap n in
      let got =
        List.map
          (fun (r : Observe.Flight.record) -> r.Observe.Flight.pkt)
          (Observe.Flight.records fl)
      in
      got = List.init kept (fun i -> n - kept + i + 1)
      && Observe.Flight.dropped fl = max 0 (n - cap)
      && Observe.Flight.length fl = kept)

(* The canonical two-host workload with the server kernel's recorder at
   1-in-[rate]: [sends] datagrams to the bound port plus one misdirected
   datagram that drops at the udp demux. *)
let flight_run ~rate () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let kernel_b = Netsim.Host.kernel (Plexus.Stack.host p.Experiments.Common.b) in
  Observe.Flight.set_rate (Spin.Kernel.flight kernel_b) rate;
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let bind_exn udp ~owner ~port =
    match Plexus.Udp_mgr.bind udp ~owner ~port with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let (_ : unit -> unit) =
    Plexus.Udp_mgr.install_recv udp_b server (fun _ -> ())
  in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  for i = 1 to 6 do
    Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7)
      (Printf.sprintf "m%d" i)
  done;
  Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 4242) "lost";
  Sim.Engine.run p.Experiments.Common.engine;
  kernel_b

(* Per send of a 1000-B datagram over the two-host testbed: the minor
   words and engine events of the whole pair, and the simulated time a
   send takes.  [observe] attaches the kernels' registries (their trace
   sinks stay Null); [flight_rate] > 0 turns on both kernels' flight
   recorders at 1-in-[flight_rate]. *)
let send_costs ~observe ~flight_rate =
  let p = Experiments.Common.plexus_pair ~observe (Netsim.Costs.ethernet ()) in
  let engine = p.Experiments.Common.engine in
  if flight_rate > 0 then
    List.iter
      (fun stack ->
        Observe.Flight.set_rate
          (Spin.Kernel.flight (Netsim.Host.kernel (Plexus.Stack.host stack)))
          flight_rate)
      [ p.Experiments.Common.a; p.Experiments.Common.b ];
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let bind_exn udp ~owner ~port =
    match Plexus.Udp_mgr.bind udp ~owner ~port with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let server = bind_exn udp_b ~owner:"srv" ~port:7 in
  let (_ : unit -> unit) = Plexus.Udp_mgr.install_recv udp_b server ignore in
  let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
  let dst = (Experiments.Common.ip_b, 7) in
  let send () =
    Plexus.Udp_mgr.send_mbuf udp_a client ~dst (Mbuf.alloc 1000);
    Sim.Engine.run engine
  in
  for _ = 1 to 64 do send () done;
  let sends = 64 * 16 in
  let e0 = Sim.Engine.events_run engine and t0 = Sim.Engine.now engine in
  let w0 = Gc.minor_words () in
  for _ = 1 to sends do send () done;
  let words = Gc.minor_words () -. w0 in
  let per x = x /. float_of_int sends in
  ( per words,
    per (float_of_int (Sim.Engine.events_run engine - e0)),
    per
      (float_of_int
         (Sim.Stime.to_ns (Sim.Stime.sub (Sim.Engine.now engine) t0))) )

(* Disabled observability is free, in counters that repeat exactly from
   run to run: attaching the registries with Null trace sinks adds no
   word and no event to a send, and 1-in-64 flight sampling adds no event
   and at most [sampled_extra_words] words per send (the records of the
   sampled packets, amortised).  Neither moves simulated time.  The
   detached send is pinned too, so a Null sink that builds its spans
   fails here even though it would slow both sides alike. *)
let detached_send_words = 96.
let sampled_extra_words = 3.

let disabled_observability_is_free () =
  let (dw, de, dt) as detached = send_costs ~observe:false ~flight_rate:0 in
  let (nw, _, _) as null = send_costs ~observe:true ~flight_rate:0 in
  let fw, fe, ft = send_costs ~observe:true ~flight_rate:64 in
  let costs = Alcotest.(triple (float 0.) (float 0.) (float 0.)) in
  Alcotest.check costs "registry + Null sink: same words, events, sim ns"
    detached null;
  if dw > detached_send_words then
    Alcotest.failf "a detached send allocates %.2f words (pinned at %.0f)" dw
      detached_send_words;
  Alcotest.(check (float 0.)) "1/64 sampling: same events" de fe;
  Alcotest.(check (float 0.)) "1/64 sampling: same simulated time" dt ft;
  if fw -. nw > sampled_extra_words then
    Alcotest.failf "1/64 sampling adds %.2f words per send (pinned at %.0f)"
      (fw -. nw) sampled_extra_words

let flight_timelines_end_to_end () =
  let kernel_b = flight_run ~rate:1 () in
  let fl = Spin.Kernel.flight kernel_b in
  Alcotest.(check bool) "frames seen" true (Observe.Flight.seen fl > 0);
  Alcotest.(check int) "rate 1 samples everything" (Observe.Flight.seen fl)
    (Observe.Flight.sampled fl);
  let recs = Observe.Flight.records fl in
  let tls = Observe.Flight.timelines recs in
  Alcotest.(check int) "one timeline per sampled frame"
    (Observe.Flight.sampled fl) (List.length tls);
  (* every timeline starts at the wire *)
  List.iter
    (fun (pkt, rs) ->
      match rs with
      | { Observe.Flight.stage = Observe.Flight.Ingress _; dur_ns = 0; _ } :: _
        ->
          ()
      | _ -> Alcotest.failf "timeline %d does not start with ingress" pkt)
    tls;
  (* delivered datagrams carry end-to-end latency measured from ingress,
     and their origin entry is released at delivery *)
  let delivered =
    List.filter
      (fun (_, rs) ->
        List.exists
          (fun (r : Observe.Flight.record) ->
            match r.Observe.Flight.stage with
            | Observe.Flight.Deliver { scope } -> scope = "udp:7"
            | _ -> false)
          rs)
      tls
  in
  Alcotest.(check int) "six delivered timelines" 6 (List.length delivered);
  List.iter
    (fun (pkt, rs) ->
      let ingress_at =
        match rs with (r : Observe.Flight.record) :: _ -> r.Observe.Flight.at_ns | [] -> 0
      in
      List.iter
        (fun (r : Observe.Flight.record) ->
          match r.Observe.Flight.stage with
          | Observe.Flight.Deliver _ ->
              Alcotest.(check int) "deliver dur = at - ingress"
                (r.Observe.Flight.at_ns - ingress_at)
                r.Observe.Flight.dur_ns;
              Alcotest.(check bool) "end-to-end latency positive" true
                (r.Observe.Flight.dur_ns > 0);
              Alcotest.(check (option int)) "origin released" None
                (Observe.Flight.origin fl ~pkt)
          | _ -> ())
        rs;
      (* the full dispatch path is attributed to the same packet *)
      let has stagep =
        List.exists
          (fun (r : Observe.Flight.record) -> stagep r.Observe.Flight.stage)
          rs
      in
      Alcotest.(check bool) "has raise" true
        (has (function Observe.Flight.Raise _ -> true | _ -> false));
      Alcotest.(check bool) "has srv handler run" true
        (has (function
          | Observe.Flight.Handler { event = "udp.PacketRecv"; label = "srv" }
            ->
              true
          | _ -> false)))
    delivered;
  (* the misdirected datagram surfaces as a drop with its reason *)
  Alcotest.(check bool) "no_port drop recorded" true
    (List.exists
       (fun (r : Observe.Flight.record) ->
         match r.Observe.Flight.stage with
         | Observe.Flight.Drop { scope = "udp"; reason = "no_port" } -> true
         | _ -> false)
       recs)

(* Same seed, same rate, same workload: the record streams are
   identical, record for record. *)
let flight_deterministic () =
  let run () =
    Observe.Flight.records (Spin.Kernel.flight (flight_run ~rate:2 ()))
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same record count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Observe.Flight.record) y ->
      if x <> y then
        Alcotest.failf "records diverge: %s vs %s"
          (Fmt.str "%a" Observe.Flight.pp_record x)
          (Fmt.str "%a" Observe.Flight.pp_record y))
    a b

(* At 1-in-N, exactly the ordinals [mark_for] picks are sampled. *)
let flight_sampled_subset () =
  let kernel_b = flight_run ~rate:3 () in
  let fl = Spin.Kernel.flight kernel_b in
  let seed = Observe.Flight.seed fl in
  List.iter
    (fun (pkt, _) ->
      Alcotest.(check int)
        (Printf.sprintf "pkt %d is a mark_for pick" pkt)
        pkt
        (Observe.Flight.mark_for ~seed ~rate:3 pkt))
    (Observe.Flight.timelines (Observe.Flight.records fl));
  Alcotest.(check bool) "sampling is a strict subset" true
    (Observe.Flight.sampled fl < Observe.Flight.seen fl)

(* Merging per-domain recorders preserves each record's home domain and
   the emission order within a packet's timeline. *)
let flight_merge_domains () =
  let mk dom =
    let fl = Observe.Flight.create ~rate:1 ~seed:7 () in
    Observe.Flight.set_domain fl dom;
    fl
  in
  let steer = mk 0 and owner = mk 1 in
  ignore (Observe.Flight.admit steer);
  ignore (Observe.Flight.admit owner);
  Observe.Flight.note steer ~pkt:5 ~at_ns:10 ~dur_ns:0
    (Observe.Flight.Hop { from_domain = 0; to_domain = 1 });
  Observe.Flight.ingress owner ~pkt:5 ~at_ns:20 ~dev:"eth0";
  Observe.Flight.note owner ~pkt:5 ~at_ns:50 ~dur_ns:30
    (Observe.Flight.Deliver { scope = "udp:7" });
  Observe.Flight.ingress owner ~pkt:9 ~at_ns:21 ~dev:"eth0";
  let m = Observe.Flight.create ~rate:1 ~seed:7 () in
  Observe.Flight.merge_into ~into:m steer;
  Observe.Flight.merge_into ~into:m owner;
  (match Observe.Flight.timelines (Observe.Flight.records m) with
  | [ (5, tl5); (9, [ _ ]) ] -> (
      match
        List.map
          (fun (r : Observe.Flight.record) ->
            (r.Observe.Flight.domain, Observe.Flight.stage_name r.Observe.Flight.stage))
          tl5
      with
      | [ (0, "hop"); (1, "ingress"); (1, "deliver") ] -> ()
      | l ->
          Alcotest.failf "wrong attribution: %s"
            (String.concat ";"
               (List.map (fun (d, s) -> Printf.sprintf "%d:%s" d s) l)))
  | tls -> Alcotest.failf "expected timelines for pkts 5 and 9, got %d" (List.length tls));
  Alcotest.(check int) "seen summed" 2 (Observe.Flight.seen m);
  Alcotest.(check int) "sampled summed" 2 (Observe.Flight.sampled m)

(* The per-extension resource ledger accumulates whether or not sampling
   is on, and the registry mirror agrees with the dump. *)
let flight_ledger_accounting () =
  let kernel_b = flight_run ~rate:0 () in
  let d = Spin.Kernel.dispatcher kernel_b in
  let reg = Spin.Kernel.registry kernel_b in
  let hi =
    List.find_map
      (fun (ei : Spin.Dispatcher.event_info) ->
        if ei.Spin.Dispatcher.ei_name <> "udp.PacketRecv" then None
        else
          List.find_opt
            (fun (h : Spin.Dispatcher.handler_info) ->
              h.Spin.Dispatcher.hi_label = "srv")
            ei.Spin.Dispatcher.ei_handlers)
      (Spin.Dispatcher.dump d)
  in
  match hi with
  | None -> Alcotest.fail "srv handler not in dump"
  | Some hi ->
      Alcotest.(check int) "six runs" 6 hi.Spin.Dispatcher.hi_runs;
      Alcotest.(check bool) "cpu charged" true
        (hi.Spin.Dispatcher.hi_cpu_ns > 0);
      let counter name =
        match Observe.Registry.find reg name with
        | Some (Observe.Registry.Counter c) -> !c
        | _ -> Alcotest.fail ("missing counter " ^ name)
      in
      Alcotest.(check int) "registry mirrors cpu ledger"
        hi.Spin.Dispatcher.hi_cpu_ns
        (counter "spin.udp.PacketRecv.srv.cpu_ns");
      Alcotest.(check int) "registry mirrors alloc ledger"
        hi.Spin.Dispatcher.hi_allocs
        (counter "spin.udp.PacketRecv.srv.mbuf_allocs");
      Alcotest.(check int) "registry mirrors termination ledger"
        hi.Spin.Dispatcher.hi_terminations
        (counter "spin.udp.PacketRecv.srv.terminations");
      (* the modelled CPU the ledger charges equals the run histogram's sum *)
      (match Observe.Registry.find reg "spin.udp.PacketRecv.srv.run_ns" with
      | Some (Observe.Registry.Hist h) ->
          Alcotest.(check int) "ledger = histogram sum"
            (Observe.Histogram.sum h) hi.Spin.Dispatcher.hi_cpu_ns
      | _ -> Alcotest.fail "run_ns histogram missing")

(* Ledger keys collide across domains only under distinct prefixes; a
   same-prefix re-merge folds them (counters sum, histograms merge). *)
let registry_merge_ledger_prefixes () =
  let mk cpu lat =
    let r = Observe.Registry.create ~name:"d" () in
    Observe.Registry.counter r "spin.udp.PacketRecv.srv.cpu_ns" := cpu;
    Observe.Histogram.record
      (Observe.Registry.histogram r "spin.udp.PacketRecv.srv.run_ns")
      lat;
    r
  in
  let d0 = mk 100 10 and d1 = mk 40 30 in
  let m = Observe.Registry.create ~name:"m" () in
  Observe.Registry.merge_into ~prefix:"domain0." ~into:m d0;
  Observe.Registry.merge_into ~prefix:"domain1." ~into:m d1;
  let counter name =
    match Observe.Registry.find m name with
    | Some (Observe.Registry.Counter c) -> !c
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check int) "domain0 ledger intact" 100
    (counter "domain0.spin.udp.PacketRecv.srv.cpu_ns");
  Alcotest.(check int) "domain1 ledger intact" 40
    (counter "domain1.spin.udp.PacketRecv.srv.cpu_ns");
  (* colliding prefix: the ledgers fold instead of clobbering *)
  Observe.Registry.merge_into ~prefix:"domain0." ~into:m d1;
  Alcotest.(check int) "colliding counters sum" 140
    (counter "domain0.spin.udp.PacketRecv.srv.cpu_ns");
  match Observe.Registry.find m "domain0.spin.udp.PacketRecv.srv.run_ns" with
  | Some (Observe.Registry.Hist h) ->
      Alcotest.(check int) "colliding histograms merge" 2
        (Observe.Histogram.count h);
      Alcotest.(check int) "merged sum" 40 (Observe.Histogram.sum h)
  | _ -> Alcotest.fail "merged histogram missing"

(* ---- Telemetry --------------------------------------------------------------- *)

(* Delta encoding: a point carries only the samples that changed since
   the previous snapshot; the point ring is bounded. *)
let telemetry_delta () =
  let r = Observe.Registry.create ~name:"t" () in
  let a = Observe.Registry.counter r "a" in
  let b = Observe.Registry.counter r "b" in
  let tel = Observe.Telemetry.create ~capacity:2 r in
  let n1 = Observe.Telemetry.record tel ~at_ns:1 in
  Alcotest.(check int) "first point carries everything" 2 n1;
  a := 5;
  let n2 = Observe.Telemetry.record tel ~at_ns:2 in
  Alcotest.(check int) "only the changed sample" 1 n2;
  (match Observe.Telemetry.points tel with
  | [ _; { Observe.Telemetry.at_ns = 2; changed = [ ("a", sample) ] } ] ->
      Alcotest.(check bool) "new value" true
        (sample = Observe.Registry.Count 5)
  | _ -> Alcotest.fail "unexpected point shape");
  let n3 = Observe.Telemetry.record tel ~at_ns:3 in
  Alcotest.(check int) "quiet interval encodes empty" 0 n3;
  b := 1;
  ignore (Observe.Telemetry.record tel ~at_ns:4);
  Alcotest.(check int) "ring bounded" 2 (Observe.Telemetry.length tel);
  Alcotest.(check int) "overwrites counted" 2 (Observe.Telemetry.dropped tel);
  Alcotest.(check int) "every tick counted" 4 (Observe.Telemetry.ticks tel);
  let j = Observe.Telemetry.to_json tel in
  Alcotest.(check bool) "json carries the series" true (contains j {|"series"|});
  Alcotest.(check bool) "json carries deltas" true (contains j {|"b"|})

(* The kernel scheduler: periodic snapshots in virtual time, stoppable. *)
let telemetry_every () =
  let engine = Sim.Engine.create () in
  let kernel = Spin.Kernel.create engine ~name:"k" in
  let reg = Spin.Kernel.registry kernel in
  let c = Observe.Registry.counter reg "work" in
  let tel, stop = Spin.Kernel.telemetry_every kernel ~period:(Sim.Stime.ms 1) in
  for i = 1 to 5 do
    ignore
      (Sim.Engine.schedule_in engine
         ~delay:(Sim.Stime.us (i * 900))
         (fun () -> incr c))
  done;
  Sim.Engine.run engine ~until:(Sim.Stime.ms 10);
  stop ();
  Alcotest.(check bool) "ticked roughly every period" true
    (Observe.Telemetry.ticks tel >= 9);
  let change_points =
    List.filter
      (fun (p : Observe.Telemetry.point) ->
        List.mem_assoc "work" p.Observe.Telemetry.changed)
      (Observe.Telemetry.points tel)
  in
  (* five bumps spread over ~4.5ms of 1ms ticks: several distinct deltas *)
  Alcotest.(check bool) "deltas recorded" true (List.length change_points >= 3);
  (* stop() cancels the rearming tick: the engine can drain *)
  Sim.Engine.run engine;
  Alcotest.(check int) "engine quiescent after stop" 0
    (Sim.Engine.pending engine)

(* ---- Introspection ---------------------------------------------------------- *)

let dispatcher_dump () =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"c" in
  let d =
    Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs ()
  in
  let ev = Spin.Dispatcher.event d "e" in
  Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~label:"keyed" ~keys:[ 3 ]
      ~guard:(fun x -> x = 3)
      ~cost:Sim.Stime.zero
      (fun _ -> ())
  in
  let (_ : unit -> unit) =
    Spin.Dispatcher.install ev ~cost:Sim.Stime.zero (fun _ -> ())
  in
  Spin.Dispatcher.raise ev 3;
  Sim.Engine.run engine;
  match Spin.Dispatcher.dump d with
  | [ ei ] ->
      Alcotest.(check string) "event name" "e" ei.Spin.Dispatcher.ei_name;
      Alcotest.(check bool) "indexed" true ei.Spin.Dispatcher.ei_indexed;
      (match ei.Spin.Dispatcher.ei_handlers with
      | [ keyed; linear ] ->
          Alcotest.(check string) "label" "keyed" keyed.Spin.Dispatcher.hi_label;
          Alcotest.(check (option int)) "key" (Some 3) keyed.Spin.Dispatcher.hi_key;
          Alcotest.(check int) "keyed hit" 1 keyed.Spin.Dispatcher.hi_guard_hits;
          Alcotest.(check int) "keyed ran" 1 keyed.Spin.Dispatcher.hi_runs;
          Alcotest.(check string) "default label" "h1"
            linear.Spin.Dispatcher.hi_label;
          Alcotest.(check (option int)) "linear key" None
            linear.Spin.Dispatcher.hi_key;
          Alcotest.(check int) "linear ran too" 1 linear.Spin.Dispatcher.hi_runs
      | l -> Alcotest.fail (Printf.sprintf "expected 2 handlers, got %d" (List.length l)))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l))

let kernel_introspect () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let k = Netsim.Host.kernel (Plexus.Stack.host p.Experiments.Common.a) in
  let s = Spin.Kernel.introspect k in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("introspect mentions " ^ affix) true
        (contains s affix))
    [ "ip.PacketRecv"; "udp"; "tcp"; "arp" ]

(* Metrics compatibility shim: the refs are the registry's counters. *)
let metrics_shim () =
  Metrics.reset ();
  Metrics.count_copy 100;
  (match Observe.Registry.find Metrics.registry "packet.copies" with
  | Some (Observe.Registry.Counter c) ->
      Alcotest.(check bool) "same cell" true (c == Metrics.copies);
      Alcotest.(check int) "count visible" 1 !c
  | _ -> Alcotest.fail "packet.copies not registered");
  Metrics.reset ();
  Alcotest.(check int) "reset via shim zeroes registry" 0 !(Metrics.copies)

let suite =
  [
    ( "observe.histogram",
      [
        prop hist_bucket_error;
        prop hist_vs_exact;
        tc "exact bookkeeping" hist_exact_counts;
        tc "merge" hist_merge;
      ] );
    ( "observe.registry",
      [
        tc "find-or-create and kind safety" registry_find_or_create;
        tc "reset and gauges" registry_reset_and_gauges;
        tc "json escaping" registry_json;
        tc "metrics shim" metrics_shim;
      ] );
    ("observe.trace", [ tc "ring wraps" ring_wraps ]);
    ( "observe.spans",
      [
        tc "udp span path reconstruction" span_path_reconstruction;
        tc "ephemeral termination span" ephemeral_terminated_span;
        tc "ephemeral commit span" ephemeral_commit_span;
        tc "contained fault leaves a drop span" fault_drop_span;
        tc "device drops reach the kernel trace" device_drop_spans;
      ] );
    ( "observe.flight",
      [
        prop flight_mark_pure;
        prop flight_ring_wraparound;
        tc "end-to-end timelines" flight_timelines_end_to_end;
        tc "deterministic replay" flight_deterministic;
        tc "sampled set matches mark_for" flight_sampled_subset;
        tc "cross-domain merge attribution" flight_merge_domains;
        tc "per-extension ledger" flight_ledger_accounting;
        tc "disabled observability is free" disabled_observability_is_free;
        tc "ledger merge under domain prefixes" registry_merge_ledger_prefixes;
      ] );
    ( "observe.telemetry",
      [
        tc "delta encoding and bounded ring" telemetry_delta;
        tc "kernel periodic snapshots" telemetry_every;
      ] );
    ( "observe.introspection",
      [ tc "dispatcher dump" dispatcher_dump; tc "kernel introspect" kernel_introspect ] );
  ]
