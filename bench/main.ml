(* The benchmark harness.

   Part 1 — Bechamel microbenchmarks: real (host-machine) costs of the
   mechanisms the paper claims are cheap: event dispatch ("roughly one
   procedure call"), guard evaluation (packet filters), VIEW header
   access, mbuf operations and the Internet checksum.

   Part 2 — the paper-reproduction harness: regenerates every table and
   figure of the evaluation (Figure 5, the section 4.2 throughput table,
   Figure 6, Figure 7), the section 3.3 active-message microbenchmarks
   and the design ablations, printing measured values next to the
   paper's. *)

open Bechamel
open Toolkit

(* ---- Part 1: microbenchmark subjects --------------------------------- *)

(* A dispatcher wired to a live engine; each raise is drained so state
   does not accumulate across benchmark iterations.  Two handler
   shapes: [`Linear] installs unkeyed guards, so the event compiles to
   a single leaf that evaluates every guard; [`Tree] keys every handler
   so the merged decision tree switches on the payload — handlers are
   installed [~exact] so a walk proves its match and the guard closure
   never runs. *)
let dispatcher_env ~mode n_handlers =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"bench" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d "bench" in
  (match mode with
  | `Linear -> ()
  | `Tree ->
      Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x));
  for i = 0 to n_handlers - 1 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev
        ~guard:(fun x -> x = i)
        ~keys:(match mode with `Linear -> [] | `Tree -> [ i ])
        ~exact:(mode = `Tree)
        ~cost:Sim.Stime.zero
        (fun _ -> ())
    in
    ()
  done;
  (engine, ev)

let test_direct_call =
  let f = Sys.opaque_identity (fun x -> x + 1) in
  Test.make ~name:"direct procedure call" (Staged.stage (fun () -> ignore (f 1)))

let mode_name = function `Linear -> "linear" | `Tree -> "tree"

(* Unkeyed vs. keyed merged-tree dispatch across handler counts:
   the raise always matches exactly one handler (the middle one), so
   any cost growth is pure demultiplexing overhead. *)
let test_dispatch ~mode n =
  let engine, ev = dispatcher_env ~mode n in
  let target = n / 2 in
  Test.make
    ~name:(Printf.sprintf "dispatch %s (%d handlers)" (mode_name mode) n)
    (Staged.stage (fun () ->
         Spin.Dispatcher.raise ev target;
         Sim.Engine.run engine))

let dispatch_counts = [ 1; 8; 64; 256 ]

(* The flatness gate's two subjects, timed like the other ratio gates:
   interleaved rounds, rotating the starting subject, each reporting its
   minimum round (the noise floor; interference only ever adds time).
   One bechamel pass per subject measures them seconds apart, and host
   drift between the passes swamps a 15% bound. *)
let dispatch_gate_times () =
  let op n =
    let engine, ev = dispatcher_env ~mode:`Tree n in
    fun () ->
      Spin.Dispatcher.raise ev (n / 2);
      Sim.Engine.run engine
  in
  let time op =
    let iters = 100_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do op () done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  let subjects = [| (op 1, ref infinity); (op 256, ref infinity) |] in
  Array.iter (fun (op, _) -> ignore (time op)) subjects;
  for r = 0 to 8 do
    for i = 0 to 1 do
      let op, best = subjects.((r + i) mod 2) in
      best := Float.min !best (time op)
    done
  done;
  (!(snd subjects.(0)), !(snd subjects.(1)))

(* The many-guard shape the tree exists for: 64 analyzers all watching
   the same traffic (same key, exact guards).  The merged tree proves
   all 64 in a single walk instead of re-evaluating 64 guards. *)
let test_analyzers =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine ~name:"bench" in
  let d = Spin.Dispatcher.create ~cpu ~costs:Spin.Dispatcher.default_costs () in
  let ev = Spin.Dispatcher.event d "analyzers" in
  Spin.Dispatcher.set_keyvfn ev ~dims:1 (fun x dst -> dst.(0) <- x);
  for _ = 1 to 64 do
    let (_ : unit -> unit) =
      Spin.Dispatcher.install ev
        ~guard:(fun x -> x = 7)
        ~keys:[ 7 ] ~exact:true ~cost:Sim.Stime.zero
        (fun _ -> ())
    in
    ()
  done;
  Test.make ~name:"dispatch tree (64 analyzers)"
    (Staged.stage (fun () ->
         Spin.Dispatcher.raise ev 7;
         Sim.Engine.run engine))

let dispatch_tests =
  List.concat_map
    (fun n ->
      [ test_dispatch ~mode:`Linear n; test_dispatch ~mode:`Tree n ])
    dispatch_counts
  @ [ test_analyzers ]

let sample_frame =
  let pkt = Mbuf.of_string (String.make 64 '\000') in
  let v = Mbuf.view pkt in
  Proto.Ether.write v
    {
      Proto.Ether.dst = Proto.Ether.Mac.of_int 0x1111;
      src = Proto.Ether.Mac.of_int 0x2222;
      etype = Proto.Ether.etype_ip;
    };
  View.ro v

let test_guard =
  Test.make ~name:"guard: EtherType packet filter"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (match Proto.Ether.parse sample_frame with
              | Some h -> h.Proto.Ether.etype = Proto.Ether.etype_ip
              | None -> false))))

let test_view_read =
  Test.make ~name:"VIEW: u16+u32 header reads"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (View.get_u16 sample_frame 12));
         ignore (Sys.opaque_identity (View.get_u32 sample_frame 0))))

let test_ipv4_parse =
  let v = View.create 20 in
  Proto.Ipv4.write v
    (Proto.Ipv4.make ~proto:17 ~src:(Proto.Ipaddr.v 10 0 0 1)
       ~dst:(Proto.Ipaddr.v 10 0 0 2) ~payload_len:100 ());
  let v = View.ro v in
  Test.make ~name:"IPv4 header parse + checksum"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Proto.Ipv4.parse v));
         ignore (Sys.opaque_identity (Proto.Ipv4.checksum_valid v))))

let test_mbuf_alloc =
  Test.make ~name:"mbuf alloc (1500B)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Mbuf.alloc 1500))))

let test_mbuf_prepend =
  Test.make ~name:"mbuf alloc+prepend header"
    (Staged.stage (fun () ->
         let m = Mbuf.alloc 100 in
         ignore (Sys.opaque_identity (Mbuf.prepend m 14))))

let test_cksum_1500 =
  let v = View.of_string (String.make 1500 'x') in
  Test.make ~name:"Internet checksum (1500B)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Cksum.of_view v))))

let test_tcp_encode =
  let hdr =
    {
      Proto.Tcp_wire.src_port = 1;
      dst_port = 2;
      seq = Proto.Tcp_wire.Seq.of_int 1;
      ack = Proto.Tcp_wire.Seq.of_int 2;
      flags = Proto.Tcp_wire.Flags.ack;
      window = 100;
    }
  in
  let payload = String.make 512 'p' in
  Test.make ~name:"TCP segment encode (512B, checksummed)"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Proto.Tcp_wire.to_packet ~src:(Proto.Ipaddr.v 10 0 0 1)
                 ~dst:(Proto.Ipaddr.v 10 0 0 2) hdr payload))))

let bench_ctx =
  lazy
    (let engine = Sim.Engine.create () in
     let host =
       Netsim.Host.create engine ~name:"h" ~ip:(Proto.Ipaddr.v 10 0 0 1)
     in
     let dev = Netsim.Host.add_device host (Netsim.Costs.loopback ()) in
     Plexus.Pctx.make dev (Mbuf.ro (Mbuf.of_string (String.make 64 'p'))))

(* The 5-node filter of the original microbenchmark and a richer 15-node
   demultiplexing predicate (the ablation's), each interpreted and
   compiled.  (Compilation folds the 5-node filter's [Or (_, True)] to a
   single instruction; the 15-node filter keeps real work on both
   sides.) *)
let bench_filter_5 =
  Plexus.Filter.(
    And (Gt (Payload_len, 0), Or (Eq (U8 (Cur, 0), Char.code 'p'), True)))

let bench_filter_15 =
  Plexus.Filter.(
    And
      ( And (Eq (U8 (Cur, 0), Char.code 'p'), Gt (Payload_len, 0)),
        And
          ( Or (Eq (U8 (Cur, 1), Char.code 'p'), Or (Eq (U8 (Cur, 2), 0), Eq (U8 (Cur, 3), 1))),
            Not (Or (Eq (Payload_len, 0), Gt (Payload_len, 65536))) ) ))

let test_filter_interp name filter =
  let ctx = Lazy.force bench_ctx in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Plexus.Filter.eval filter ctx))))

let test_filter_compiled name filter =
  let ctx = Lazy.force bench_ctx in
  let prog = Plexus.Filter.compile filter in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Plexus.Filter.run prog ctx))))

let test_filter_eval = test_filter_interp "interpreted packet filter (5 nodes)" bench_filter_5

let filter_tests =
  [
    test_filter_eval;
    test_filter_compiled "compiled packet filter (5 nodes)" bench_filter_5;
    test_filter_interp "interpreted packet filter (15 nodes)" bench_filter_15;
    test_filter_compiled "compiled packet filter (15 nodes)" bench_filter_15;
  ]

let test_link_unlink =
  let iface = Spin.Interface.create "Svc" in
  let w : int Spin.Univ.witness = Spin.Univ.witness () in
  Spin.Interface.export iface ~sym:"op" w 7;
  let domain = Spin.Domain.of_interfaces "d" [ iface ] in
  let ext =
    Spin.Extension.Compiler.compile ~name:"e" ~imports:[ ("Svc", "op") ]
      (fun linkage -> ignore (linkage.get w ~iface:"Svc" ~sym:"op"))
  in
  Test.make ~name:"dynamic link + unlink"
    (Staged.stage (fun () ->
         match Spin.Linker.link ~domain ext with
         | Ok l -> Spin.Linker.unlink l
         | Error _ -> ()))

let test_ephemeral_plan =
  let prog =
    List.init 4 (fun _ ->
        Spin.Ephemeral.work ~label:"w" ~cost:(Sim.Stime.us 5) ignore)
  in
  Test.make ~name:"ephemeral plan+commit (4 actions)"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Spin.Ephemeral.execute ~budget:(Sim.Stime.us 12) prog))))

(* ---- datapath subjects (the zero-copy PR's trajectory record) --------- *)

(* Checksum: the chain-aware word-at-a-time fold against the
   byte-at-a-time reference, on a contiguous MTU frame and on a 12.5 KB
   datagram split into fragment-sized segments (odd-capable chain fold,
   no pullup). *)
let cksum_views_of ~seg_len total =
  let rec go off acc =
    if off >= total then List.rev acc
    else
      let n = min seg_len (total - off) in
      go (off + n) (View.of_string (String.make n 'x') :: acc)
  in
  go 0 []

let test_cksum_chain_1500 =
  let v = [ View.of_string (String.make 1500 'x') ] in
  Test.make ~name:"cksum chain-aware (1500B)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Cksum.of_views v))))

let test_cksum_byte_1500 =
  let v = [ View.of_string (String.make 1500 'x') ] in
  Test.make ~name:"cksum byte-at-a-time (1500B)"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Cksum.of_views_bytewise v))))

let test_cksum_chain_12500 =
  let vs = cksum_views_of ~seg_len:1480 12500 in
  Test.make ~name:"cksum chain-aware (12.5KB chain)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Cksum.of_views vs))))

let test_cksum_byte_12500 =
  let vs = cksum_views_of ~seg_len:1480 12500 in
  Test.make ~name:"cksum byte-at-a-time (12.5KB chain)"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Cksum.of_views_bytewise vs))))

let test_mbuf_alloc_recycle =
  Test.make ~name:"mbuf alloc+free 1500B (recycling)"
    (Staged.stage (fun () ->
         let m = Mbuf.alloc 1500 in
         Mbuf.free m))

let test_fragment_12500 =
  let payload = Mbuf.of_string (String.make 12500 'v') in
  Test.make ~name:"fragment 12.5KB into sub-chains"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Proto.Ip_frag.fragment ~mtu:1500 payload))))

(* Full simulated-stack round trip: application mbuf -> UDP/IP/ether
   headroom prepends -> device -> wire -> ring -> protocol graph ->
   application handler, per operation. *)
let udp_env =
  lazy
    (let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
     let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
     let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
     let bind_exn udp ~owner ~port =
       match Plexus.Udp_mgr.bind udp ~owner ~port with
       | Ok ep -> ep
       | Error _ -> failwith "bench: bind failed"
     in
     let server = bind_exn udp_b ~owner:"srv" ~port:7 in
     let (_ : unit -> unit) =
       Plexus.Udp_mgr.install_recv udp_b server (fun _ -> ())
     in
     let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
     (* warm up ARP so measured rounds are pure datapath *)
     Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7) "warm";
     Sim.Engine.run p.Experiments.Common.engine;
     (p.Experiments.Common.engine, udp_a, client))

let test_udp_roundtrip =
  Test.make ~name:"udp tx/rx round trip (1000B, full stack)"
    (Staged.stage (fun () ->
         let engine, udp, client = Lazy.force udp_env in
         let payload = Mbuf.alloc 1000 in
         Plexus.Udp_mgr.send_mbuf udp client
           ~dst:(Experiments.Common.ip_b, 7)
           payload;
         Sim.Engine.run engine))

(* ---- flow-path cache subjects (the per-flow fast-path PR) ------------- *)

(* The steady state the flow cache is for: the full stack with
   application extensions installed along the flow's path — a wire tap on
   the ether event, a firewall monitor and a byte-accounting monitor on
   the ip event, the paper's canonical extension trio — and span tracing
   active on the receiving kernel, the configuration `plexus-cli observe`
   runs.  Uncached, every packet re-pays demux, guard evaluation, one
   work item per accepted handler and a span per dispatch step at each
   layer; path-cached, one signature lookup replays the recorded chain
   synchronously and emits a single cache_hit span.  Built twice, cache
   off and on, so the two subjects differ only in the cache switch. *)
let steady_env ~flowcache =
  lazy
    (let p =
       Experiments.Common.plexus_pair ~flowcache (Netsim.Costs.ethernet ())
     in
     let b = p.Experiments.Common.b in
     let kernel = Netsim.Host.kernel (Plexus.Stack.host b) in
     let ring = Observe.Trace.Ring.create ~capacity:4096 () in
     Observe.Trace.set_sink (Spin.Kernel.trace kernel) (Observe.Trace.Ring ring);
     let ether_ev =
       Plexus.Graph.recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether b))
     in
     let ip_ev =
       Plexus.Graph.recv_event (Plexus.Ip_mgr.node (Plexus.Stack.ip b))
     in
     let frames = ref 0 and bytes = ref 0 in
     let (_ : unit -> unit) =
       Spin.Dispatcher.install ether_ev
         ~guard:(fun _ -> true)
         ~cacheable:true ~label:"tap" ~cost:(Sim.Stime.us 2)
         (fun _ -> incr frames)
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
         (fun ctx -> bytes := !bytes + Plexus.Pctx.payload_len ctx)
     in
     let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
     let udp_b = Plexus.Stack.udp b in
     let bind_exn udp ~owner ~port =
       match Plexus.Udp_mgr.bind udp ~owner ~port with
       | Ok ep -> ep
       | Error _ -> failwith "bench: bind failed"
     in
     let server = bind_exn udp_b ~owner:"srv" ~port:7 in
     let (_ : unit -> unit) =
       Plexus.Udp_mgr.install_recv udp_b server (fun _ -> ())
     in
     let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
     (* round 1 warms ARP and records the flow path, round 2 commits and
        first replays it — measured ops all hit when the cache is on *)
     for _ = 1 to 3 do
       Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7) "warm";
       Sim.Engine.run p.Experiments.Common.engine
     done;
     (p.Experiments.Common.engine, udp_a, client))

let steady_uncached_env = steady_env ~flowcache:false
let steady_cached_env = steady_env ~flowcache:true

let steady_op env () =
  let engine, udp, client = Lazy.force env in
  let payload = Mbuf.alloc 1000 in
  Plexus.Udp_mgr.send_mbuf udp client ~dst:(Experiments.Common.ip_b, 7) payload;
  Sim.Engine.run engine

let test_udp_roundtrip_cached =
  Test.make ~name:"udp round trip (path-cached)"
    (Staged.stage (steady_op steady_cached_env))

(* Batched receive: 32 prebuilt valid frames injected at the server device
   as one coalesced interrupt per op ([Dev.deliver_batch] →
   [Dispatcher.raise_batch]), flow cache warm.  The receive path neither
   mutates nor frees the frames (and the server handler is a no-op), so
   the same chains are redelivered every op. *)
let udp_batch_env =
  lazy
    (let p =
       Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
     in
     let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
     let server =
       match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
       | Ok ep -> ep
       | Error _ -> failwith "bench: bind failed"
     in
     let (_ : unit -> unit) =
       Plexus.Udp_mgr.install_recv udp_b server (fun _ -> ())
     in
     let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
     let mac = Netsim.Dev.mac dev in
     let mk_frame () =
       let m = Mbuf.alloc 1000 in
       Proto.Udp.encapsulate ~checksum:true m ~src:Experiments.Common.ip_a
         ~dst:Experiments.Common.ip_b ~src_port:5000 ~dst_port:7;
       Proto.Ipv4.encapsulate m
         (Proto.Ipv4.make ~id:1 ~proto:Proto.Ipv4.proto_udp
            ~src:Experiments.Common.ip_a ~dst:Experiments.Common.ip_b
            ~payload_len:(Mbuf.length m) ());
       Proto.Ether.encapsulate m
         { Proto.Ether.dst = mac; src = mac; etype = Proto.Ether.etype_ip };
       Mbuf.ro m
     in
     let frames = List.init 32 (fun _ -> mk_frame ()) in
     (* one cold batch records the flow path; every later frame replays *)
     for _ = 1 to 2 do
       Netsim.Dev.deliver_batch dev frames;
       Sim.Engine.run p.Experiments.Common.engine
     done;
     (p.Experiments.Common.engine, dev, frames))

let test_udp_rx_batch =
  Test.make ~name:"udp rx batch of 32"
    (Staged.stage (fun () ->
         let engine, dev, frames = Lazy.force udp_batch_env in
         Netsim.Dev.deliver_batch dev frames;
         Sim.Engine.run engine))

(* ---- observability overhead subjects ---------------------------------- *)

(* The same full-stack UDP round trip under three observability settings:
   registry detached (the honest baseline — what the fast path costs with
   no instrumentation attached), registry attached with the Null sink
   (disabled tracing, the configuration the 5%% acceptance threshold is
   about), registry attached with a ring-buffer sink recording every
   span, and registry attached with the packet flight recorder sampling
   1-in-64 ingress frames (the 2%% acceptance threshold). *)
let observe_env ~observe ~ring ?(flight_rate = 0) () =
  lazy
    (let p =
       Experiments.Common.plexus_pair ~observe (Netsim.Costs.ethernet ())
     in
     if flight_rate > 0 then
       List.iter
         (fun stack ->
           let kernel = Netsim.Host.kernel (Plexus.Stack.host stack) in
           Observe.Flight.set_rate (Spin.Kernel.flight kernel) flight_rate)
         [ p.Experiments.Common.a; p.Experiments.Common.b ];
     if ring then
       List.iter
         (fun stack ->
           let kernel =
             Netsim.Host.kernel (Plexus.Stack.host stack)
           in
           Observe.Trace.set_sink
             (Spin.Kernel.trace kernel)
             (Observe.Trace.Ring (Observe.Trace.Ring.create ~capacity:4096 ())))
         [ p.Experiments.Common.a; p.Experiments.Common.b ];
     let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
     let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
     let bind_exn udp ~owner ~port =
       match Plexus.Udp_mgr.bind udp ~owner ~port with
       | Ok ep -> ep
       | Error _ -> failwith "bench: bind failed"
     in
     let server = bind_exn udp_b ~owner:"srv" ~port:7 in
     let (_ : unit -> unit) =
       Plexus.Udp_mgr.install_recv udp_b server (fun _ -> ())
     in
     let client = bind_exn udp_a ~owner:"cli" ~port:5000 in
     Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7) "warm";
     Sim.Engine.run p.Experiments.Common.engine;
     (p.Experiments.Common.engine, udp_a, client))

let observe_detached_name = "udp roundtrip, registry detached"
let observe_null_name = "udp roundtrip, registry + null sink"
let observe_ring_name = "udp roundtrip, registry + ring sink"
let observe_flight_name = "udp roundtrip, registry + 1/64 flight sampling"

(* One timed batch of full-stack round trips against an environment;
   returns host-ns per op. *)
let observe_batch env iters =
  let engine, udp, client = Lazy.force env in
  (* settle the heap so one environment's garbage (the ring sink churns
     span records) is not billed to the next environment's batch *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    let payload = Mbuf.alloc 1000 in
    Plexus.Udp_mgr.send_mbuf udp client
      ~dst:(Experiments.Common.ip_b, 7)
      payload;
    Sim.Engine.run engine
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9

(* A percent-level comparison cannot come from benchmarking each
   configuration in its own isolated pass — allocator and GC state drift
   between passes swamps the signal.  Instead the three environments are
   timed in interleaved rounds and each subject reports its median
   round, so slow drift affects all three alike. *)
let run_observe_subjects () =
  Experiments.Common.print_header
    "Observability overhead (interleaved rounds, host-machine ns per op)";
  let envs =
    [
      (observe_detached_name, observe_env ~observe:false ~ring:false ());
      (observe_null_name, observe_env ~observe:true ~ring:false ());
      (observe_ring_name, observe_env ~observe:true ~ring:true ());
      ( observe_flight_name,
        observe_env ~observe:true ~ring:false ~flight_rate:64 () );
    ]
  in
  (* force + warm every environment before any measurement *)
  List.iter (fun (_, env) -> ignore (observe_batch env 5_000)) envs;
  let rounds = 9 and iters = 12_000 in
  let samples =
    Array.of_list (List.map (fun (name, env) -> (name, env, ref [])) envs)
  in
  let n = Array.length samples in
  for r = 0 to rounds - 1 do
    (* rotate the starting subject each round: within a round the
       subjects run back-to-back, so clock-frequency drift would
       otherwise always bias the same (later) subjects *)
    for i = 0 to n - 1 do
      let _, env, acc = samples.((r + i) mod n) in
      acc := observe_batch env iters :: !acc
    done
  done;
  let samples = Array.to_list samples in
  List.map
    (fun (name, _, acc) ->
      (* the minimum round is the noise floor — interference (GC slices,
         scheduling) only ever adds time *)
      let best = List.fold_left min infinity !acc in
      Printf.printf "  %-44s %12.1f ns\n%!" name best;
      (name, best))
    samples

let datapath_tests =
  [
    test_udp_roundtrip;
    test_udp_roundtrip_cached;
    test_udp_rx_batch;
    test_fragment_12500;
    test_cksum_chain_1500;
    test_cksum_byte_1500;
    test_cksum_chain_12500;
    test_cksum_byte_12500;
    test_mbuf_alloc_recycle;
  ]

(* Deterministic per-op copy/alloc counts for the two key paths, measured
   with the Metrics counters rather than timed. *)
let datapath_counters () =
  let engine, udp, client = Lazy.force udp_env in
  let payload = Mbuf.alloc 1000 in
  Metrics.reset ();
  Plexus.Udp_mgr.send_mbuf udp client ~dst:(Experiments.Common.ip_b, 7) payload;
  Sim.Engine.run engine;
  let udp_s = Metrics.snapshot () in
  let big = Mbuf.of_string (String.make 12500 'v') in
  Metrics.reset ();
  let frags = Proto.Ip_frag.fragment ~mtu:1500 big in
  let frag_s = Metrics.snapshot () in
  [
    ("udp fast path: copies per op", udp_s.Metrics.copies);
    ("udp fast path: bytes copied per op", udp_s.Metrics.bytes_copied);
    ("udp fast path: buffer allocs per op", udp_s.Metrics.allocs);
    ("fragment 12.5KB: copies per op", frag_s.Metrics.copies);
    ("fragment 12.5KB: buffer allocs per op", frag_s.Metrics.allocs);
    ("fragment 12.5KB: fragments", List.length frags);
  ]

let micro_tests =
  [ test_direct_call ]
  @ dispatch_tests
  @ [
      test_guard;
      test_view_read;
      test_ipv4_parse;
      test_mbuf_alloc;
      test_mbuf_prepend;
      test_cksum_1500;
      test_tcp_encode;
    ]
  @ filter_tests
  @ [ test_link_unlink; test_ephemeral_plan ]

(* Runs the subjects, prints the human-readable table, and returns
   [(name, ns_per_op)] for the machine-readable record. *)
let run_bechamel ?(quota = 0.25) tests =
  Experiments.Common.print_header
    "Bechamel microbenchmarks (host-machine ns per operation)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  List.concat_map
    (fun test ->
      let results =
        Benchmark.all cfg instances
          (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.fold
        (fun name ols_result acc ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "  %-44s %12.1f ns\n%!" name est;
              (name, est) :: acc
          | _ ->
              Printf.printf "  %-44s (no estimate)\n%!" name;
              acc)
        analyzed [])
    tests

(* The demux subjects, recorded as JSON so the perf trajectory is
   comparable across revisions. *)
let write_dispatch_json path results =
  let dispatch_subject name = (name, List.assoc_opt name results) in
  let subjects =
    List.concat_map
      (fun n ->
        [
          dispatch_subject (Printf.sprintf "g dispatch linear (%d handlers)" n);
          dispatch_subject (Printf.sprintf "g dispatch tree (%d handlers)" n);
        ])
      dispatch_counts
    @ List.map dispatch_subject
        [
          "g dispatch tree (64 analyzers)";
          "g interpreted packet filter (5 nodes)";
          "g compiled packet filter (5 nodes)";
          "g interpreted packet filter (15 nodes)";
          "g compiled packet filter (15 nodes)";
        ]
  in
  let oc = open_out path in
  output_string oc "{\n  \"unit\": \"ns_per_op\",\n  \"subjects\": {\n";
  let entries =
    List.filter_map
      (fun (name, v) ->
        (* strip the bechamel group prefix *)
        let name =
          if String.length name > 2 && String.sub name 0 2 = "g " then
            String.sub name 2 (String.length name - 2)
          else name
        in
        Option.map (fun v -> Printf.sprintf "    %S: %.1f" name v) v)
      subjects
  in
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n  }\n}\n";
  close_out oc;
  Printf.printf "\n  wrote %s (%d subjects)\n%!" path (List.length entries)

(* The zero-copy datapath subjects: timed numbers plus the deterministic
   Metrics copy/alloc counts, same JSON shape as BENCH_dispatch.json with
   an extra "counters" map. *)
let write_datapath_json path results =
  let strip name =
    if String.length name > 2 && String.sub name 0 2 = "g " then
      String.sub name 2 (String.length name - 2)
    else name
  in
  let subjects =
    List.filter_map
      (fun test ->
        let name = "g " ^ Test.name test in
        Option.map (fun v -> (strip name, v)) (List.assoc_opt name results))
      datapath_tests
  in
  let counters = datapath_counters () in
  let oc = open_out path in
  output_string oc "{\n  \"unit\": \"ns_per_op\",\n  \"subjects\": {\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (n, v) -> Printf.sprintf "    %S: %.1f" n v) subjects));
  output_string oc "\n  },\n  \"counters\": {\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (n, v) -> Printf.sprintf "    %S: %d" n v) counters));
  output_string oc "\n  }\n}\n";
  close_out oc;
  Printf.printf "\n  wrote %s (%d subjects, %d counters)\n%!" path
    (List.length subjects) (List.length counters)

(* Patch individual subject values into an existing BENCH_datapath.json
   without disturbing the other subjects or the counters map — the
   flowcache-only section re-measures only its own subjects, so the
   stored uncached values (and their PR-over-PR trajectory) survive. *)
let patch_datapath_json path updates =
  let read_lines () =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let lines =
    if Sys.file_exists path then read_lines ()
    else [ "{"; "  \"unit\": \"ns_per_op\","; "  \"subjects\": {"; "  }"; "}" ]
  in
  let lines, missing =
    List.fold_left
      (fun (lines, missing) (name, v) ->
        let key = Printf.sprintf "%S:" name in
        let found = ref false in
        let lines =
          List.map
            (fun l ->
              let t = String.trim l in
              if
                String.length t >= String.length key
                && String.sub t 0 (String.length key) = key
              then begin
                found := true;
                let comma =
                  if t.[String.length t - 1] = ',' then "," else ""
                in
                Printf.sprintf "    %S: %.1f%s" name v comma
              end
              else l)
            lines
        in
        if !found then (lines, missing) else (lines, (name, v) :: missing))
      (lines, []) updates
  in
  let lines =
    if missing = [] then lines
    else
      List.concat_map
        (fun l ->
          if String.trim l = "\"subjects\": {" then
            l
            :: List.rev_map
                 (fun (n, v) -> Printf.sprintf "    %S: %.1f," n v)
                 missing
          else [ l ])
        lines
  in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.printf "\n  patched %s (%d subject(s))\n%!" path (List.length updates)

let flowcache_cached_name = "udp round trip (path-cached)"
let flowcache_batch_name = "udp rx batch of 32"

(* The flow-cache acceptance record.  The cached and uncached round
   trips run the identical steady-state workload (extension trio
   installed, span tracing on — see [steady_env]) and differ only in the
   cache switch, so their ratio isolates what the cache buys.  Like the
   observability section, a ratio cannot come from benchmarking each
   side in its own isolated pass — allocator/GC drift between passes
   swamps the signal — so the subjects are timed in interleaved rounds,
   rotating the starting subject, and each reports its minimum round
   (the noise floor; interference only ever adds time).  Writes the two
   new subjects into BENCH_datapath.json and (with [--check]) gates on
   the cached path being at least 1.5x faster than the uncached one. *)
let run_flowcache ~check =
  Experiments.Common.print_header
    "Flow-path cache, steady state (interleaved rounds, host ns per op)";
  let time_batch op iters =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do op () done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  let batch_op () =
    let engine, dev, frames = Lazy.force udp_batch_env in
    Netsim.Dev.deliver_batch dev frames;
    Sim.Engine.run engine
  in
  let subjects =
    [|
      ("udp round trip (uncached, same workload)",
       steady_op steady_uncached_env, 8_000, ref []);
      (flowcache_cached_name, steady_op steady_cached_env, 8_000, ref []);
      (flowcache_batch_name, batch_op, 400, ref []);
    |]
  in
  (* force + warm every environment before any measurement *)
  Array.iter (fun (_, op, _, _) -> ignore (time_batch op 2_000)) subjects;
  let rounds = 9 in
  let n = Array.length subjects in
  for r = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      let _, op, iters, acc = subjects.((r + i) mod n) in
      acc := time_batch op iters :: !acc
    done
  done;
  let best_of (name, _, _, acc) =
    let best = List.fold_left min infinity !acc in
    Printf.printf "  %-44s %12.1f ns\n%!" name best;
    best
  in
  let uncached = best_of subjects.(0) in
  let cached = best_of subjects.(1) in
  let batch = best_of subjects.(2) in
  patch_datapath_json "BENCH_datapath.json"
    [ (flowcache_cached_name, cached); (flowcache_batch_name, batch) ];
  Printf.printf
    "  path-cached speedup: %.2fx (uncached %.1f ns, cached %.1f ns)\n%!"
    (uncached /. cached) uncached cached;
  if check then
    if uncached < 1.5 *. cached then begin
      Printf.eprintf
        "FAIL: path-cached round trip only %.2fx faster than uncached \
         (need >= 1.5x)\n%!"
        (uncached /. cached);
      exit 1
    end
    else Printf.printf "  flow-cache check passed (>= 1.5x)\n%!"

(* The observability acceptance record: per-op times for the four
   settings and the derived overhead percentages.  The interesting
   numbers are [disabled_tracing_pct] — what attaching the registry with
   tracing disabled costs the UDP fast path relative to the detached
   baseline (5%% budget) — and [sampled_pct] — what 1-in-64 flight
   sampling adds on top of the attached-registry configuration it runs
   in (2%% budget).  Negative measured overhead (noise) is clamped
   to 0. *)
let write_observe_json path results =
  let find name = List.assoc_opt name results in
  let pct base v =
    match (base, v) with
    | Some b, Some v when b > 0. -> Some (Float.max 0. ((v -. b) /. b *. 100.))
    | _ -> None
  in
  let detached = find observe_detached_name in
  let null = find observe_null_name in
  let ring = find observe_ring_name in
  let flight = find observe_flight_name in
  let disabled_pct = pct detached null in
  let ring_pct = pct detached ring in
  let sampled_pct = pct null flight in
  let oc = open_out path in
  output_string oc "{\n  \"unit\": \"ns_per_op\",\n  \"subjects\": {\n";
  output_string oc
    (String.concat ",\n"
       (List.filter_map
          (fun (n, v) ->
            Option.map (fun v -> Printf.sprintf "    %S: %.1f" n v) v)
          [
            (observe_detached_name, detached);
            (observe_null_name, null);
            (observe_ring_name, ring);
            (observe_flight_name, flight);
          ]));
  output_string oc "\n  },\n  \"overhead\": {\n";
  output_string oc
    (String.concat ",\n"
       (List.filter_map
          (fun (n, v) ->
            Option.map (fun v -> Printf.sprintf "    %S: %.2f" n v) v)
          [
            ("disabled_tracing_pct", disabled_pct);
            ("ring_sink_pct", ring_pct);
            ("sampled_pct", sampled_pct);
          ]));
  output_string oc
    "\n  },\n  \"threshold_pct\": 5.0,\n  \"sampled_threshold_pct\": 2.0\n}\n";
  close_out oc;
  (match (disabled_pct, sampled_pct) with
  | Some p, Some s ->
      Printf.printf
        "\n\
        \  wrote %s (disabled-tracing overhead: %.2f%%, 1/64 sampling \
         overhead: %.2f%%)\n\
         %!"
        path p s
  | Some p, None ->
      Printf.printf
        "\n  wrote %s (disabled-tracing overhead on the UDP fast path: %.2f%%)\n%!"
        path p
  | None, _ -> Printf.printf "\n  wrote %s (incomplete estimates)\n%!" path);
  (disabled_pct, sampled_pct)

let run_observe ~check =
  let results = run_observe_subjects () in
  let disabled_pct, sampled_pct = write_observe_json "BENCH_observe.json" results in
  if check then begin
    (match disabled_pct with
    | Some p when p > 5.0 ->
        Printf.eprintf
          "FAIL: disabled-tracing overhead %.2f%% exceeds the 5%% budget\n%!" p;
        exit 1
    | Some p -> Printf.printf "  overhead check passed (%.2f%% <= 5%%)\n%!" p
    | None ->
        Printf.eprintf "FAIL: missing estimates for the observe subjects\n%!";
        exit 1);
    match sampled_pct with
    | Some p when p > 2.0 ->
        Printf.eprintf
          "FAIL: 1/64 flight-sampling overhead %.2f%% exceeds the 2%% budget\n%!"
          p;
        exit 1
    | Some p ->
        Printf.printf "  sampling overhead check passed (%.2f%% <= 2%%)\n%!" p
    | None ->
        Printf.eprintf "FAIL: missing estimate for the flight subject\n%!";
        exit 1
  end

(* The fault/overload acceptance record.  Unlike the timing sections,
   these numbers are simulated (deterministic): goodput with admission
   control off vs. on at 2x offered overload, plus a chaos-soak summary.
   The [--check] gate requires mitigated goodput >= 2x unmitigated and a
   clean soak. *)
let run_faults ~check =
  let p = Experiments.Overload.print () in
  let soak = Experiments.Chaos.print ~seeds:20 () in
  let ratio = Experiments.Overload.ratio p in
  let oc = open_out "BENCH_faults.json" in
  Printf.fprintf oc
    "{\n\
    \  \"unit\": \"datagrams_per_s\",\n\
    \  \"offered_pps\": %d,\n\
    \  \"unmitigated_goodput\": %.1f,\n\
    \  \"mitigated_goodput\": %.1f,\n\
    \  \"ratio\": %s,\n\
    \  \"chaos\": {\n\
    \    \"seeds\": %d,\n\
    \    \"udp_failures\": %d,\n\
    \    \"frag_failures\": %d,\n\
    \    \"tcp_failures\": %d,\n\
    \    \"cache_divergences\": %d\n\
    \  },\n\
    \  \"gate\": \"mitigated >= 2x unmitigated at 2x overload, soak clean\"\n\
     }\n"
    p.Experiments.Overload.offered_pps p.Experiments.Overload.unmitigated_goodput
    p.Experiments.Overload.mitigated_goodput
    (if ratio = infinity then "\"inf\"" else Printf.sprintf "%.2f" ratio)
    soak.Experiments.Chaos.seeds soak.Experiments.Chaos.udp_failures
    soak.Experiments.Chaos.frag_failures soak.Experiments.Chaos.tcp_failures
    soak.Experiments.Chaos.cache_divergences;
  close_out oc;
  Printf.printf "\n  wrote BENCH_faults.json (goodput ratio: %s)\n%!"
    (if ratio = infinity then "inf" else Printf.sprintf "%.2fx" ratio);
  if check then begin
    let mitigation_ok =
      p.Experiments.Overload.mitigated_goodput
      >= 2. *. p.Experiments.Overload.unmitigated_goodput
      && p.Experiments.Overload.mitigated_goodput > 0.
    in
    if not mitigation_ok then begin
      Printf.eprintf
        "FAIL: mitigated goodput %.1f/s not >= 2x unmitigated %.1f/s\n%!"
        p.Experiments.Overload.mitigated_goodput
        p.Experiments.Overload.unmitigated_goodput;
      exit 1
    end;
    if not (Experiments.Chaos.soak_ok soak) then begin
      Printf.eprintf "FAIL: chaos soak reported invariant failures\n%!";
      exit 1
    end;
    Printf.printf "  faults check passed (>= 2x goodput, soak clean)\n%!"
  end

(* The steady-state scale record: host cost per simulated packet with 1k
   vs. 100k live flows parked across the server farm (Experiments.Farm).
   The two probe workloads are sim-identical — same topology, same
   probe count, same deterministic schedule (their simulated p50/p99
   match exactly) — so the host-time ratio isolates what connection
   population costs the implementation: flow-table lookups, timer-wheel
   occupancy, path-cache pressure, allocator/GC footprint.  Timed like
   the other percent-level sections: Gc.full_major before every round,
   interleaved rounds, each subject reporting its minimum (the noise
   floor).  [--check] gates the ratio at 1.3x — the sharded-table and
   timer-wheel acceptance criterion. *)
let scale_flows_lo = 1_000
let scale_flows_hi = 100_000
let scale_ratio_limit = 1.3

let run_scale ~check =
  Experiments.Common.print_header
    "Steady-state scale: host ns per simulated packet vs. live flows";
  let clients = 8 and probes = 500 in
  let setup live =
    Printf.printf "  establishing %d live flows...\n%!" live;
    Experiments.Farm.scale_setup ~clients ~live_flows:live ~probes ()
  in
  let lo_run = setup scale_flows_lo in
  let hi_run = setup scale_flows_hi in
  let time_round run =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let p = run () in
    let dt = Unix.gettimeofday () -. t0 in
    (p, dt *. 1e9 /. float_of_int p.Experiments.Farm.packets)
  in
  (* warm both before any measured round *)
  ignore (time_round lo_run);
  ignore (time_round hi_run);
  let rounds = 5 in
  let measure run =
    let probe = ref None and best = ref infinity in
    let tick () =
      let p, ns = time_round run in
      probe := Some p;
      if ns < !best then best := ns
    in
    (probe, best, tick)
  in
  let lo_probe, lo_best, lo_tick = measure lo_run in
  let hi_probe, hi_best, hi_tick = measure hi_run in
  for r = 0 to rounds - 1 do
    if r mod 2 = 0 then begin lo_tick (); hi_tick () end
    else begin hi_tick (); lo_tick () end
  done;
  let lo = Option.get !lo_probe and hi = Option.get !hi_probe in
  let row label (p : Experiments.Farm.probe) ns =
    Printf.printf
      "  %-18s %10.0f ns/pkt %9.2f Mb/s sim goodput %8.1f us sim p50 %8.1f \
       us sim p99\n\
       %!"
      label ns p.Experiments.Farm.probe_goodput_mbps
      p.Experiments.Farm.probe_p50_us p.Experiments.Farm.probe_p99_us
  in
  row (Printf.sprintf "%d live flows" scale_flows_lo) lo !lo_best;
  row (Printf.sprintf "%d live flows" scale_flows_hi) hi !hi_best;
  let ratio = !hi_best /. !lo_best in
  let oc = open_out "BENCH_scale.json" in
  let emit_row (p : Experiments.Farm.probe) ns =
    Printf.sprintf
      "    { \"live_flows\": %d, \"established\": %d, \"probes\": %d, \
       \"packets\": %d, \"ns_per_packet\": %.1f, \"sim_goodput_mbps\": %.2f, \
       \"sim_p50_us\": %.1f, \"sim_p99_us\": %.1f, \"probe_errors\": %d }"
      p.Experiments.Farm.live_flows p.Experiments.Farm.established
      p.Experiments.Farm.probes p.Experiments.Farm.packets ns
      p.Experiments.Farm.probe_goodput_mbps p.Experiments.Farm.probe_p50_us
      p.Experiments.Farm.probe_p99_us p.Experiments.Farm.probe_errors
  in
  Printf.fprintf oc
    "{\n\
    \  \"unit\": \"host_ns_per_simulated_packet\",\n\
    \  \"note\": \"sim_* columns are simulated-time probe stats; the probe \
     schedule is population-independent, so they are identical across rows \
     by design — only ns_per_packet measures host cost vs. population\",\n\
    \  \"clients\": %d,\n\
    \  \"rows\": [\n%s,\n%s\n  ],\n\
    \  \"ratio\": %.3f,\n\
    \  \"gate\": \"per-packet cost at %dk live flows <= %.1fx the %dk-flow \
     cost\"\n\
     }\n"
    clients
    (emit_row lo !lo_best)
    (emit_row hi !hi_best)
    ratio (scale_flows_hi / 1000) scale_ratio_limit (scale_flows_lo / 1000);
  close_out oc;
  Printf.printf "\n  wrote BENCH_scale.json (cost ratio %dk/%dk: %.2fx)\n%!"
    (scale_flows_hi / 1000) (scale_flows_lo / 1000) ratio;
  if check then begin
    let population_ok =
      lo.Experiments.Farm.established = scale_flows_lo
      && hi.Experiments.Farm.established = scale_flows_hi
    in
    if not population_ok then begin
      Printf.eprintf "FAIL: flow population incomplete (%d/%d, %d/%d)\n%!"
        lo.Experiments.Farm.established scale_flows_lo
        hi.Experiments.Farm.established scale_flows_hi;
      exit 1
    end;
    if lo.Experiments.Farm.probe_errors > 0 || hi.Experiments.Farm.probe_errors > 0
    then begin
      Printf.eprintf "FAIL: probe errors (%d at %dk, %d at %dk)\n%!"
        lo.Experiments.Farm.probe_errors (scale_flows_lo / 1000)
        hi.Experiments.Farm.probe_errors (scale_flows_hi / 1000);
      exit 1
    end;
    if ratio > scale_ratio_limit then begin
      Printf.eprintf
        "FAIL: per-packet cost at %dk live flows is %.2fx the %dk cost \
         (limit %.1fx)\n%!"
        (scale_flows_hi / 1000) ratio (scale_flows_lo / 1000) scale_ratio_limit;
      exit 1
    end;
    Printf.printf "  scale check passed (%.2fx <= %.1fx, populations full, \
                   no probe errors)\n%!"
      ratio scale_ratio_limit
  end

(* The multicore-datapath acceptance record: the steady-state UDP
   workload sharded RSS-style across OCaml 5 execution domains
   ([Par.Node]).  Throughput is measured in *simulated* time — datagrams
   delivered over the makespan, the busiest domain's simulated CPU busy
   time — so the reported speedup is a property of the sharded datapath
   itself, not of how many physical cores the host happens to expose
   (CI runners and the dev container may pin a single core; the runs
   still execute on real [Stdlib.Domain]s, and counter-for-counter
   equivalence against the 1-domain oracle is asserted on every
   invocation).  Host wall time and core count are recorded as
   supplementary context, following BENCH_faults.json's precedent of
   simulated (deterministic) metrics. *)
let parallel_seed = 42
let parallel_flows = 256
let parallel_pkts = 40

(* the CI gate at the largest domain count exercised *)
let parallel_gate domains =
  if domains >= 4 then 1.6 else if domains >= 2 then 1.3 else 1.0

let run_parallel ~check ~max_domains =
  Experiments.Common.print_header
    "Multicore datapath: RSS sharding across domains (simulated datagrams/s)";
  let plan =
    Par.Rss.make ~seed:parallel_seed ~flows:parallel_flows
      ~pkts_per_flow:parallel_pkts ()
  in
  let counts = List.filter (fun d -> d <= max_domains) [ 1; 2; 4 ] in
  let runs = List.map (fun domains -> Par.Node.run ~domains plan) counts in
  let oracle = List.hd runs in
  (* the equivalence soak is cheap at this scale: assert it on every
     bench invocation, gated or not *)
  List.iter
    (fun (s : Par.Node.stats) ->
      List.iter2
        (fun (name, expect) (_, got) ->
          if expect <> got then begin
            Printf.eprintf
              "FAIL: %d-domain run diverges from the 1-domain oracle on %s \
               (%d vs %d)\n%!"
              s.Par.Node.domains name got expect;
            exit 1
          end)
        (Par.Node.equiv_counters oracle)
        (Par.Node.equiv_counters s))
    (List.tl runs);
  let speedup (s : Par.Node.stats) =
    s.Par.Node.datagrams_per_s /. oracle.Par.Node.datagrams_per_s
  in
  List.iter
    (fun (s : Par.Node.stats) ->
      Printf.printf
        "  %d domain%s %11.0f dg/s %6.2fx speedup %7d delivered %6d \
         forwarded %9.1f ms busy\n%!"
        s.Par.Node.domains
        (if s.Par.Node.domains = 1 then " " else "s")
        s.Par.Node.datagrams_per_s (speedup s) s.Par.Node.delivered
        s.Par.Node.forwarded
        (s.Par.Node.busy_max_us /. 1000.))
    runs;
  let oc = open_out "BENCH_parallel.json" in
  let emit_row (s : Par.Node.stats) =
    Printf.sprintf
      "    { \"domains\": %d, \"delivered\": %d, \"forwarded\": %d, \
       \"busy_max_us\": %.1f, \"datagrams_per_s\": %.0f, \"speedup\": %.2f, \
       \"wall_s\": %.3f }"
      s.Par.Node.domains s.Par.Node.delivered s.Par.Node.forwarded
      s.Par.Node.busy_max_us s.Par.Node.datagrams_per_s (speedup s)
      s.Par.Node.wall_s
  in
  Printf.fprintf oc
    "{\n\
    \  \"unit\": \"simulated_datagrams_per_s\",\n\
    \  \"note\": \"throughput in simulated time: delivered datagrams over \
     the busiest domain's simulated CPU busy time; host-independent. \
     wall_s and host_cores are informational only.\",\n\
    \  \"host_cores\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"flows\": %d,\n\
    \  \"pkts_per_flow\": %d,\n\
    \  \"frames\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"equivalence\": \"1-domain oracle vs N-domain counters identical \
     (asserted on every run)\",\n\
    \  \"gate\": \"simulated speedup >= 1.6x at 4 domains (>= 1.3x at 2)\"\n\
     }\n"
    (Stdlib.Domain.recommended_domain_count ())
    parallel_seed parallel_flows parallel_pkts
    (Array.length plan.Par.Rss.frames)
    (String.concat ",\n" (List.map emit_row runs));
  close_out oc;
  let top = List.nth runs (List.length runs - 1) in
  let top_speedup = speedup top in
  Printf.printf
    "\n  wrote BENCH_parallel.json (%.2fx simulated speedup at %d domains)\n%!"
    top_speedup top.Par.Node.domains;
  if check then begin
    let need = parallel_gate top.Par.Node.domains in
    if top.Par.Node.domains < 2 then begin
      Printf.eprintf "FAIL: parallel check needs at least 2 domains\n%!";
      exit 1
    end;
    if top_speedup < need then begin
      Printf.eprintf
        "FAIL: simulated speedup %.2fx at %d domains below the %.1fx gate\n%!"
        top_speedup top.Par.Node.domains need;
      exit 1
    end;
    Printf.printf
      "  parallel check passed (%.2fx >= %.1fx at %d domains, equivalence \
       exact)\n%!"
      top_speedup need top.Par.Node.domains
  end

(* ---- lifecycle: verifier, quarantine, zero-drop hot-swap --------------- *)

let lifecycle_runs = 5
let lifecycle_swap_every = 64

let run_lifecycle ~check ~max_domains =
  let r = Experiments.Lifecycle.print ~runs:lifecycle_runs () in
  let dropped = Experiments.Lifecycle.dropped r in
  (* Parallel leg: the same hot-swap protocol churning on every domain
     of the multicore datapath, still counter-for-counter equivalent to
     the 1-domain oracle.  Flow cache off: each swap bumps the event
     generation, which invalidates path recordings at domain-dependent
     points — bookkeeping divergence, not behavioral. *)
  let plan =
    Par.Rss.make ~seed:parallel_seed ~flows:parallel_flows
      ~pkts_per_flow:parallel_pkts ()
  in
  let par_domains = min 2 max_domains in
  let oracle =
    Par.Node.run ~domains:1 ~flowcache:false
      ~swap_every:lifecycle_swap_every plan
  in
  let par =
    Par.Node.run ~domains:par_domains ~flowcache:false
      ~swap_every:lifecycle_swap_every plan
  in
  let par_equiv =
    List.for_all2
      (fun (name, expect) (_, got) ->
        if expect <> got then
          Printf.eprintf
            "FAIL: %d-domain swap-churn run diverges from the 1-domain \
             oracle on %s (%d vs %d)\n%!"
            par.Par.Node.domains name got expect;
        expect = got)
      (Par.Node.equiv_counters oracle)
      (Par.Node.equiv_counters par)
  in
  Printf.printf
    "  par churn: %d swaps at 1 domain, %d at %d domains, %d delivered, \
     equivalence %s\n%!"
    oracle.Par.Node.swaps par.Par.Node.swaps par.Par.Node.domains
    par.Par.Node.delivered
    (if par_equiv then "exact" else "BROKEN");
  let oc = open_out "BENCH_lifecycle.json" in
  Printf.fprintf oc
    "{\n\
    \  \"unit\": \"invariants\",\n\
    \  \"note\": \"zero-drop hot-swap soak: datagrams sent vs sunk across \
     Linker.replace churn, swap drain latency in simulated ns, runtime \
     quarantine and static verifier rejection; plus 2-domain swap churn \
     equivalence against the 1-domain oracle.\",\n\
    \  \"runs\": %d,\n\
    \  \"sent\": %d,\n\
    \  \"sunk\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"monitored\": %d,\n\
    \  \"swaps\": %d,\n\
    \  \"max_inflight_at_flip\": %d,\n\
    \  \"drain_max_ns\": %d,\n\
    \  \"quarantined_runs\": %d,\n\
    \  \"verifier_rejected_runs\": %d,\n\
    \  \"par\": { \"domains\": %d, \"swap_every\": %d, \"swaps\": %d, \
     \"delivered\": %d, \"equivalent\": %b },\n\
    \  \"gate\": \"dropped = 0, swaps > 0 with inflight observed at a flip, \
     quarantine and verifier rejection on every run, par churn equivalence \
     exact\"\n\
     }\n"
    r.Experiments.Lifecycle.l_runs r.Experiments.Lifecycle.l_sent
    r.Experiments.Lifecycle.l_sunk dropped r.Experiments.Lifecycle.l_monitored
    r.Experiments.Lifecycle.l_swaps r.Experiments.Lifecycle.l_max_inflight
    r.Experiments.Lifecycle.l_drain_max_ns
    r.Experiments.Lifecycle.l_quarantined
    r.Experiments.Lifecycle.l_rejected par.Par.Node.domains
    lifecycle_swap_every par.Par.Node.swaps par.Par.Node.delivered par_equiv;
  close_out oc;
  Printf.printf
    "\n\
    \  wrote BENCH_lifecycle.json (%d swaps, %d in flight at worst flip, 0 \
     drops expected: dropped=%d)\n\
     %!"
    r.Experiments.Lifecycle.l_swaps r.Experiments.Lifecycle.l_max_inflight
    dropped;
  if check then begin
    if not (Experiments.Lifecycle.report_ok r) then begin
      Printf.eprintf
        "FAIL: lifecycle soak violated an invariant (dropped=%d swaps=%d \
         max_inflight=%d quarantined=%d/%d rejected=%d/%d failures=%d)\n%!"
        dropped r.Experiments.Lifecycle.l_swaps
        r.Experiments.Lifecycle.l_max_inflight
        r.Experiments.Lifecycle.l_quarantined r.Experiments.Lifecycle.l_runs
        r.Experiments.Lifecycle.l_rejected r.Experiments.Lifecycle.l_runs
        r.Experiments.Lifecycle.l_failures;
      exit 1
    end;
    if not par_equiv then exit 1;
    if par.Par.Node.swaps = 0 || oracle.Par.Node.swaps = 0 then begin
      Printf.eprintf "FAIL: par swap churn performed no swaps\n%!";
      exit 1
    end;
    Printf.printf
      "  lifecycle check passed (0 drops across %d swaps, quarantine + \
       verifier enforced, par churn equivalent)\n%!"
      (r.Experiments.Lifecycle.l_swaps + par.Par.Node.swaps
      + oracle.Par.Node.swaps)
  end

(* ---- Part 2: paper reproduction --------------------------------------- *)

let () =
  let dispatch_only = Array.mem "--dispatch-only" Sys.argv in
  let datapath_only = Array.mem "--datapath-only" Sys.argv in
  let flowcache_only = Array.mem "--flowcache-only" Sys.argv in
  let observe_only = Array.mem "--observe-only" Sys.argv in
  let faults_only = Array.mem "--faults-only" Sys.argv in
  let scale_only = Array.mem "--scale-only" Sys.argv in
  let parallel_only = Array.mem "--parallel-only" Sys.argv in
  let lifecycle_only = Array.mem "--lifecycle-only" Sys.argv in
  let check = Array.mem "--check" Sys.argv in
  let max_domains =
    let v = ref 4 in
    Array.iteri
      (fun i a ->
        if a = "--max-domains" && i + 1 < Array.length Sys.argv then
          v := int_of_string Sys.argv.(i + 1))
      Sys.argv;
    !v
  in
  if dispatch_only then begin
    let results = run_bechamel (dispatch_tests @ filter_tests) in
    write_dispatch_json "BENCH_dispatch.json" results;
    (* The merged-tree gate: the walk must stay flat in the number of
       installed handlers — tree(256) within 15% of the event's own
       1-handler cost. *)
    if check then begin
      let t1, t256 = dispatch_gate_times () in
      Printf.printf "\n  dispatch gate: tree(256)=%.1fns tree(1)=%.1fns\n%!"
        t256 t1;
      if t256 > 1.15 *. t1 then begin
        Printf.eprintf
          "FAIL: tree(256) %.1fns above 1.15x tree(1) %.1fns — the walk is \
           not flat in handler count\n%!"
          t256 (1.15 *. t1);
        exit 1
      end;
      Printf.printf "  dispatch check passed (tree(256) <= 1.15x tree(1))\n%!"
    end
  end
  else if datapath_only then begin
    let results = run_bechamel datapath_tests in
    write_datapath_json "BENCH_datapath.json" results
  end
  else if flowcache_only then run_flowcache ~check
  else if observe_only then run_observe ~check
  else if faults_only then run_faults ~check
  else if scale_only then run_scale ~check
  else if parallel_only then run_parallel ~check ~max_domains
  else if lifecycle_only then run_lifecycle ~check ~max_domains
  else begin
    let results = run_bechamel (micro_tests @ datapath_tests) in
    write_dispatch_json "BENCH_dispatch.json" results;
    write_datapath_json "BENCH_datapath.json" results;
    run_observe ~check:false;
    run_faults ~check:false;
    run_parallel ~check:false ~max_domains;
    run_lifecycle ~check:false ~max_domains;
    ignore (Experiments.Fig5.print ~iters:200 ());
    ignore (Experiments.Tput.print ~bytes:2_000_000 ());
    ignore (Experiments.Fig6.print ());
    ignore (Experiments.Fig7.print ~iters:50 ());
    ignore (Experiments.Micro.print ~iters:100 ());
    ignore (Experiments.Sweep.print ~iters:100 ());
    ignore (Experiments.Livelock.print ());
    Experiments.Motivate.print ();
    ignore (Experiments.Http_bench.print ());
    ignore (Experiments.Farm.print ());
    Experiments.Ablate.print ();
    print_newline ()
  end
