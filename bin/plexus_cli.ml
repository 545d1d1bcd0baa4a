(* plexus-cli: run any experiment from the paper's evaluation by name. *)

open Cmdliner

let iters =
  Arg.(value & opt int 200 & info [ "iters" ] ~doc:"Round trips per data point.")

let run_fig5 iters = ignore (Experiments.Fig5.print ~iters ())

let run_tput bytes = ignore (Experiments.Tput.print ~bytes ())

let run_fig6 max_streams step =
  let counts =
    List.filter
      (fun n -> n mod step = 0 || n = 1)
      (List.init max_streams (fun i -> i + 1))
  in
  ignore (Experiments.Fig6.print ~stream_counts:counts ())

let run_fig7 iters = ignore (Experiments.Fig7.print ~iters ())

let run_micro iters = ignore (Experiments.Micro.print ~iters ())

let run_ablate () = Experiments.Ablate.print ()

let run_sweep iters = ignore (Experiments.Sweep.print ~iters ())

let run_livelock () = ignore (Experiments.Livelock.print ())

let run_motivate () = Experiments.Motivate.print ()

let run_http iters = ignore (Experiments.Http_bench.print ~iters ())

let run_chaos verbose seeds base_seed =
  let s =
    Experiments.Chaos.print ~verbose ~seeds ~base_seed ()
  in
  if not (Experiments.Chaos.soak_ok s) then exit 1

let run_farm clients requests mean_gap_us shape seed =
  let r =
    Experiments.Farm.print ~clients ~requests ~mean_gap_us ~shape ~seed ()
  in
  if r.Experiments.Farm.errors > 0 then exit 1

let run_overload offered_pps =
  let p = Experiments.Overload.print ~offered_pps () in
  if
    not
      (p.Experiments.Overload.mitigated_goodput
       >= 2. *. p.Experiments.Overload.unmitigated_goodput
      && p.Experiments.Overload.mitigated_goodput > 0.)
  then exit 1

(* A mixed workload (UDP echo + TCP transfer + a misdirected datagram),
   then the full diagnostics report of both hosts. *)
let run_stats () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"echo" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            let data = Packet.View.to_string (Plexus.Pctx.view ctx) in
            let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
            Plexus.Udp_mgr.send udp_b ep
              ~dst:(src, ctx.Plexus.Pctx.src_port)
              data)
      in
      ()
  | Error _ -> ());
  (match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
  | Ok ep ->
      for i = 1 to 5 do
        Plexus.Udp_mgr.send udp_a ep ~dst:(Experiments.Common.ip_b, 7)
          (Printf.sprintf "ping-%d" i)
      done;
      Plexus.Udp_mgr.send udp_a ep ~dst:(Experiments.Common.ip_b, 4242)
        "nobody home"
  | Error _ -> ());
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp p.Experiments.Common.b)
       ~owner:"sink" ~port:80
       ~on_accept:(fun conn -> Plexus.Tcp_mgr.on_receive conn (fun _ -> ()))
       ()
   with
  | Ok () -> ()
  | Error _ -> ());
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp p.Experiments.Common.a)
       ~owner:"src" ~dst:(Experiments.Common.ip_b, 80) ()
   with
  | Ok conn ->
      Plexus.Tcp_mgr.on_established conn (fun () ->
          Plexus.Tcp_mgr.send conn (String.make 100_000 'd'))
  | Error _ -> ());
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 60)
    ~max_events:10_000_000;
  print_string (Plexus.Stack.report p.Experiments.Common.a);
  print_string (Plexus.Stack.report p.Experiments.Common.b)

(* The UDP slice of the mixed workload, shared by the diagnostics
   commands: an echo server on port 7, five pings and one misdirected
   datagram (so a drop shows up in the output too). *)
let mixed_udp_workload p =
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"echo" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            let data = Packet.View.to_string (Plexus.Pctx.view ctx) in
            let src = (Plexus.Pctx.ip_exn ctx).Proto.Ipv4.src in
            Plexus.Udp_mgr.send udp_b ep
              ~dst:(src, ctx.Plexus.Pctx.src_port)
              data)
      in
      ()
  | Error _ -> ());
  match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
  | Ok ep ->
      for i = 1 to 5 do
        Plexus.Udp_mgr.send udp_a ep ~dst:(Experiments.Common.ip_b, 7)
          (Printf.sprintf "ping-%d" i)
      done;
      Plexus.Udp_mgr.send udp_a ep ~dst:(Experiments.Common.ip_b, 4242)
        "nobody home"
  | Error _ -> ()

(* The same mixed workload, but with ring-buffer span sinks attached to
   both kernels, then the observability story: introspection (installed
   handlers with live counters), the metrics registries (table or JSON)
   and optionally the tail of the span ring. *)
let run_observe json trace_n =
  (* flow cache on, so the path_cache counters and cache_hit spans show
     up in the output alongside the graph-dispatch metrics *)
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let kernels =
    List.map
      (fun stack -> Netsim.Host.kernel (Plexus.Stack.host stack))
      [ p.Experiments.Common.a; p.Experiments.Common.b ]
  in
  let rings =
    List.map
      (fun kernel ->
        let ring = Observe.Trace.Ring.create ~capacity:4096 () in
        Observe.Trace.set_sink (Spin.Kernel.trace kernel)
          (Observe.Trace.Ring ring);
        (kernel, ring))
      kernels
  in
  mixed_udp_workload p;
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 60)
    ~max_events:10_000_000;
  if json then begin
    let regs =
      List.map
        (fun kernel ->
          Printf.sprintf "%S: %s"
            (Spin.Kernel.name kernel)
            (Observe.Registry.to_json (Spin.Kernel.registry kernel)))
        kernels
    in
    Printf.printf "{\n%s\n}\n" (String.concat ",\n" regs)
  end
  else
    List.iter
      (fun (kernel, ring) ->
        print_string (Spin.Kernel.introspect kernel);
        Fmt.pr "%a@." Observe.Registry.pp (Spin.Kernel.registry kernel);
        if trace_n > 0 then begin
          let spans = Observe.Trace.Ring.to_list ring in
          let total = List.length spans in
          let tail =
            if total <= trace_n then spans
            else List.filteri (fun i _ -> i >= total - trace_n) spans
          in
          Fmt.pr "last %d of %d span(s) on %s:@." (List.length tail) total
            (Spin.Kernel.name kernel);
          List.iter (fun s -> Fmt.pr "  %a@." Observe.Trace.pp_span s) tail
        end)
      rings

(* The flight-recorder view of the same workload: rank every installed
   extension by its resource ledger (cumulative modelled CPU, or run
   latency p99 with [--by-latency]) and dump sampled end-to-end packet
   timelines. *)
let run_top json by_latency timelines rate =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let kernels =
    List.map
      (fun stack -> Netsim.Host.kernel (Plexus.Stack.host stack))
      [ p.Experiments.Common.a; p.Experiments.Common.b ]
  in
  List.iter
    (fun kernel -> Observe.Flight.set_rate (Spin.Kernel.flight kernel) rate)
    kernels;
  mixed_udp_workload p;
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 60)
    ~max_events:10_000_000;
  let p99 (hi : Spin.Dispatcher.handler_info) =
    match hi.Spin.Dispatcher.hi_lat with
    | Some s -> s.Observe.Histogram.p99
    | None -> 0
  in
  let rows =
    List.concat_map
      (fun kernel ->
        List.concat_map
          (fun (ei : Spin.Dispatcher.event_info) ->
            List.map
              (fun hi -> (Spin.Kernel.name kernel, ei.Spin.Dispatcher.ei_name, hi))
              ei.Spin.Dispatcher.ei_handlers)
          (Spin.Dispatcher.dump (Spin.Kernel.dispatcher kernel)))
      kernels
  in
  let key (_, _, hi) =
    if by_latency then p99 hi else hi.Spin.Dispatcher.hi_cpu_ns
  in
  let rows = List.sort (fun a b -> compare (key b) (key a)) rows in
  if json then begin
    let esc = Observe.Registry.json_escape in
    let row_json (kernel, event, (hi : Spin.Dispatcher.handler_info)) =
      Printf.sprintf
        "    {\"kernel\": \"%s\", \"event\": \"%s\", \"label\": \"%s\", \
         \"gen\": %d, \"runs\": %d, \"cpu_ns\": %d, \"mbuf_allocs\": %d, \
         \"terminations\": %d, \"p99_ns\": %d}"
        (esc kernel) (esc event)
        (esc hi.Spin.Dispatcher.hi_label)
        hi.Spin.Dispatcher.hi_gen hi.Spin.Dispatcher.hi_runs
        hi.Spin.Dispatcher.hi_cpu_ns hi.Spin.Dispatcher.hi_allocs
        hi.Spin.Dispatcher.hi_terminations (p99 hi)
    in
    let flights =
      List.map
        (fun kernel ->
          Printf.sprintf "    \"%s\": %s"
            (esc (Spin.Kernel.name kernel))
            (Observe.Flight.to_json (Spin.Kernel.flight kernel)))
        kernels
    in
    Printf.printf "{\n  \"sort\": \"%s\",\n  \"top\": [\n%s\n  ],\n"
      (if by_latency then "p99_ns" else "cpu_ns")
      (String.concat ",\n" (List.map row_json rows));
    Printf.printf "  \"flights\": {\n%s\n  }\n}\n"
      (String.concat ",\n" flights)
  end
  else begin
    Printf.printf "extensions by %s:\n"
      (if by_latency then "run-latency p99" else "cumulative modelled CPU");
    Printf.printf "  %-7s %-22s %-12s %4s %6s %12s %7s %6s %10s\n" "kernel"
      "event" "label" "gen" "runs" "cpu_ns" "allocs" "terms" "p99_ns";
    List.iter
      (fun (kernel, event, (hi : Spin.Dispatcher.handler_info)) ->
        Printf.printf "  %-7s %-22s %-12s %4d %6d %12d %7d %6d %10d\n" kernel
          event hi.Spin.Dispatcher.hi_label hi.Spin.Dispatcher.hi_gen
          hi.Spin.Dispatcher.hi_runs hi.Spin.Dispatcher.hi_cpu_ns
          hi.Spin.Dispatcher.hi_allocs hi.Spin.Dispatcher.hi_terminations
          (p99 hi))
      rows;
    if timelines > 0 then
      List.iter
        (fun kernel ->
          let fl = Spin.Kernel.flight kernel in
          let tls = Observe.Flight.timelines (Observe.Flight.records fl) in
          let shown = List.filteri (fun i _ -> i < timelines) tls in
          Fmt.pr "@.sampled timelines on %s (%d of %d, %d records, %d shed):@."
            (Spin.Kernel.name kernel) (List.length shown) (List.length tls)
            (Observe.Flight.length fl)
            (Observe.Flight.dropped fl);
          List.iter (fun tl -> Fmt.pr "%a@." Observe.Flight.pp_timeline tl) shown)
        kernels
  end

(* Extension lifecycle soak: zero-drop hot-swap under burst traffic,
   runtime quarantine of a rogue extension, static verifier rejection. *)
let run_lifecycle runs verbose =
  let r = Experiments.Lifecycle.print ~runs ~verbose () in
  if not (Experiments.Lifecycle.report_ok r) then exit 1

(* Multicore datapath: shard a synthetic RSS workload across OCaml 5
   domains, check counter-for-counter equivalence with the single-domain
   oracle, and report the simulated aggregate throughput. *)
let run_parallel domains flows pkts seed =
  let plan = Par.Rss.make ~seed ~flows ~pkts_per_flow:pkts () in
  let oracle = Par.Node.run ~domains:1 plan in
  let report (s : Par.Node.stats) =
    Printf.printf
      "%3d domain%s  %10.0f dg/s  %5.2fx speedup  %6d delivered  %5d \
       forwarded  %8.1f ms busy\n"
      s.Par.Node.domains
      (if s.Par.Node.domains = 1 then " " else "s")
      s.Par.Node.datagrams_per_s
      (s.Par.Node.datagrams_per_s /. oracle.Par.Node.datagrams_per_s)
      s.Par.Node.delivered s.Par.Node.forwarded
      (s.Par.Node.busy_max_us /. 1000.)
  in
  Printf.printf
    "RSS sharding, %d flows x %d datagrams (seed %d), simulated time:\n" flows
    pkts seed;
  report oracle;
  if domains > 1 then begin
    let s = Par.Node.run ~domains plan in
    report s;
    List.iter2
      (fun (name, expect) (_, got) ->
        if got <> expect then begin
          Printf.printf "FAIL: %d-domain %s = %d, oracle = %d\n" domains name
            got expect;
          exit 1
        end)
      (Par.Node.equiv_counters oracle)
      (Par.Node.equiv_counters s);
    Printf.printf "equivalence: exact (all %d counters match the oracle)\n"
      (List.length (Par.Node.equiv_counters oracle))
  end

(* Dispatch-plane introspection: run the mixed workload (plus a few
   extra UDP bindings so the port dimension has several keyed handlers
   to merge), then print each event's demux configuration and — with
   [--tree] — the compiled merged decision tree itself. *)
let dim_name d =
  match d with
  | 0 -> "ether_type"
  | 1 -> "ip_proto"
  | 2 -> "src_port"
  | 3 -> "dst_port"
  | _ -> Printf.sprintf "dim%d" d

let rec tree_to_json v =
  let esc = Observe.Registry.json_escape in
  match v with
  | Spin.Dispatcher.Tree_leaf { tv_exact; tv_resid } ->
      let labels hs =
        String.concat ", "
          (List.map (fun (_, l) -> Printf.sprintf "\"%s\"" (esc l)) hs)
      in
      Printf.sprintf "{\"leaf\": {\"exact\": [%s], \"residual\": [%s]}}"
        (labels tv_exact) (labels tv_resid)
  | Spin.Dispatcher.Tree_switch { tv_dim; tv_cases; tv_default } ->
      Printf.sprintf "{\"switch\": \"%s\", \"cases\": {%s}, \"default\": %s}"
        (dim_name tv_dim)
        (String.concat ", "
           (List.map
              (fun (v, kid) ->
                Printf.sprintf "\"%d\": %s" v (tree_to_json kid))
              tv_cases))
        (tree_to_json tv_default)

let rec print_tree indent v =
  let pad = String.make indent ' ' in
  match v with
  | Spin.Dispatcher.Tree_leaf { tv_exact; tv_resid } ->
      let labels hs = String.concat ", " (List.map snd hs) in
      Printf.printf "%sleaf: exact [%s]%s\n" pad (labels tv_exact)
        (if tv_resid = [] then ""
         else Printf.sprintf " residual [%s]" (labels tv_resid))
  | Spin.Dispatcher.Tree_switch { tv_dim; tv_cases; tv_default } ->
      Printf.printf "%sswitch %s:\n" pad (dim_name tv_dim);
      List.iter
        (fun (v, kid) ->
          Printf.printf "%s  = %d ->\n" pad v;
          print_tree (indent + 4) kid)
        tv_cases;
      Printf.printf "%s  default ->\n" pad;
      print_tree (indent + 4) tv_default

let run_dispatch tree json =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  List.iter
    (fun port ->
      match Plexus.Udp_mgr.bind udp_b ~owner:"sink" ~port with
      | Ok ep ->
          let (_ : unit -> unit) =
            Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> ())
          in
          ()
      | Error _ -> ())
    [ 9; 37 ];
  mixed_udp_workload p;
  Sim.Engine.run p.Experiments.Common.engine ~until:(Sim.Stime.s 60)
    ~max_events:10_000_000;
  let kernels =
    List.map
      (fun stack -> Netsim.Host.kernel (Plexus.Stack.host stack))
      [ p.Experiments.Common.a; p.Experiments.Common.b ]
  in
  let events kernel =
    let d = Spin.Kernel.dispatcher kernel in
    let views = Spin.Dispatcher.tree_views d in
    List.map
      (fun (ei : Spin.Dispatcher.event_info) ->
        (ei, List.assoc_opt ei.Spin.Dispatcher.ei_name views))
      (Spin.Dispatcher.dump d)
  in
  if json then begin
    let esc = Observe.Registry.json_escape in
    let event_json ((ei : Spin.Dispatcher.event_info), view) =
      let tree_json =
        match (ei.Spin.Dispatcher.ei_tree, view) with
        | Some ti, Some v ->
            Printf.sprintf
              ", \"tree\": {\"nodes\": %d, \"depth\": %d, \"rebuilds\": %d, \
               \"raises\": %d, \"residual_evals\": %d, \"root\": %s}"
              ti.Spin.Dispatcher.ti_nodes ti.Spin.Dispatcher.ti_depth
              ti.Spin.Dispatcher.ti_rebuilds ti.Spin.Dispatcher.ti_raises
              ti.Spin.Dispatcher.ti_residual_evals (tree_to_json v)
        | _ -> ""
      in
      Printf.sprintf
        "      {\"event\": \"%s\", \"indexed\": %b, \"handlers\": %d%s}"
        (esc ei.Spin.Dispatcher.ei_name)
        ei.Spin.Dispatcher.ei_indexed
        (List.length ei.Spin.Dispatcher.ei_handlers)
        tree_json
    in
    let per_kernel kernel =
      Printf.sprintf "    \"%s\": [\n%s\n    ]"
        (esc (Spin.Kernel.name kernel))
        (String.concat ",\n" (List.map event_json (events kernel)))
    in
    Printf.printf "{\n  \"kernels\": {\n%s\n  }\n}\n"
      (String.concat ",\n" (List.map per_kernel kernels))
  end
  else
    List.iter
      (fun kernel ->
        Printf.printf "dispatch plane on %s:\n" (Spin.Kernel.name kernel);
        List.iter
          (fun ((ei : Spin.Dispatcher.event_info), view) ->
            Printf.printf "  %-22s %7s  %d handler(s)%s\n"
              ei.Spin.Dispatcher.ei_name
              (if ei.Spin.Dispatcher.ei_indexed then "indexed" else "linear")
              (List.length ei.Spin.Dispatcher.ei_handlers)
              (match ei.Spin.Dispatcher.ei_tree with
              | Some ti ->
                  Printf.sprintf
                    "  tree: %d nodes, depth %d, %d rebuild(s), %d raises, \
                     %d residual eval(s)"
                    ti.Spin.Dispatcher.ti_nodes ti.Spin.Dispatcher.ti_depth
                    ti.Spin.Dispatcher.ti_rebuilds ti.Spin.Dispatcher.ti_raises
                    ti.Spin.Dispatcher.ti_residual_evals
              | None -> "");
            if tree then
              match view with
              | Some v -> print_tree 4 v
              | None -> ())
          (events kernel))
      kernels

let run_graph () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  print_string (Plexus.Graph.to_dot (Plexus.Stack.graph p.Experiments.Common.a))

let run_all iters =
  ignore (Experiments.Fig5.print ~iters ());
  ignore (Experiments.Tput.print ());
  ignore (Experiments.Fig7.print ~iters:(min iters 50) ());
  ignore (Experiments.Fig6.print ());
  ignore (Experiments.Micro.print ~iters:(min iters 100) ());
  ignore (Experiments.Sweep.print ~iters:(min iters 100) ());
  ignore (Experiments.Livelock.print ());
  Experiments.Motivate.print ();
  ignore (Experiments.Http_bench.print ~iters:(min iters 30) ());
  Experiments.Ablate.print ()

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5" ~doc:"Figure 5: UDP round-trip latency across devices")
    Term.(const run_fig5 $ iters)

let tput_cmd =
  let bytes =
    Arg.(
      value & opt int 2_000_000 & info [ "bytes" ] ~doc:"Bytes per TCP transfer.")
  in
  Cmd.v
    (Cmd.info "tput" ~doc:"Section 4.2: TCP throughput table")
    Term.(const run_tput $ bytes)

let fig6_cmd =
  let max_streams =
    Arg.(value & opt int 30 & info [ "max-streams" ] ~doc:"Largest stream count.")
  in
  let step = Arg.(value & opt int 1 & info [ "step" ] ~doc:"Stream count step.") in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figure 6: video server CPU utilization")
    Term.(const run_fig6 $ max_streams $ step)

let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7" ~doc:"Figure 7: TCP redirection latency")
    Term.(const run_fig7 $ iters)

let micro_cmd =
  Cmd.v
    (Cmd.info "micro" ~doc:"Section 3.3: active-message microbenchmarks")
    Term.(const run_micro $ iters)

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"UDP latency vs. message size across devices")
    Term.(const run_sweep $ iters)

let livelock_cmd =
  Cmd.v
    (Cmd.info "livelock"
       ~doc:"Overload: interrupt-level protocol work vs. application progress")
    Term.(const run_livelock $ const ())

let motivate_cmd =
  Cmd.v
    (Cmd.info "motivate"
       ~doc:"Section 1.1's motivating claims: WAN windows, transaction tuning")
    Term.(const run_motivate $ const ())

let http_cmd =
  Cmd.v
    (Cmd.info "http" ~doc:"HTTP GET latency: Plexus extension vs. DU process")
    Term.(const run_http $ iters)

let chaos_cmd =
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print per-seed outcomes.")
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Number of seeds to sweep.")
  in
  let base_seed =
    Arg.(value & opt int 1000 & info [ "base-seed" ] ~doc:"First seed.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos soak: UDP/fragmented/TCP flows through randomized fault \
          plans; exits non-zero on any invariant failure")
    Term.(const run_chaos $ verbose $ seeds $ base_seed)

let overload_cmd =
  let offered_pps =
    Arg.(
      value
      & opt int Experiments.Overload.default_offered_pps
      & info [ "offered-pps" ] ~doc:"Offered load in packets per second.")
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Goodput under overload with admission control off vs. on; exits \
          non-zero unless mitigation achieves 2x")
    Term.(const run_overload $ offered_pps)

let farm_cmd =
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~doc:"Client chains (each behind its own forwarder).")
  in
  let requests =
    Arg.(
      value & opt int 400
      & info [ "requests" ] ~doc:"Measured request completions (post-warmup).")
  in
  let mean_gap =
    Arg.(
      value & opt float 400.
      & info [ "mean-gap-us" ]
          ~doc:"Mean Poisson think time per client, microseconds.")
  in
  let shape =
    Arg.(
      value & opt float 1.2
      & info [ "shape" ] ~doc:"Pareto shape of the response-size draw.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload seed.")
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Server farm: N clients behind per-client forwarders hammering one \
          HTTP server with a heavy-tailed (Pareto sizes, Poisson arrivals) \
          workload; reports goodput and p50/p99 latency, exits non-zero on \
          any request failure")
    Term.(const run_farm $ clients $ requests $ mean_gap $ shape $ seed)

let ablate_cmd =
  Cmd.v
    (Cmd.info "ablate" ~doc:"Ablations: guards, spoof policy, checksum variant")
    Term.(const run_ablate $ const ())

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a mixed workload and print both hosts' diagnostics")
    Term.(const run_stats $ const ())

let observe_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the metrics registries as JSON.")
  in
  let trace_n =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"N"
          ~doc:"Also print the last $(docv) spans from each kernel's ring.")
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Run a mixed workload with tracing on, then print kernel \
          introspection and the metrics registries")
    Term.(const run_observe $ json $ trace_n)

let top_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the ranking and every flight record as JSON.")
  in
  let by_latency =
    Arg.(
      value & flag
      & info [ "by-latency" ]
          ~doc:"Rank by run-latency p99 instead of cumulative CPU.")
  in
  let timelines =
    Arg.(
      value & opt int 3
      & info [ "timelines" ] ~docv:"N"
          ~doc:
            "Print the first $(docv) sampled packet timelines per kernel \
             (0 disables).")
  in
  let rate =
    Arg.(
      value & opt int 1
      & info [ "rate" ] ~docv:"N"
          ~doc:"Sample 1 in $(docv) ingress frames (default: every frame).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the mixed workload with the packet flight recorder on, rank \
          installed extensions by their resource ledger (CPU, allocations, \
          terminations, latency) and dump sampled end-to-end timelines")
    Term.(const run_top $ json $ by_latency $ timelines $ rate)

let lifecycle_cmd =
  let runs =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~doc:"Soak runs (burst size and swap cadence vary).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print per-run outcomes.")
  in
  Cmd.v
    (Cmd.info "lifecycle"
       ~doc:
         "Extension lifecycle soak: hot-swap a monitor extension under UDP \
          burst traffic (zero datagrams dropped across the flip, drain \
          latency measured), quarantine a rogue extension that blows its \
          runtime budget, and reject an over-budget certificate at both \
          admission points; exits non-zero on any invariant failure")
    Term.(const run_lifecycle $ runs $ verbose)

let parallel_cmd =
  let domains =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~doc:"Worker domains to shard the flows across.")
  in
  let flows =
    Arg.(value & opt int 256 & info [ "flows" ] ~doc:"Distinct UDP flows.")
  in
  let pkts =
    Arg.(value & opt int 40 & info [ "pkts" ] ~doc:"Datagrams per flow.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Multicore datapath: RSS-shard a seeded UDP workload across OCaml 5 \
          domains with SPSC handoff rings, verify exact counter equivalence \
          against the single-domain oracle, and report simulated aggregate \
          throughput; exits non-zero on any divergence")
    Term.(const run_parallel $ domains $ flows $ pkts $ seed)

let dispatch_cmd =
  let tree =
    Arg.(
      value & flag
      & info [ "tree" ] ~doc:"Also print each event's compiled decision tree.")
  in
  let json =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the dispatch plane as JSON.")
  in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:
         "Run a mixed workload, then dump each kernel's dispatch plane: \
          per-event demux mode, handler counts, and (with $(b,--tree)) the \
          merged decision tree the installed filter set compiled to")
    Term.(const run_dispatch $ tree $ json)

let graph_cmd =
  Cmd.v
    (Cmd.info "graph" ~doc:"Print the protocol graph in Graphviz DOT form")
    Term.(const run_graph $ const ())

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment") Term.(const run_all $ iters)

let () =
  let info =
    Cmd.info "plexus-cli" ~version:"1.0"
      ~doc:"Reproduction experiments for the Plexus paper (USENIX 1996)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig5_cmd;
            tput_cmd;
            fig6_cmd;
            fig7_cmd;
            micro_cmd;
            sweep_cmd;
            livelock_cmd;
            motivate_cmd;
            http_cmd;
            chaos_cmd;
            overload_cmd;
            farm_cmd;
            ablate_cmd;
            stats_cmd;
            observe_cmd;
            top_cmd;
            lifecycle_cmd;
            parallel_cmd;
            dispatch_cmd;
            graph_cmd;
            all_cmd;
          ]))
