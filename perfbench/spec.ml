(* Every metric the benchmark prints, with its unit.  BENCHMARK.json
   lists the same names; a workload must supply each end-to-end metric,
   and per-layer metrics a workload has no call for read 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("frames_per_ref_s", "frames/ref_s");
    ("minor_words_per_frame", "words");
    ("peak_heap_mb", "MB");
    ("sim_latency_p99_us", "sim_us");
    ("sim_goodput_mbps", "sim_Mb/s");
  ]

let per_layer =
  [
    ("sim.events_per_frame", "count");
    ("sim.cpu_items_per_frame", "count");
    ("sim.host_ns_per_event", "ns");
    ("sim.words_per_event", "words");
    ("sim.host_ns_per_cpu_item", "ns");
    ("sim.cpu_util", "ratio");
    ("sim.host_ns_per_frame", "ns");
    ("spin.raises_per_frame", "count");
    ("spin.residual_evals_per_frame", "count");
    ("spin.host_ns_per_raise", "ns");
    ("spin.host_ns_per_frame", "ns");
    ("spin.cache_hit_ratio", "ratio");
    ("spin.cache_invalidations_per_kframe", "count");
    ("spin.cache_evictions_per_kframe", "count");
    ("plexus.tx_host_ns_per_frame", "ns");
    ("plexus.rx_host_ns_per_frame", "ns");
    ("plexus.tcp_no_match_per_kframe", "count");
    ("proto.parse_host_ns_per_frame", "ns");
    ("packet.copies_per_frame", "count");
    ("packet.bytes_copied_per_frame", "bytes");
    ("packet.buf_allocs_per_frame", "count");
    ("packet.recycled_per_frame", "count");
    ("packet.cksum_host_ns_per_kb", "ns");
    ("packet.mbuf_host_ns_per_cycle", "ns");
    ("packet.host_ns_per_frame", "ns");
    ("netsim.drops_per_kframe", "count");
    ("par.forwarded_frac", "ratio");
    ("par.busy_imbalance", "ratio");
    ("par.ring_self_drains", "count");
    ("par.host_ns_per_handoff", "ns");
    ("par.host_ns_per_frame", "ns");
    ("par.sim_speedup", "x");
    ("par.frames_per_host_s", "frames/s");
    ("ext.host_ns_per_frame", "ns");
    ("observe.spans_per_frame", "count");
    ("observe.trace_overhead_pct", "%");
    ("host_ns_per_frame", "ns");
    ("unattributed_frac", "ratio");
  ]

(* The metrics of one run, in spec order.  A workload value missing
   from an end-to-end run, or any name outside the spec, is a bug in
   the benchmark and stops it. *)
let select ~trace values =
  let spec = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then
        failwith (Printf.sprintf "perfbench: metric %s is not in the spec" name))
    values;
  List.map
    (fun (name, unit) ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None when trace -> 0.
        | None -> failwith (Printf.sprintf "perfbench: end-to-end metric %s missing" name)
      in
      Pstat.m name unit value)
    spec
