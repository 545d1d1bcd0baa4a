(* Multicore datapath: Rng stream determinism and non-overlap, SPSC ring
   behaviour (single- and cross-domain), registry merging, and the
   oracle-equivalence soak between the 1-domain engine and the N-domain
   sharded runs. *)

module Sdomain = Stdlib.Domain
(* [Spin.Domain] is the protection domain; this file spawns execution
   domains, so the alias keeps every use explicit. *)

(* --- Rng.stream properties --------------------------------------------- *)

(* Streams are pure functions of (seed, index): rebuilding the stream
   reproduces the draw sequence exactly, no matter what other generators
   drew in between. *)
let stream_deterministic =
  QCheck.Test.make ~count:200 ~name:"Rng.stream is a function of (seed, index)"
    QCheck.(pair small_int (int_bound 15))
    (fun (seed, index) ->
      let a = Sim.Rng.stream ~seed ~index in
      (* perturb unrelated global draw state between constructions *)
      let noise = Sim.Rng.create (seed + 17) in
      let (_ : int) = Sim.Rng.int noise 1000 in
      let b = Sim.Rng.stream ~seed ~index in
      let wa = List.init 64 (fun _ -> Sim.Rng.int a 1_000_000) in
      let wb = List.init 64 (fun _ -> Sim.Rng.int b 1_000_000) in
      wa = wb)

(* Pairwise non-overlap over a sampled window: distinct domain indices
   of the same seed never replay each other's output windows.  (A
   collision over 1000 63-bit draws per stream would be astronomically
   unlikely unless the streams were correlated.) *)
let stream_nonoverlap () =
  let seed = 0xC0FFEE in
  let window = 1000 and streams = 8 in
  let seen = Hashtbl.create (window * streams) in
  for index = 0 to streams - 1 do
    let rng = Sim.Rng.stream ~seed ~index in
    for _ = 1 to window do
      let v = Sim.Rng.int rng max_int in
      (match Hashtbl.find_opt seen v with
      | Some other ->
          Alcotest.failf "streams %d and %d both drew %d" other index v
      | None -> ());
      Hashtbl.replace seen v index
    done
  done;
  Alcotest.(check int) "all draws distinct" (window * streams)
    (Hashtbl.length seen)

let stream_distinct_from_split () =
  (* the documented distinction: [split] depends on the parent's
     position, [stream] does not *)
  let parent1 = Sim.Rng.create 42 in
  let (_ : int) = Sim.Rng.int parent1 10 in
  let child1 = Sim.Rng.split parent1 in
  let parent2 = Sim.Rng.create 42 in
  let child2 = Sim.Rng.split parent2 in
  Alcotest.(check bool) "split is position-dependent" false
    (Sim.Rng.int child1 1_000_000 = Sim.Rng.int child2 1_000_000
    && Sim.Rng.int child1 1_000_000 = Sim.Rng.int child2 1_000_000);
  let s1 = Sim.Rng.stream ~seed:42 ~index:0 in
  let s2 = Sim.Rng.stream ~seed:42 ~index:0 in
  Alcotest.(check int) "stream is position-independent"
    (Sim.Rng.int s1 1_000_000) (Sim.Rng.int s2 1_000_000)

(* --- SPSC ring --------------------------------------------------------- *)

let spsc_fifo () =
  let r = Par.Spsc.create ~capacity:8 in
  Alcotest.(check int) "rounded capacity" 8 (Par.Spsc.capacity r);
  for i = 1 to 8 do
    Alcotest.(check bool) "push accepted" true (Par.Spsc.try_push r i)
  done;
  Alcotest.(check bool) "full ring rejects" false (Par.Spsc.try_push r 9);
  Alcotest.(check int) "length" 8 (Par.Spsc.length r);
  let out = ref [] in
  let n = Par.Spsc.drain r (fun x -> out := x :: !out) in
  Alcotest.(check int) "drained all" 8 n;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev !out);
  Alcotest.(check bool) "empty after drain" true (Par.Spsc.is_empty r);
  (* indices wrap past capacity *)
  for i = 9 to 20 do
    Alcotest.(check bool) "push after wrap" true (Par.Spsc.try_push r i);
    Alcotest.(check (option int)) "pop after wrap" (Some i) (Par.Spsc.pop r)
  done

(* Cross-domain stress: one producer domain pushes a counted sequence
   through a small ring; the consumer asserts FIFO completeness. *)
let spsc_cross_domain () =
  let r = Par.Spsc.create ~capacity:64 in
  let total = 50_000 in
  let producer =
    Sdomain.spawn (fun () ->
        for i = 1 to total do
          while not (Par.Spsc.try_push r i) do
            Sdomain.cpu_relax ()
          done
        done)
  in
  let next = ref 1 in
  while !next <= total do
    match Par.Spsc.pop r with
    | Some v ->
        if v <> !next then Alcotest.failf "got %d, expected %d" v !next;
        incr next
    | None -> Sdomain.cpu_relax ()
  done;
  Sdomain.join producer;
  Alcotest.(check bool) "ring empty at end" true (Par.Spsc.is_empty r)

(* --- registry merge ---------------------------------------------------- *)

let registry_merge () =
  let a = Observe.Registry.create ~name:"a" () in
  let b = Observe.Registry.create ~name:"b" () in
  Observe.Registry.counter a "x" := 3;
  Observe.Registry.counter b "x" := 4;
  Observe.Registry.gauge a "g" (fun () -> 10);
  Observe.Registry.gauge b "g" (fun () -> 7);
  let ha = Observe.Registry.histogram a "h" in
  Observe.Histogram.record ha 5;
  let hb = Observe.Registry.histogram b "h" in
  Observe.Histogram.record hb 9;
  Observe.Histogram.record hb 11;
  let m = Observe.Registry.create ~name:"merged" () in
  Observe.Registry.merge_into ~into:m a;
  Observe.Registry.merge_into ~into:m b;
  (match Observe.Registry.find m "x" with
  | Some (Observe.Registry.Counter r) ->
      Alcotest.(check int) "counters sum" 7 !r
  | _ -> Alcotest.fail "x not a counter");
  (match Observe.Registry.find m "g" with
  | Some (Observe.Registry.Gauge f) ->
      Alcotest.(check int) "gauges stack" 17 (f ())
  | _ -> Alcotest.fail "g not a gauge");
  (match Observe.Registry.find m "h" with
  | Some (Observe.Registry.Hist h) ->
      let s = Observe.Histogram.snapshot h in
      Alcotest.(check int) "hist n" 3 s.Observe.Histogram.n;
      Alcotest.(check int) "hist sum" 25 s.Observe.Histogram.sum
  | _ -> Alcotest.fail "h not a histogram");
  (* prefixed merge keeps per-domain views distinct *)
  let p = Observe.Registry.create ~name:"prefixed" () in
  Observe.Registry.merge_into ~prefix:"domain0." ~into:p a;
  Observe.Registry.merge_into ~prefix:"domain1." ~into:p b;
  Alcotest.(check bool) "domain0.x present" true
    (Observe.Registry.mem p "domain0.x");
  Alcotest.(check bool) "domain1.x present" true
    (Observe.Registry.mem p "domain1.x")

(* --- oracle equivalence ------------------------------------------------ *)

let check_equiv ~oracle ~par =
  List.iter2
    (fun (name, expect) (name', got) ->
      assert (name = name');
      Alcotest.(check int)
        (Printf.sprintf "%s (%dd vs oracle)" name par.Par.Node.domains)
        expect got)
    (Par.Node.equiv_counters oracle)
    (Par.Node.equiv_counters par)

(* The tentpole's soak: the same seeded plan through the 1-domain oracle
   and the sharded runs must agree counter-for-counter on every
   delivery, drop and cache total. *)
let equivalence_soak () =
  List.iter
    (fun seed ->
      let plan = Par.Rss.make ~seed ~flows:48 ~pkts_per_flow:12 () in
      let oracle = Par.Node.run ~domains:1 plan in
      Alcotest.(check int) "oracle delivers every datagram"
        plan.Par.Rss.udp_frames oracle.Par.Node.delivered;
      Alcotest.(check int) "oracle answers every arp"
        plan.Par.Rss.arp_frames oracle.Par.Node.arp_replies;
      Alcotest.(check int) "no evictions (flows below capacity)" 0
        oracle.Par.Node.cache_evictions;
      List.iter
        (fun domains ->
          let par = Par.Node.run ~domains plan in
          check_equiv ~oracle ~par;
          let expect = plan.Par.Rss.udp_frames + plan.Par.Rss.arp_frames in
          Alcotest.(check int) "every frame processed exactly once" expect
            (Array.fold_left
               (fun acc (d : Par.Node.domain_stats) -> acc + d.processed)
               0 par.Par.Node.per_domain))
        [ 2; 4 ])
    [ 7; 42; 1996 ]

(* Mis-sharded traffic must actually cross the rings: legacy flows and
   ARP broadcasts make forwarded > 0 overwhelmingly likely at >= 2
   domains, and the equivalence above proves the handoff is lossless. *)
let forwarding_exercised () =
  let plan = Par.Rss.make ~seed:3 ~flows:64 ~pkts_per_flow:6 () in
  let s = Par.Node.run ~domains:2 plan in
  Alcotest.(check bool) "some frames forwarded" true (s.Par.Node.forwarded > 0);
  let oracle = Par.Node.run ~domains:1 plan in
  Alcotest.(check int) "oracle forwards nothing" 0 oracle.Par.Node.forwarded

(* The uncached datapath must agree with the oracle too (the cache is a
   per-node switch, not a correctness dependency). *)
let equivalence_uncached () =
  let plan = Par.Rss.make ~seed:11 ~flows:24 ~pkts_per_flow:5 () in
  let oracle = Par.Node.run ~flowcache:false ~domains:1 plan in
  let par = Par.Node.run ~flowcache:false ~domains:3 plan in
  check_equiv ~oracle ~par;
  Alcotest.(check int) "no cache traffic" 0
    (oracle.Par.Node.cache_hits + oracle.Par.Node.cache_misses)

(* Speedup in simulated time: with per-domain engines, the makespan
   (max busy) must beat 1 domain by a clear margin on a balanced plan —
   1.3x at 2 domains, and 1.6x at 4 on the larger plan that
   [plexus-cli parallel] runs by default (seed 42, 256 flows x 40), where
   the sharded runs must also match the oracle exactly. *)
let simulated_speedup () =
  let check_speedup ~oracle ~par need =
    let ratio =
      par.Par.Node.datagrams_per_s /. oracle.Par.Node.datagrams_per_s
    in
    if ratio < need then
      Alcotest.failf "%d-domain simulated speedup %.2fx < %.1fx"
        par.Par.Node.domains ratio need
  in
  let plan = Par.Rss.make ~seed:5 ~flows:96 ~pkts_per_flow:8 () in
  check_speedup ~oracle:(Par.Node.run ~domains:1 plan)
    ~par:(Par.Node.run ~domains:2 plan) 1.3;
  let plan = Par.Rss.make ~seed:42 ~flows:256 ~pkts_per_flow:40 () in
  let oracle = Par.Node.run ~domains:1 plan in
  List.iter
    (fun (domains, need) ->
      let par = Par.Node.run ~domains plan in
      check_equiv ~oracle ~par;
      check_speedup ~oracle ~par need)
    [ (2, 1.3); (4, 1.6) ]

let merged_registry_labels () =
  let plan = Par.Rss.make ~seed:9 ~flows:16 ~pkts_per_flow:4 () in
  let s = Par.Node.run ~domains:2 plan in
  Alcotest.(check bool) "domain-indexed metrics present" true
    (List.exists
       (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "domain1")
       (Observe.Registry.snapshot s.Par.Node.registry));
  match Observe.Registry.find s.Par.Node.registry "par.forwarded" with
  | Some (Observe.Registry.Counter r) ->
      Alcotest.(check int) "par.forwarded merged" s.Par.Node.forwarded !r
  | _ -> Alcotest.fail "par.forwarded missing from merged registry"

(* --- flight recorder across domains ------------------------------------ *)

(* With sampling on, the sampled set is exactly [Flight.mark_for] over
   the plan's arrival ordinals (every domain derives marks from the plan
   seed, so steering and owning domains agree without shipping ids
   through the rings); forwarded frames carry a sender-side Hop record
   followed by owner-side stages; and equivalence with the oracle still
   holds — sampling must not perturb the datapath. *)
let flight_cross_domain () =
  let rate = 4 in
  let plan = Par.Rss.make ~seed:3 ~flows:64 ~pkts_per_flow:6 () in
  let oracle = Par.Node.run ~domains:1 plan in
  let par = Par.Node.run ~flight_rate:rate ~domains:2 plan in
  check_equiv ~oracle ~par;
  Alcotest.(check bool) "frames forwarded under sampling" true
    (par.Par.Node.forwarded > 0);
  let fl = par.Par.Node.flight in
  let total = plan.Par.Rss.udp_frames + plan.Par.Rss.arp_frames in
  Alcotest.(check int) "every arrival counted once" total
    (Observe.Flight.seen fl);
  let expected =
    List.filter
      (fun n ->
        Observe.Flight.mark_for ~seed:plan.Par.Rss.seed ~rate n > 0)
      (List.init total (fun i -> i + 1))
  in
  Alcotest.(check int) "sampled = mark_for picks" (List.length expected)
    (Observe.Flight.sampled fl);
  let tls = Observe.Flight.timelines (Observe.Flight.records fl) in
  Alcotest.(check (list int)) "timeline per pick, none lost in handoff"
    expected (List.map fst tls);
  (* hopped packets: sender-side attribution, then owner-side stages *)
  let hopped =
    List.filter
      (fun (_, rs) ->
        List.exists
          (fun (r : Observe.Flight.record) ->
            match r.Observe.Flight.stage with
            | Observe.Flight.Hop _ -> true
            | _ -> false)
          rs)
      tls
  in
  Alcotest.(check bool) "some sampled frames hopped" true (hopped <> []);
  List.iter
    (fun (pkt, rs) ->
      let hop_to = ref (-1) in
      List.iter
        (fun (r : Observe.Flight.record) ->
          match r.Observe.Flight.stage with
          | Observe.Flight.Hop { from_domain; to_domain } ->
              Alcotest.(check int)
                (Printf.sprintf "pkt %d hop emitted by sender" pkt)
                from_domain r.Observe.Flight.domain;
              hop_to := to_domain
          | (Observe.Flight.Ingress _ | Observe.Flight.Deliver _)
            when !hop_to >= 0 ->
              (* every stage after the handoff runs on the owning domain *)
              Alcotest.(check int)
                (Printf.sprintf "pkt %d stage on owning domain" pkt)
                !hop_to r.Observe.Flight.domain
          | _ -> ())
        rs)
    hopped

(* par.ring.* counters account for the handoff machinery: every
   forwarded frame is an enqueue; attributed drains (backpressure
   self-drains and phase-B quiescence drains) never exceed the enqueues
   (routine periodic drains are deliberately unattributed). *)
let ring_counters_account () =
  let plan = Par.Rss.make ~seed:3 ~flows:64 ~pkts_per_flow:6 () in
  let domains = 2 in
  let s = Par.Node.run ~domains plan in
  (* the merged registry keeps per-domain views distinct *)
  let counter name =
    List.fold_left
      (fun acc d ->
        match
          Observe.Registry.find s.Par.Node.registry
            (Printf.sprintf "domain%d.%s" d name)
        with
        | Some (Observe.Registry.Counter r) -> acc + !r
        | _ -> Alcotest.fail (Printf.sprintf "missing domain%d.%s" d name))
      0
      (List.init domains Fun.id)
  in
  Alcotest.(check int) "enqueues = forwarded" s.Par.Node.forwarded
    (counter "par.ring.enqueues");
  Alcotest.(check bool) "attributed drains bounded by enqueues" true
    (counter "par.ring.self_drains" + counter "par.ring.phase_b_drains"
    <= s.Par.Node.forwarded)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let suite =
  [
    ( "parallel.rng",
      [
        prop stream_deterministic;
        tc "streams pairwise non-overlapping" stream_nonoverlap;
        tc "stream vs split semantics" stream_distinct_from_split;
      ] );
    ( "parallel.spsc",
      [ tc "FIFO, bounds, wrap" spsc_fifo; tc "cross-domain stress" spsc_cross_domain ] );
    ( "parallel.registry",
      [ tc "merge counters/gauges/hists" registry_merge ] );
    ( "parallel.equivalence",
      [
        tc "oracle vs 2/4 domains, 3 seeds" equivalence_soak;
        tc "rings actually exercised" forwarding_exercised;
        tc "uncached datapath agrees" equivalence_uncached;
        tc "simulated speedup at 2 domains" simulated_speedup;
        tc "merged registry carries domain labels" merged_registry_labels;
      ] );
    ( "parallel.flight",
      [
        tc "timelines survive cross-domain handoff" flight_cross_domain;
        tc "ring handoff counters" ring_counters_account;
      ] );
  ]
