(* Tests for the per-flow fast-path cache and the batched delivery path:
   record/replay equivalence, generation-counter invalidation, recording
   re-entrancy, the path_cache counters, Pool slot batching, device batch
   delivery, and the Cpu.charge reservation the synchronous replay uses. *)

let tc name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t
let us = Sim.Stime.us

module D = Spin.Dispatcher

(* A two-level chain: [root] has a forwarder that raises [mid]; handlers
   on both log (tag, payload).  The root's flow signature is the
   payload's low bits, and every guard reads only those bits, so equal
   signatures are indistinguishable to guards — the cacheability
   contract. *)
type side = {
  engine : Sim.Engine.t;
  d : D.t;
  root : int D.event;
  mid : int D.event;
  log : (int * int) list ref;
}

(* The signature writer of the int-payload tests: the payload's two
   low bits, in one byte.  It allocates nothing. *)
let sig_low_bits v b =
  Bytes.unsafe_set b 0 (Char.unsafe_chr (v land 3));
  true

let mk_side ~flowcache =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  let d = D.create ~cpu ~costs:D.default_costs () in
  D.set_flow_cache d flowcache;
  let root = D.event d "root" in
  let mid = D.event d "mid" in
  D.set_sigfn root ~len:1 sig_low_bits;
  let log = ref [] in
  let (_ : unit -> unit) =
    D.install root ~cacheable:true ~label:"fwd" ~cost:(us 1) (fun v ->
        log := (-1, v) :: !log;
        D.raise mid v)
  in
  { engine = e; d; root; mid; log }

let install_logger ?(cacheable = true) ?guard s ev tag =
  D.install ev ?guard ~cacheable
    ~label:(Printf.sprintf "h%d" tag)
    ~cost:(us 1)
    (fun v -> s.log := (tag, v) :: !(s.log))

let send s v =
  D.raise s.root v;
  Sim.Engine.run s.engine

let delivered s = List.rev !(s.log)

(* ---- record / hit / invalidate -------------------------------------- *)

let hit_replays_same_chain () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  let (_ : unit -> unit) =
    install_logger s s.mid 2 ~guard:(fun v -> v land 3 = 0)
  in
  send s 0;
  Alcotest.(check int) "first raise misses" 1 (D.path_cache_misses s.d);
  Alcotest.(check int) "entry committed" 1 (D.cache_entries s.root);
  send s 4;
  (* same signature class: replay *)
  send s 8;
  Alcotest.(check int) "two hits" 2 (D.path_cache_hits s.d);
  Alcotest.(check int) "no further misses" 1 (D.path_cache_misses s.d);
  Alcotest.(check (list (pair int int)))
    "same handler sequence per packet"
    [ (-1, 0); (1, 0); (2, 0); (-1, 4); (1, 4); (2, 4); (-1, 8); (1, 8); (2, 8) ]
    (delivered s)

(* A chain of [n] events, each handler raising the next: a root raise
   walks [n] hops.  Past 64 the recording is abandoned, so every raise
   misses and no entry is committed; delivery is unchanged. *)
let chain_of n =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  let d = D.create ~cpu ~costs:D.default_costs () in
  D.set_flow_cache d true;
  let evs = Array.init n (fun i -> D.event d (Printf.sprintf "e%d" i)) in
  D.set_sigfn evs.(0) ~len:1 sig_low_bits;
  let runs = ref 0 in
  Array.iteri
    (fun i ev ->
      let (_ : unit -> unit) =
        D.install ev ~cacheable:true ~cost:(us 1) (fun v ->
            incr runs;
            if i + 1 < n then D.raise evs.(i + 1) v)
      in
      ())
    evs;
  let send v =
    D.raise evs.(0) v;
    Sim.Engine.run e
  in
  (d, evs.(0), runs, send)

let long_chain_is_not_cached () =
  let d, root, runs, send = chain_of 64 in
  send 0;
  send 4;
  Alcotest.(check (pair int int)) "64 hops: recorded, then replayed" (1, 1)
    (D.path_cache_misses d, D.path_cache_hits d);
  Alcotest.(check int) "every hop ran twice" 128 !runs;
  let d, root', runs, send = chain_of 65 in
  send 0;
  send 4;
  Alcotest.(check (pair int int)) "65 hops: two misses" (2, 0)
    (D.path_cache_misses d, D.path_cache_hits d);
  Alcotest.(check (pair int int)) "no entry" (1, 0)
    (D.cache_entries root, D.cache_entries root');
  Alcotest.(check int) "every hop still ran twice" 130 !runs

let disabled_by_default () =
  let s = mk_side ~flowcache:false in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  send s 0;
  send s 0;
  Alcotest.(check int) "no entries" 0 (D.cache_entries s.root);
  Alcotest.(check int) "no hits" 0 (D.path_cache_hits s.d);
  Alcotest.(check int) "no misses counted while disabled" 0
    (D.path_cache_misses s.d)

let uninstall_invalidates_before_next_packet () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  let un2 = install_logger s s.mid 2 in
  send s 0;
  send s 0;
  Alcotest.(check int) "warm hit" 1 (D.path_cache_hits s.d);
  un2 ();
  (* mid's generation moved: the cached chain must not fire h2 *)
  s.log := [];
  send s 0;
  Alcotest.(check (list (pair int int)))
    "uninstalled handler no longer delivered"
    [ (-1, 0); (1, 0) ]
    (delivered s);
  Alcotest.(check int) "stale entry counted as invalidation" 1
    (D.path_cache_invalidations s.d);
  Alcotest.(check int) "stale lookup is a miss (re-records)" 2
    (D.path_cache_misses s.d);
  send s 0;
  Alcotest.(check int) "re-recorded chain hits again" 2
    (D.path_cache_hits s.d)

let touch_invalidates () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  send s 0;
  send s 0;
  Alcotest.(check int) "warm hit" 1 (D.path_cache_hits s.d);
  D.touch s.mid;
  send s 0;
  Alcotest.(check int) "touch forces a miss" 2 (D.path_cache_misses s.d);
  Alcotest.(check int) "touch counted as invalidation" 1
    (D.path_cache_invalidations s.d)

(* A delivery's priority override and recording flow hold only while
   its handler body runs.  A frame the poller demoted to thread priority
   is followed by one raised with no override, as an interrupt service
   raises it: that frame must run at interrupt priority, ahead of thread
   work already queued, and take the flow cache, so the frame after it
   replays.  Every run is bounded, so a context that outlives its body
   fails here rather than looping. *)
let context_ends_with_body () =
  let s = mk_side ~flowcache:true in
  let (_ : unit -> unit) = install_logger s s.mid 1 in
  let run () = Sim.Engine.run s.engine ~max_events:1_000 in
  D.raise ~prio:D.Thread s.root 0;
  run ();
  Alcotest.(check int) "a demoted raise bypasses the cache" 0
    (D.path_cache_misses s.d);
  let cpu = D.cpu s.d in
  Sim.Cpu.submit cpu D.Interrupt ~cost:(us 5) (fun () ->
      s.log := (-2, 0) :: !(s.log));
  Sim.Cpu.submit cpu D.Thread ~cost:(us 1) (fun () ->
      s.log := (-3, 0) :: !(s.log));
  D.raise s.root 4;
  run ();
  Alcotest.(check int) "the next raise records" 1 (D.path_cache_misses s.d);
  D.raise s.root 8;
  run ();
  Alcotest.(check int) "the one after replays" 1 (D.path_cache_hits s.d);
  Alcotest.(check (list (pair int int)))
    "interrupt delivery overtakes queued thread work"
    [ (-1, 0); (1, 0); (-2, 0); (-1, 4); (1, 4); (-3, 0); (-1, 8); (1, 8) ]
    (delivered s)

(* A handler that churns the graph *while the chain is being recorded*
   must not let a stale chain commit (the recording is re-validated at
   delivery end — the re-entrancy fix). *)
let churn_during_recording_discards_entry () =
  let s = mk_side ~flowcache:true in
  let un_victim = ref (fun () -> ()) in
  let first = ref true in
  let (_ : unit -> unit) =
    D.install s.mid ~cacheable:true ~label:"churner" ~cost:(us 1) (fun v ->
        s.log := (1, v) :: !(s.log);
        if !first then begin
          first := false;
          !un_victim ()
        end)
  in
  un_victim := install_logger s s.mid 2;
  send s 0;
  Alcotest.(check int) "churned recording not committed" 0
    (D.cache_entries s.root);
  Alcotest.(check int) "discard counted as invalidation" 1
    (D.path_cache_invalidations s.d);
  (* next packet records the post-churn chain and then replays it.  (On
     the first packet the victim never fires at all: it was uninstalled
     before its queued delivery ran, which graph dispatch also honors.) *)
  send s 0;
  send s 0;
  Alcotest.(check int) "clean re-record then hit" 1 (D.path_cache_hits s.d);
  Alcotest.(check (list (pair int int)))
    "post-churn chain stable"
    [ (-1, 0); (1, 0); (-1, 0); (1, 0); (-1, 0); (1, 0) ]
    (delivered s)

(* A handler that uninstalls a *later* hop's handler mid-replay: the
   stale hop is detected when the nested raise tries to consume it, the
   entry is dropped, and the remainder falls back to graph dispatch —
   the uninstalled handler must not run. *)
let churn_during_replay_diverges_safely () =
  let s = mk_side ~flowcache:true in
  let leaf = D.event s.d "leaf" in
  let un_victim = ref (fun () -> ()) in
  let armed = ref false in
  let (_ : unit -> unit) =
    D.install s.mid ~cacheable:true ~label:"fwd2" ~cost:(us 1) (fun v ->
        s.log := (1, v) :: !(s.log);
        if !armed then begin
          armed := false;
          !un_victim ()
        end;
        D.raise leaf v)
  in
  un_victim :=
    D.install leaf ~cacheable:true ~label:"victim" ~cost:(us 1) (fun v ->
        s.log := (2, v) :: !(s.log));
  send s 0;
  send s 0;
  Alcotest.(check int) "warm hit" 1 (D.path_cache_hits s.d);
  armed := true;
  s.log := [];
  send s 0;
  Alcotest.(check (list (pair int int)))
    "victim does not fire after mid-replay uninstall"
    [ (-1, 0); (1, 0) ]
    (delivered s);
  Alcotest.(check int) "divergence drops the entry" 0 (D.cache_entries s.root);
  send s 0;
  send s 0;
  Alcotest.(check int) "re-records and hits again" 3 (D.path_cache_hits s.d)

(* Claim, then churn: a handler on [mid] raises [a] then [b], so a
   replay claims both hops before either runs.  Armed, [a]'s handler
   uninstalls [b]'s handler; [b]'s claimed hop is stale by the time its
   runner comes round, so the runner must drop the entry and send the
   raise through graph dispatch, where the victim is gone.  Graph
   dispatch without the cache reaches the same deliveries: the victim's
   queued delivery is skipped once it is uninstalled. *)
let claim_then_churn () =
  let mk ~flowcache =
    let s = mk_side ~flowcache in
    let a = D.event s.d "a" and b = D.event s.d "b" in
    let (_ : unit -> unit) =
      D.install s.mid ~cacheable:true ~label:"fan" ~cost:(us 1) (fun v ->
          s.log := (1, v) :: !(s.log);
          D.raise a v;
          D.raise b v)
    in
    let un_victim = ref (fun () -> ()) and armed = ref false in
    let (_ : unit -> unit) =
      D.install a ~cacheable:true ~label:"churner" ~cost:(us 1) (fun v ->
          s.log := (2, v) :: !(s.log);
          if !armed then begin
            armed := false;
            !un_victim ()
          end)
    in
    un_victim :=
      D.install b ~cacheable:true ~label:"victim" ~cost:(us 1) (fun v ->
          s.log := (3, v) :: !(s.log));
    (s, armed)
  in
  let run ~flowcache =
    let s, armed = mk ~flowcache in
    send s 0;
    send s 4;
    let inv0 = D.path_cache_invalidations s.d in
    armed := true;
    send s 8;
    let after =
      (D.path_cache_invalidations s.d - inv0, D.cache_entries s.root)
    in
    send s 12;
    (s, after)
  in
  let cached, (invalidations, entries) = run ~flowcache:true in
  let uncached, _ = run ~flowcache:false in
  Alcotest.(check int) "the warm hit and the one that diverged" 2
    (D.path_cache_hits cached.d);
  Alcotest.(check int) "one divergent-replay invalidation" 1 invalidations;
  Alcotest.(check int) "the diverged entry is dropped" 0 entries;
  Alcotest.(check bool) "victim never runs after the churn" false
    (List.exists (fun (tag, v) -> tag = 3 && v >= 8) (delivered cached));
  Alcotest.(check (list (pair int int)))
    "same deliveries as graph dispatch" (delivered uncached)
    (delivered cached);
  Alcotest.(check int) "post-churn chain recorded again" 1
    (D.cache_entries cached.root)

(* A handler that raises one event three times, with three payloads:
   the three claims share that event's FIFO and must run in raise
   order, the order graph dispatch delivers them in. *)
let fan_out_keeps_raise_order () =
  let run ~flowcache =
    let s = mk_side ~flowcache in
    let leaf = D.event s.d "leaf" in
    let (_ : unit -> unit) =
      D.install s.mid ~cacheable:true ~label:"fan" ~cost:(us 1) (fun v ->
          for k = 0 to 2 do
            D.raise leaf (v + (100 * k))
          done)
    in
    let (_ : unit -> unit) = install_logger s leaf 1 in
    send s 0;
    send s 4;
    send s 8;
    s
  in
  let cached = run ~flowcache:true and uncached = run ~flowcache:false in
  Alcotest.(check int) "two hits" 2 (D.path_cache_hits cached.d);
  Alcotest.(check (list (pair int int)))
    "same deliveries in the same order" (delivered uncached)
    (delivered cached)

(* ---- a warm hit allocates nothing ------------------------------------ *)

(* A chain of [depth] events: every handler counts and raises the next
   event with its payload, the root's handler [fan] times and every
   other handler once.  Every handler is cacheable, so after one recording
   every packet of the flow is a hit. *)
let counting_chain ~depth ~fan =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"cpu" in
  let d = D.create ~cpu ~costs:D.default_costs () in
  D.set_flow_cache d true;
  let evs = Array.init depth (fun i -> D.event d (Printf.sprintf "e%d" i)) in
  D.set_sigfn evs.(0) ~len:1 sig_low_bits;
  let count = ref 0 in
  Array.iteri
    (fun i ev ->
      let n = if i = 0 then fan else 1 in
      let (_ : unit -> unit) =
        D.install ev ~cacheable:true ~cost:(us 1) (fun v ->
            incr count;
            if i + 1 < depth then
              for _ = 1 to n do
                D.raise evs.(i + 1) v
              done)
      in
      ())
    evs;
  (e, d, evs.(0), count)

let hit_words (e, _, root, _) v =
  let w0 = Gc.minor_words () in
  D.raise root v;
  let w = Gc.minor_words () -. w0 in
  Sim.Engine.run e;
  w

(* Words per warm hit on a 3-hop chain.  The signature is probed in the
   root's scratch, the replay state is the dispatcher's, and each nested
   raise claims its hop into its event's FIFO: none of it allocates.
   Optimised and dev builds alike. *)
let hit_words_expected = 0.

let warm_hit_allocates_nothing () =
  let ((_, d, _, count) as c) = counting_chain ~depth:3 ~fan:1 in
  ignore (hit_words c 0 : float);
  ignore (hit_words c 4 : float);
  Alcotest.(check int) "recorded then hit" 1 (D.path_cache_hits d);
  let w = hit_words c 8 in
  Alcotest.(check int) "the hit replayed the chain" 2 (D.path_cache_hits d);
  Alcotest.(check int) "every hop's handler ran" 9 !count;
  Alcotest.(check (float 0.)) "minor words per warm hit" hit_words_expected w

(* A root that raises 12 nested events claims more hops than a FIFO's
   first capacity (8): the first hit grows the event's FIFO and the
   replay's queue, and the second finds them grown. *)
let deep_chain_reuses_fifos () =
  let ((_, d, _, count) as c) = counting_chain ~depth:2 ~fan:12 in
  ignore (hit_words c 0 : float);
  let first = hit_words c 4 in
  let second = hit_words c 8 in
  Alcotest.(check int) "two hits" 2 (D.path_cache_hits d);
  Alcotest.(check int) "every claimed hop ran" 39 !count;
  if first <= second then
    Alcotest.failf "the first hit (%.0f words) grew no FIFO" first;
  Alcotest.(check (float 0.)) "minor words on the second pass"
    hit_words_expected second

(* ---- qcheck: cached == uncached under random churn ------------------- *)

(* Random interleavings of install / uninstall / touch / raise applied
   to two identical dispatcher graphs, flow cache on and off: the
   delivery logs must be identical.  Guards read only the signature
   bits; a sprinkling of non-cacheable installs exercises chain
   poisoning, which must also preserve equivalence (by never caching). *)
let equivalence_under_churn =
  QCheck.Test.make ~count:120
    ~name:"cached dispatch == uncached dispatch under churn"
    QCheck.(
      list_of_size
        Gen.(0 -- 40)
        (oneof
           [
             map
               (fun (on_root, cls, cacheable) ->
                 `Install (on_root, cls, cacheable))
               (triple bool (int_range (-1) 3) bool);
             map (fun i -> `Uninstall i) (int_bound 20);
             map (fun on_root -> `Touch on_root) bool;
             map (fun v -> `Raise v) (int_bound 15);
           ]))
    (fun ops ->
      let cached = mk_side ~flowcache:true in
      let uncached = mk_side ~flowcache:false in
      let apply s uninstallers tag = function
        | `Install (on_root, cls, cacheable) ->
            let target = if on_root then s.root else s.mid in
            let guard = if cls < 0 then None else Some (fun v -> v land 3 = cls) in
            uninstallers :=
              !uninstallers @ [ install_logger ~cacheable ?guard s target tag ]
        | `Uninstall i -> (
            match !uninstallers with
            | [] -> ()
            | l ->
                let i = i mod List.length l in
                (List.nth l i) ();
                uninstallers := List.filteri (fun j _ -> j <> i) l)
        | `Touch on_root -> D.touch (if on_root then s.root else s.mid)
        | `Raise v -> send s v
      in
      let uc = ref [] and uu = ref [] in
      List.iteri (fun tag op -> apply cached uc tag op) ops;
      List.iteri (fun tag op -> apply uncached uu tag op) ops;
      delivered cached = delivered uncached)

(* ---- full stack ------------------------------------------------------ *)

let stack_counters () =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let got = ref [] in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            got := View.to_string (Plexus.Pctx.view ctx) :: !got)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let disp_b = Plexus.Graph.dispatcher (Plexus.Stack.graph p.Experiments.Common.b) in
  let ping i =
    Plexus.Udp_mgr.send udp_a client
      ~dst:(Experiments.Common.ip_b, 7)
      (Printf.sprintf "ping-%d" i);
    Sim.Engine.run p.Experiments.Common.engine
  in
  (* first data packet records the udp flow (the ARP exchange has its
     own flow entries); later packets must replay it *)
  ping 0;
  let h0 = D.path_cache_hits disp_b and m0 = D.path_cache_misses disp_b in
  ping 1;
  ping 2;
  Alcotest.(check int) "steady-state packets hit" (h0 + 2)
    (D.path_cache_hits disp_b);
  Alcotest.(check int) "no steady-state misses" m0
    (D.path_cache_misses disp_b);
  let ether_ev =
    Plexus.Graph.recv_event
      (Plexus.Ether_mgr.node (Plexus.Stack.ether p.Experiments.Common.b))
  in
  Alcotest.(check bool) "flow entry live at the ether root" true
    (D.cache_entries ether_ev >= 1);
  Alcotest.(check (list string))
    "payloads delivered in order"
    [ "ping-0"; "ping-1"; "ping-2" ]
    (List.rev !got)

(* The steady state the cache is for: the paper's extension trio on the
   receiver's flow path (a wire tap on the ether event, a firewall and a
   byte-accounting monitor on the ip event) with span tracing into a
   ring, and a 1000-B datagram per send.  Uncached, every packet re-pays
   demux, guards, one work item per handler and a span per step; cached,
   one signature probe replays the recorded chain.  Returns, per send,
   the minor words and engine events of the whole host pair, and the
   receiver's guard evaluations and path-cache hits, plus the datagrams
   the server received. *)
let steady_state_per_send ~flowcache =
  let p =
    Experiments.Common.plexus_pair ~flowcache (Netsim.Costs.ethernet ())
  in
  let b = p.Experiments.Common.b and engine = p.Experiments.Common.engine in
  let kernel = Netsim.Host.kernel (Plexus.Stack.host b) in
  Observe.Trace.set_sink (Spin.Kernel.trace kernel)
    (Observe.Trace.Ring (Observe.Trace.Ring.create ~capacity:4096 ()));
  let ether_ev =
    Plexus.Graph.recv_event (Plexus.Ether_mgr.node (Plexus.Stack.ether b))
  in
  let ip_ev =
    Plexus.Graph.recv_event (Plexus.Ip_mgr.node (Plexus.Stack.ip b))
  in
  let udp_guard ctx =
    match ctx.Plexus.Pctx.ip with
    | Some ip -> ip.Proto.Ipv4.proto = Proto.Ipv4.proto_udp
    | None -> false
  in
  let frames = ref 0 and bytes = ref 0 and received = ref 0 in
  List.iter
    (fun (ev, guard, label, cost, f) ->
      let (_ : unit -> unit) =
        D.install ev ~guard ~cacheable:true ~label ~cost f
      in
      ())
    [
      (ether_ev, (fun _ -> true), "tap", us 2, fun _ -> incr frames);
      (ip_ev, udp_guard, "firewall", us 2, ignore);
      ( ip_ev, udp_guard, "acct", us 1,
        fun ctx -> bytes := !bytes + Plexus.Pctx.payload_len ctx );
    ];
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp b in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr received)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let dst = (Experiments.Common.ip_b, 7) in
  let send () =
    Plexus.Udp_mgr.send_mbuf udp_a client ~dst (Mbuf.alloc 1000);
    Sim.Engine.run engine
  in
  (* the first sends warm ARP, record the flow path and first replay it *)
  for _ = 1 to 3 do send () done;
  let disp_b = Spin.Kernel.dispatcher kernel in
  let sends = 1000 in
  let e0 = Sim.Engine.events_run engine and g0 = D.guard_evals disp_b in
  let h0 = D.path_cache_hits disp_b and r0 = !received in
  let w0 = Gc.minor_words () in
  for _ = 1 to sends do send () done;
  let words = Gc.minor_words () -. w0 in
  let per x = float_of_int x /. float_of_int sends in
  ( words /. float_of_int sends,
    per (Sim.Engine.events_run engine - e0),
    per (D.guard_evals disp_b - g0),
    per (D.path_cache_hits disp_b - h0),
    !received - r0 )

(* What the cache buys, in counters that repeat exactly from run to
   run: the uncached send must cost at least 1.5x the cached one in minor
   words and in engine events, and a cached send evaluates no guard. *)
let steady_state_cache_pays () =
  let uw, ue, _, _, ud = steady_state_per_send ~flowcache:false in
  let cw, ce, cg, ch, cd = steady_state_per_send ~flowcache:true in
  Alcotest.(check int) "every datagram delivered, cached or not" ud cd;
  Alcotest.(check (float 0.)) "cached: no guard evaluated" 0. cg;
  Alcotest.(check (float 0.)) "cached: one path-cache hit per send" 1. ch;
  if uw < 1.5 *. cw || ue < 1.5 *. ce then
    Alcotest.failf
      "uncached send costs %.1f words and %.2f events, cached %.1f and %.2f \
       (need >= 1.5x on both)"
      uw ue cw ce

let stack_exclude_ports_invalidates () =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_a = Plexus.Stack.udp p.Experiments.Common.a in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let got = ref 0 in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun _ -> incr got)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let client =
    match Plexus.Udp_mgr.bind udp_a ~owner:"cli" ~port:5000 with
    | Ok ep -> ep
    | Error _ -> Alcotest.fail "bind failed"
  in
  let ping () =
    Plexus.Udp_mgr.send udp_a client ~dst:(Experiments.Common.ip_b, 7) "x";
    Sim.Engine.run p.Experiments.Common.engine
  in
  ping ();
  ping ();
  Alcotest.(check int) "delivered while open" 2 !got;
  (* the exclude list is guard state beyond the flow signature: mutating
     it must invalidate the cached path before the next packet *)
  Plexus.Udp_mgr.exclude_ports udp_b [ 7 ];
  ping ();
  Alcotest.(check int) "excluded port no longer delivered" 2 !got

(* ---- batching -------------------------------------------------------- *)

let pool_reserve_n () =
  let pool = Pool.create ~name:"p" ~capacity:4 () in
  Alcotest.(check int) "full grant" 3 (Pool.reserve_n pool 3);
  Alcotest.(check int) "live tracks grant" 3 (Pool.live pool);
  Alcotest.(check int) "partial grant at capacity" 1 (Pool.reserve_n pool 3);
  Alcotest.(check int) "shortfall counted as failures" 2 (Pool.failures pool);
  Pool.release_n pool 4;
  Alcotest.(check int) "released" 0 (Pool.live pool);
  Alcotest.(check int) "zero grant on empty request" 0 (Pool.reserve_n pool 0);
  Alcotest.check_raises "underflow rejected"
    (Invalid_argument "p: pool slots released twice (double free)") (fun () ->
      Pool.release_n pool 1)

let mk_udp_frame ?(src_port = 5000) ~dst_mac ~dst_port () =
  let m = Mbuf.alloc 64 in
  Proto.Udp.encapsulate ~checksum:true m ~src:Experiments.Common.ip_a
    ~dst:Experiments.Common.ip_b ~src_port ~dst_port;
  Proto.Ipv4.encapsulate m
    (Proto.Ipv4.make ~id:1 ~proto:Proto.Ipv4.proto_udp
       ~src:Experiments.Common.ip_a ~dst:Experiments.Common.ip_b
       ~payload_len:(Mbuf.length m) ());
  Proto.Ether.encapsulate m
    { Proto.Ether.dst = dst_mac; src = dst_mac; etype = Proto.Ether.etype_ip };
  m

(* A coalesced burst enters the graph as one raise per frame, in burst
   order. *)
let deliver_batch_through_stack () =
  let p =
    Experiments.Common.plexus_pair ~flowcache:true (Netsim.Costs.ethernet ())
  in
  let udp_b = Plexus.Stack.udp p.Experiments.Common.b in
  let got = ref [] in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"srv" ~port:7 with
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            got := ctx.Plexus.Pctx.src_port :: !got)
      in
      ()
  | Error _ -> Alcotest.fail "bind failed");
  let ether = Plexus.Stack.ether p.Experiments.Common.b in
  let dev = Plexus.Ether_mgr.dev ether in
  let raises () =
    let name =
      Spin.Dispatcher.name (Plexus.Graph.recv_event (Plexus.Ether_mgr.node ether))
    in
    match
      Observe.Registry.find
        (Plexus.Graph.registry (Plexus.Stack.graph p.Experiments.Common.b))
        ("spin." ^ name ^ ".raises")
    with
    | Some (Observe.Registry.Counter r) -> !r
    | _ -> Alcotest.fail "no raise counter"
  in
  let r0 = raises () in
  let mac = Netsim.Dev.mac dev in
  let ports = List.init 8 (fun i -> 5000 + i) in
  let frames =
    List.map
      (fun src_port ->
        Mbuf.ro (mk_udp_frame ~src_port ~dst_mac:mac ~dst_port:7 ()))
      ports
  in
  Netsim.Dev.deliver_batch dev frames;
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check (list int)) "delivered in burst order" ports (List.rev !got);
  Alcotest.(check int) "every frame counted as a raise" (r0 + 8) (raises ());
  Alcotest.(check int) "batch counted on the device" 8
    (Netsim.Dev.counters dev).Netsim.Dev.rx_packets;
  (* an empty batch is a no-op *)
  Netsim.Dev.deliver_batch dev [];
  Sim.Engine.run p.Experiments.Common.engine;
  Alcotest.(check int) "empty batch delivers nothing" 8 (List.length !got);
  Alcotest.(check int) "empty batch raises nothing" (r0 + 8) (raises ())

let deliver_batch_ring_overflow () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  let mk name mac =
    Netsim.Dev.create e ~cpu ~name ~mac:(Proto.Ether.Mac.of_int mac)
      (Netsim.Costs.ethernet ())
  in
  let a = mk "a" 0x1 and b = mk "b" 0x2 in
  Netsim.Dev.connect a b;
  let pool = Pool.create ~name:"ring" ~capacity:4 () in
  Netsim.Dev.set_rx_pool b pool;
  (* deliver_batch releases the reserved ring slots itself when the
     coalesced interrupt fires — the upcall only consumes the frames *)
  let got = ref 0 in
  Netsim.Dev.set_rx b (fun prio _ ->
      if prio = Sim.Cpu.Interrupt then incr got);
  let frames = List.init 6 (fun i -> Mbuf.ro (Mbuf.of_string (String.make 60 (Char.chr (65 + i))))) in
  Netsim.Dev.deliver_batch b frames;
  Sim.Engine.run e;
  Alcotest.(check int) "ring grants only its capacity, at interrupt priority"
    4 !got;
  Alcotest.(check int) "overflow counted as rx drops" 2
    (Netsim.Dev.counters b).Netsim.Dev.rx_drops

(* The synchronous replay charges its modelled chain cost as a CPU
   reservation: no engine event of its own, but queued and subsequent
   work must wait it out, so latency and utilization accounting are
   unchanged. *)
let cpu_charge_reserves () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c" in
  Sim.Cpu.charge cpu ~cost:(us 10);
  Alcotest.(check int) "charge accounted as busy time" 10_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu));
  let done_at = ref Sim.Stime.zero in
  Sim.Cpu.submit cpu Sim.Cpu.Thread ~cost:(us 5) (fun () -> done_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "queued work waits out the reservation" 15_000
    (Sim.Stime.to_ns !done_at);
  Alcotest.(check int) "busy time includes both" 15_000
    (Sim.Stime.to_ns (Sim.Cpu.busy_time cpu))

(* ---- flow signature -------------------------------------------------- *)

(* The reference encoder the in-place writer replaced: read every demux
   field of a raw frame into a record, then pack the record.  [-1]
   marks an absent field. *)
module Oracle = struct
  type demux = {
    dst_mac : int;
    ether_type : int;
    ip_proto : int;
    src_addr : int;
    dst_addr : int;
    src_port : int;
    dst_port : int;
    fragment : bool;
  }

  let l3 = Proto.Ether.header_len
  let l4 = l3 + Proto.Ipv4.header_len

  let frame_demux v =
    let len = View.length v in
    let dst_mac =
      if len >= Proto.Ether.Off.dst + 6 then
        Proto.Ether.get_u48 v Proto.Ether.Off.dst
      else -1
    in
    let ether_type = Plexus.Filter.frame_ether_type v in
    if ether_type = Proto.Ether.etype_ip && len >= l4 then begin
      let fragment =
        let frag = View.get_u16 v (l3 + Proto.Ipv4.Off.flags_frag) in
        frag land 0x3fff <> 0
        || View.get_u8 v (l3 + Proto.Ipv4.Off.vihl) <> 0x45
      in
      let ip_proto = View.get_u8 v (l3 + Proto.Ipv4.Off.proto) in
      let ports =
        (not fragment)
        && (ip_proto = Proto.Ipv4.proto_udp || ip_proto = Proto.Ipv4.proto_tcp)
        && len >= l4 + Proto.Udp.Off.dst_port + 2
      in
      {
        dst_mac;
        ether_type;
        ip_proto;
        src_addr = View.get_u32 v (l3 + Proto.Ipv4.Off.src);
        dst_addr = View.get_u32 v (l3 + Proto.Ipv4.Off.dst);
        src_port =
          (if ports then View.get_u16 v (l4 + Proto.Udp.Off.src_port) else -1);
        dst_port =
          (if ports then View.get_u16 v (l4 + Proto.Udp.Off.dst_port) else -1);
        fragment;
      }
    end
    else
      {
        dst_mac;
        ether_type;
        ip_proto = -1;
        src_addr = -1;
        dst_addr = -1;
        src_port = -1;
        dst_port = -1;
        fragment = false;
      }

  let signature_of_demux d =
    let b = Bytes.create 22 in
    Bytes.set_uint16_be b 0 ((d.dst_mac lsr 32) land 0xffff);
    Bytes.set_int32_be b 2 (Int32.of_int (d.dst_mac land 0xffffffff));
    Bytes.set_uint16_be b 6 (d.ether_type land 0xffff);
    Bytes.set_uint8 b 8 (d.ip_proto land 0xff);
    Bytes.set_int32_be b 9 (Int32.of_int (d.src_addr land 0xffffffff));
    Bytes.set_int32_be b 13 (Int32.of_int (d.dst_addr land 0xffffffff));
    Bytes.set_uint16_be b 17 (d.src_port land 0xffff);
    Bytes.set_uint16_be b 19 (d.dst_port land 0xffff);
    Bytes.set_uint8 b 21
      ((if d.dst_mac >= 0 then 1 else 0)
      lor (if d.ether_type >= 0 then 2 else 0)
      lor (if d.ip_proto >= 0 then 4 else 0)
      lor if d.src_port >= 0 then 8 else 0);
    Bytes.unsafe_to_string b

  let signature v =
    let d = frame_demux v in
    if d.fragment then None else Some (signature_of_demux d)
end

let signature_extraction () =
  let p = Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()) in
  let dev = Plexus.Ether_mgr.dev (Plexus.Stack.ether p.Experiments.Common.b) in
  let mac = Netsim.Dev.mac dev in
  let sig_of m = Plexus.Filter.flow_signature (Plexus.Pctx.make dev (Mbuf.ro m)) in
  let s1 = sig_of (mk_udp_frame ~dst_mac:mac ~dst_port:7 ()) in
  let s2 = sig_of (mk_udp_frame ~dst_mac:mac ~dst_port:7 ()) in
  let s3 = sig_of (mk_udp_frame ~dst_mac:mac ~dst_port:9 ()) in
  Alcotest.(check bool) "signature present on a udp frame" true (s1 <> None);
  Alcotest.(check bool) "same 5-tuple, same signature" true (s1 = s2);
  Alcotest.(check bool) "different port, different signature" true (s1 <> s3);
  (* fragments cannot be summarized: ports belong to the first fragment *)
  let frag = mk_udp_frame ~dst_mac:mac ~dst_port:7 () in
  View.set_u16 (Mbuf.view frag) 20 0x2000 (* more-fragments *);
  Alcotest.(check bool) "fragment refused" true (sig_of frag = None);
  (* only a fresh root context is a raw frame the signature describes *)
  let parsed =
    Plexus.Pctx.advance (Plexus.Pctx.make dev (Mbuf.ro (mk_udp_frame ~dst_mac:mac ~dst_port:7 ()))) 14
  in
  Alcotest.(check bool) "non-fresh context refused" true
    (Plexus.Filter.flow_signature parsed = None);
  (* the in-place writer and the record-then-pack encoder agree *)
  let d =
    Oracle.frame_demux
      (View.ro (Mbuf.view (mk_udp_frame ~dst_mac:mac ~dst_port:7 ())))
  in
  Alcotest.(check int) "demux reads the dst port" 7 d.Oracle.dst_port;
  Alcotest.(check bool) "packed form matches the context signature" true
    (Some (Oracle.signature_of_demux d) = s1)

(* Random frames, built around valid Ethernet/IPv4/L4 headers and then
   perturbed: EtherType, IHL, fragment bits and protocol drawn from the
   interesting values and random ones, and the frame cut at a random
   length (runts included).  The writer, given a scratch full of
   garbage, must produce exactly the oracle's bytes, and refuse exactly
   the frames the oracle refuses. *)
let frame_gen =
  QCheck.Gen.(
    let pick vs = oneof [ oneofl vs; int_bound 0xffff ] in
    map
      (fun ((etype, vihl, frag, proto), (body, cut)) ->
        let b = Bytes.of_string body in
        Bytes.set_uint16_be b 12 etype;
        Bytes.set_uint8 b 14 (vihl land 0xff);
        Bytes.set_uint16_be b 20 frag;
        Bytes.set_uint8 b 23 (proto land 0xff);
        Bytes.sub_string b 0 (min cut (Bytes.length b)))
      (pair
         (quad
            (pick [ Proto.Ether.etype_ip; Proto.Ether.etype_arp ])
            (pick [ 0x45; 0x46; 0x4f ])
            (pick [ 0; 0x2000; 0x4000; 0x0001 ])
            (pick
               Proto.Ipv4.[ proto_udp; proto_tcp; proto_icmp ]))
         (pair (string_size (return 64)) (int_bound 70))))

let writer_matches_oracle =
  let dev =
    lazy
      (Plexus.Ether_mgr.dev
         (Plexus.Stack.ether
            (Experiments.Common.plexus_pair (Netsim.Costs.ethernet ()))
              .Experiments.Common.b))
  in
  QCheck.Test.make ~count:500
    ~name:"in-place signature writer = demux-record oracle"
    (QCheck.make ~print:(fun f -> Printf.sprintf "%S" f) frame_gen)
    (fun frame ->
      let m = Mbuf.ro (Mbuf.of_string frame) in
      let scratch = Bytes.make Plexus.Filter.signature_len '\xa5' in
      let ctx = Plexus.Pctx.make (Lazy.force dev) m in
      let written =
        if Plexus.Filter.write_signature ctx scratch then
          Some (Bytes.to_string scratch)
        else None
      in
      written = Oracle.signature (View.ro (Mbuf.view (Mbuf.of_string frame))))

let suite =
  [
    ( "flowcache.dispatcher",
      [
        tc "hit replays the same chain" hit_replays_same_chain;
        tc "disabled by default" disabled_by_default;
        tc "uninstall invalidates before the next packet"
          uninstall_invalidates_before_next_packet;
        tc "touch invalidates" touch_invalidates;
        tc "a handler's override and flow end with its body"
          context_ends_with_body;
        tc "churn during recording discards the entry"
          churn_during_recording_discards_entry;
        tc "churn during replay diverges safely"
          churn_during_replay_diverges_safely;
        tc "claim then churn falls back in the runner" claim_then_churn;
        tc "fan-out claims keep raise order" fan_out_keeps_raise_order;
        tc "a chain past 64 hops is not cached" long_chain_is_not_cached;
        prop equivalence_under_churn;
      ] );
    ( "flowcache.stack",
      [
        tc "path_cache counters on the udp fast path" stack_counters;
        tc "exclude_ports invalidates the cached path"
          stack_exclude_ports_invalidates;
        tc "the cache pays for itself in steady state" steady_state_cache_pays;
      ] );
    ( "flowcache.batching",
      [
        tc "pool reserve_n/release_n" pool_reserve_n;
        tc "deliver_batch through the stack" deliver_batch_through_stack;
        tc "deliver_batch ring overflow" deliver_batch_ring_overflow;
        tc "cpu charge reserves" cpu_charge_reserves;
      ] );
    ( "flowcache.signature",
      [
        tc "flow signature extraction" signature_extraction;
        prop writer_matches_oracle;
      ] );
    ( "flowcache.alloc",
      [
        tc "a warm hit allocates no replay words" warm_hit_allocates_nothing;
        tc "a deep chain reuses its FIFOs" deep_chain_reuses_fifos;
      ] );
  ]
