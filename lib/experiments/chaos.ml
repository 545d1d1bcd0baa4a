(* Chaos soak: whole-stack flows through randomized per-link fault plans.

   Each scenario builds the canonical two-host Plexus testbed, attaches a
   {!Netsim.Faults} plan (seeded, so every run is reproducible) to the
   a -> b direction of the link, drives traffic through it, runs the
   simulation to completion and checks invariants that must hold under
   ANY fault plan:

   - integrity: nothing corrupted is ever delivered as good data (the
     checksums must catch every injected flip);
   - accounting: what the plan injected reconciles exactly against what
     the stack observed (UDP), or bounds it (fragments, TCP);
   - resources: receive-ring pool slots all return (no leak, no
     double-free) and the engine drains (no stuck timer).

   The test suite sweeps these over many seeds; the CLI exposes them as
   a soak command. *)

type fault_mix = {
  loss : Netsim.Faults.loss;
  corrupt_prob : float;
  corrupt_min_off : int;
  duplicate_prob : float;
  jitter_prob : float;
  jitter_max : Sim.Stime.t;
}

(* Ethernet (14) + IP (20) + UDP (8) headers: corruption constrained to
   the UDP payload region, so the UDP checksum must catch every flip and
   the accounting reconciles exactly (a flipped destination MAC, by
   contrast, is silently ignored by the peer, and a flipped port
   misdemuxes — detectable, but not attributable frame by frame). *)
let udp_payload_off = 42

let default_mix =
  {
    loss = Netsim.Faults.Bernoulli 0.08;
    corrupt_prob = 0.06;
    corrupt_min_off = udp_payload_off;
    duplicate_prob = 0.04;
    jitter_prob = 0.10;
    jitter_max = Sim.Stime.ms 2;
  }

let burst_mix =
  {
    default_mix with
    loss =
      Netsim.Faults.Gilbert_elliott
        { p_gb = 0.05; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.7 };
  }

let apply_mix plan mix =
  Netsim.Faults.set_loss plan mix.loss;
  Netsim.Faults.set_corrupt plan ~min_off:mix.corrupt_min_off mix.corrupt_prob;
  Netsim.Faults.set_duplicate plan mix.duplicate_prob;
  Netsim.Faults.set_jitter plan ~max_delay:mix.jitter_max mix.jitter_prob

type testbed = {
  engine : Sim.Engine.t;
  a : Plexus.Stack.t;
  b : Plexus.Stack.t;
  plan : Netsim.Faults.t;
  rx_pool : Pool.t;
}

let testbed ?(fcache = false) ~seed mix =
  let engine = Sim.Engine.create () in
  let ea, eb =
    Netsim.Network.pair engine
      (Netsim.Costs.ethernet ())
      ~a:("hostA", Common.ip_a) ~b:("hostB", Common.ip_b)
  in
  let plan = Netsim.Network.install_faults ~seed ea in
  apply_mix plan mix;
  (* a bounded receive ring on the victim side: the leak check below
     demands every reserved slot comes back *)
  let rx_pool = Pool.create ~name:"chaos.rxring" ~capacity:64 () in
  Netsim.Dev.set_rx_pool eb.Netsim.Network.dev rx_pool;
  let a = Plexus.Stack.build ea.Netsim.Network.host in
  let b = Plexus.Stack.build eb.Netsim.Network.host in
  Plexus.Stack.prime_arp a b;
  if fcache then begin
    Spin.Dispatcher.set_flow_cache
      (Plexus.Graph.dispatcher (Plexus.Stack.graph a))
      true;
    Spin.Dispatcher.set_flow_cache
      (Plexus.Graph.dispatcher (Plexus.Stack.graph b))
      true
  end;
  { engine; a; b; plan; rx_pool }

(* Drive to completion: generous horizon (fragment reassembly expires at
   30 s sim time), hard event cap as a runaway backstop. *)
let drain t = Sim.Engine.run t.engine ~until:(Sim.Stime.s 120) ~max_events:20_000_000

(* --- UDP blast: exact reconciliation --------------------------------- *)

type udp_outcome = {
  u_sent : int;
  u_sunk : int;  (** datagrams reaching the sink application *)
  u_payload_ok : bool;  (** every sunk payload is one that was sent *)
  u_bad_checksum : int;  (** corrupted copies caught at the UDP layer *)
  u_drops : int;  (** injected by the plan *)
  u_corruptions : int;
  u_duplicates : int;
  u_delays : int;
  u_reconciled : bool;
      (** sunk + caught = sent - dropped + duplicated, and every injected
          corruption was caught *)
  u_pool_leaked : int;  (** ring slots never released *)
  u_pool_underflows : int;  (** double-releases *)
}

let pp_udp_outcome ppf o =
  Fmt.pf ppf
    "udp{sent=%d sunk=%d bad_cksum=%d drops=%d corrupt=%d dup=%d delay=%d \
     payload_ok=%b reconciled=%b leaked=%d underflows=%d}"
    o.u_sent o.u_sunk o.u_bad_checksum o.u_drops o.u_corruptions
    o.u_duplicates o.u_delays o.u_payload_ok o.u_reconciled o.u_pool_leaked
    o.u_pool_underflows

let payload ~len i =
  let tag = Printf.sprintf "%08d" i in
  tag ^ String.make (max 0 (len - String.length tag)) 'c'

let udp_blast ?fcache ?(mix = default_mix) ?(count = 200) ?(payload_len = 64)
    ~seed () =
  let t = testbed ?fcache ~seed mix in
  let udp_b = Plexus.Stack.udp t.b in
  let sent = Hashtbl.create count in
  let sunk = ref 0 in
  let payload_ok = ref true in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"chaos-sink" ~port:9 with
  | Error _ -> assert false
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            incr sunk;
            let data = View.to_string (Plexus.Pctx.view ctx) in
            if not (Hashtbl.mem sent data) then payload_ok := false)
      in
      ());
  let udp_a = Plexus.Stack.udp t.a in
  (match Plexus.Udp_mgr.bind udp_a ~owner:"chaos-src" ~port:5000 with
  | Error _ -> assert false
  | Ok ep ->
      for i = 0 to count - 1 do
        let data = payload ~len:payload_len i in
        Hashtbl.replace sent data ();
        ignore
          (Sim.Engine.schedule_in t.engine
             ~delay:(Sim.Stime.ms i)
             (fun () ->
               Plexus.Udp_mgr.send udp_a ep ~dst:(Common.ip_b, 9) data))
      done);
  drain t;
  let plan = t.plan in
  let bad = (Plexus.Udp_mgr.counters udp_b).Plexus.Udp_mgr.bad_checksum in
  let drops = Netsim.Faults.drops plan in
  let corruptions = Netsim.Faults.corruptions plan in
  let duplicates = Netsim.Faults.duplicates plan in
  {
    u_sent = count;
    u_sunk = !sunk;
    u_payload_ok = !payload_ok;
    u_bad_checksum = bad;
    u_drops = drops;
    u_corruptions = corruptions;
    u_duplicates = duplicates;
    u_delays = Netsim.Faults.delays plan;
    u_reconciled =
      !sunk + bad = count - drops + duplicates && bad = corruptions;
    u_pool_leaked = Pool.live t.rx_pool;
    u_pool_underflows = Pool.underflows t.rx_pool;
  }

let udp_ok o =
  o.u_payload_ok && o.u_reconciled && o.u_pool_leaked = 0
  && o.u_pool_underflows = 0

(* --- Fragmented UDP: integrity + reassembly hygiene ------------------- *)

type frag_outcome = {
  f_sent : int;
  f_sunk : int;
  f_payload_ok : bool;
  f_bad_checksum : int;
  f_timeouts : int;  (** reassemblies abandoned at the deadline *)
  f_pending : int;  (** must be 0 after the run drains *)
  f_frames_sent : int;  (** fragment frames emitted by the sender *)
  f_frames_rx : int;  (** fragment frames reaching the victim's IP layer *)
  f_reconciled : bool;
      (** frame-level: rx = sent - dropped + duplicated, exactly;
          datagram-level: completions and timeouts within the bounds the
          fault mix allows. *)
  f_pool_leaked : int;
  f_pool_underflows : int;
}

let pp_frag_outcome ppf o =
  Fmt.pf ppf
    "frag{sent=%d sunk=%d bad_cksum=%d timeouts=%d pending=%d frames=%d/%d \
     payload_ok=%b reconciled=%b leaked=%d underflows=%d}"
    o.f_sent o.f_sunk o.f_bad_checksum o.f_timeouts o.f_pending o.f_frames_rx
    o.f_frames_sent o.f_payload_ok o.f_reconciled o.f_pool_leaked
    o.f_pool_underflows

let udp_frag ?fcache ?(mix = default_mix) ?(count = 40) ?(payload_len = 3000)
    ~seed () =
  let t = testbed ?fcache ~seed mix in
  let udp_b = Plexus.Stack.udp t.b in
  let sent = Hashtbl.create count in
  let sunk = ref 0 in
  let payload_ok = ref true in
  (match Plexus.Udp_mgr.bind udp_b ~owner:"chaos-sink" ~port:9 with
  | Error _ -> assert false
  | Ok ep ->
      let (_ : unit -> unit) =
        Plexus.Udp_mgr.install_recv udp_b ep (fun ctx ->
            incr sunk;
            let data = View.to_string (Plexus.Pctx.view ctx) in
            if not (Hashtbl.mem sent data) then payload_ok := false)
      in
      ());
  let udp_a = Plexus.Stack.udp t.a in
  (match Plexus.Udp_mgr.bind udp_a ~owner:"chaos-src" ~port:5000 with
  | Error _ -> assert false
  | Ok ep ->
      for i = 0 to count - 1 do
        let data = payload ~len:payload_len i in
        Hashtbl.replace sent data ();
        ignore
          (Sim.Engine.schedule_in t.engine
             ~delay:(Sim.Stime.ms (5 * i))
             (fun () ->
               Plexus.Udp_mgr.send udp_a ep ~dst:(Common.ip_b, 9) data))
      done);
  drain t;
  let frag = Plexus.Ip_mgr.frag_state (Plexus.Stack.ip t.b) in
  let bad = (Plexus.Udp_mgr.counters udp_b).Plexus.Udp_mgr.bad_checksum in
  let timeouts = Proto.Ip_frag.timeout_count frag in
  (* Frame-level accounting is exact: corruption is payload-only, so
     every fragment frame that was not dropped reaches the victim's IP
     layer — [rx = sent - dropped + duplicated].  Datagram-level
     accounting can only be bounded under this mix: a whole fragment set
     eaten by a loss burst leaves no trace (no context, no timeout), and
     a jitter-delayed duplicate landing after its datagram completed
     opens a ghost context that times out.  Each untraced datagram costs
     at least one drop, each ghost at least one duplicate, and extra
     completions need a duplicated set, so:
       completions <= sent + duplicates
       completions + timeouts in [sent - drops, sent + duplicates]. *)
  let dups = Netsim.Faults.duplicates t.plan in
  let drops = Netsim.Faults.drops t.plan in
  let frames_sent =
    (Plexus.Ip_mgr.counters (Plexus.Stack.ip t.a)).Plexus.Ip_mgr.fragments_out
  in
  let frames_rx = (Plexus.Ip_mgr.counters (Plexus.Stack.ip t.b)).Plexus.Ip_mgr.rx in
  let completions = !sunk + bad in
  {
    f_sent = count;
    f_sunk = !sunk;
    f_payload_ok = !payload_ok;
    f_bad_checksum = bad;
    f_timeouts = timeouts;
    f_pending = Proto.Ip_frag.pending_count frag;
    f_frames_sent = frames_sent;
    f_frames_rx = frames_rx;
    f_reconciled =
      frames_rx = frames_sent - drops + dups
      && completions <= count + dups
      && completions + timeouts >= count - drops
      && completions + timeouts <= count + dups;
    f_pool_leaked = Pool.live t.rx_pool;
    f_pool_underflows = Pool.underflows t.rx_pool;
  }

let frag_ok o =
  o.f_payload_ok && o.f_pending = 0 && o.f_reconciled && o.f_pool_leaked = 0
  && o.f_pool_underflows = 0

(* --- TCP transfer: stream integrity or clean error -------------------- *)

type tcp_outcome = {
  t_sent_bytes : int;
  t_recv_bytes : int;
  t_stream_ok : bool;  (** received bytes are a prefix of what was sent *)
  t_complete : bool;
  t_error : string option;  (** surfaced error, if the transfer failed *)
  t_bad_checksum : int;  (** corrupted segments caught before demux *)
  t_corruptions : int;
  t_drops : int;
  t_pool_leaked : int;
  t_pool_underflows : int;
}

let pp_tcp_outcome ppf o =
  Fmt.pf ppf
    "tcp{sent=%dB recv=%dB ok=%b complete=%b err=%s bad_cksum=%d corrupt=%d \
     drops=%d leaked=%d underflows=%d}"
    o.t_sent_bytes o.t_recv_bytes o.t_stream_ok o.t_complete
    (Option.value o.t_error ~default:"-")
    o.t_bad_checksum o.t_corruptions o.t_drops o.t_pool_leaked
    o.t_pool_underflows

let tcp_transfer ?fcache ?(mix = default_mix) ?(total = 16_384) ~seed () =
  (* Corruption anywhere past the Ethernet header: flips in the IP header
     are caught by the IP checksum, flips in the TCP header or payload by
     the TCP checksum — every one must surface as a retransmission, never
     as stream corruption. *)
  let mix = { mix with corrupt_min_off = 14 } in
  let t = testbed ?fcache ~seed mix in
  let data =
    String.init total (fun i -> Char.chr (Char.code 'a' + (i mod 26)))
  in
  let buf = Buffer.create total in
  let error = ref None in
  (match
     Plexus.Tcp_mgr.listen (Plexus.Stack.tcp t.b) ~owner:"chaos-sink" ~port:80
       ~on_accept:(fun conn ->
         Plexus.Tcp_mgr.on_receive conn (fun d ->
             Buffer.add_string buf (View.to_string d));
         Plexus.Tcp_mgr.on_peer_close conn (fun () ->
             Plexus.Tcp_mgr.close conn))
       ()
   with
  | Ok () -> ()
  | Error _ -> assert false);
  (match
     Plexus.Tcp_mgr.connect (Plexus.Stack.tcp t.a) ~owner:"chaos-src"
       ~dst:(Common.ip_b, 80) ()
   with
  | Error _ -> assert false
  | Ok conn ->
      Plexus.Tcp_mgr.on_error conn (fun e -> error := Some e);
      Plexus.Tcp_mgr.on_established conn (fun () ->
          Plexus.Tcp_mgr.send conn data;
          Plexus.Tcp_mgr.close conn));
  drain t;
  let got = Buffer.contents buf in
  let stream_ok =
    String.length got <= total && got = String.sub data 0 (String.length got)
  in
  let tcpc = Plexus.Tcp_mgr.counters (Plexus.Stack.tcp t.b) in
  {
    t_sent_bytes = total;
    t_recv_bytes = String.length got;
    t_stream_ok = stream_ok;
    t_complete = String.length got = total;
    t_error = !error;
    t_bad_checksum = tcpc.Plexus.Tcp_mgr.bad_checksum;
    t_corruptions = Netsim.Faults.corruptions t.plan;
    t_drops = Netsim.Faults.drops t.plan;
    t_pool_leaked = Pool.live t.rx_pool;
    t_pool_underflows = Pool.underflows t.rx_pool;
  }

let tcp_ok o =
  o.t_stream_ok
  && (o.t_complete || o.t_error <> None)
  && o.t_pool_leaked = 0 && o.t_pool_underflows = 0

(* --- soak driver ------------------------------------------------------- *)

type soak = {
  seeds : int;
  udp_failures : int;
  frag_failures : int;
  tcp_failures : int;
  cache_divergences : int;
      (** seeds where flow-cached delivery differed from uncached *)
}

let soak_ok s =
  s.udp_failures = 0 && s.frag_failures = 0 && s.tcp_failures = 0
  && s.cache_divergences = 0

(* The flow cache must be observably equivalent to graph dispatch, faults
   included: same seed, same fault stream, so every counter and every
   delivered payload must match. *)
let udp_equivalent (x : udp_outcome) (y : udp_outcome) =
  x.u_sunk = y.u_sunk
  && x.u_bad_checksum = y.u_bad_checksum
  && x.u_drops = y.u_drops
  && x.u_corruptions = y.u_corruptions
  && x.u_duplicates = y.u_duplicates
  && x.u_delays = y.u_delays

let run_soak ?(verbose = false) ?(seeds = 20) ?(base_seed = 1000) () =
  let udp_failures = ref 0 in
  let frag_failures = ref 0 in
  let tcp_failures = ref 0 in
  let cache_divergences = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = base_seed + i in
    let mix = if i mod 2 = 0 then default_mix else burst_mix in
    let u = udp_blast ~mix ~seed () in
    if not (udp_ok u) then incr udp_failures;
    let u' = udp_blast ~fcache:true ~mix ~seed () in
    if not (udp_ok u' && udp_equivalent u u') then incr cache_divergences;
    let f = udp_frag ~mix ~seed () in
    if not (frag_ok f) then incr frag_failures;
    let t = tcp_transfer ~mix ~seed () in
    if not (tcp_ok t) then incr tcp_failures;
    if verbose then
      Fmt.pr "seed %d: %a@.         %a@.         %a@." seed pp_udp_outcome u
        pp_frag_outcome f pp_tcp_outcome t
  done;
  {
    seeds;
    udp_failures = !udp_failures;
    frag_failures = !frag_failures;
    tcp_failures = !tcp_failures;
    cache_divergences = !cache_divergences;
  }

let print ?verbose ?seeds ?base_seed () =
  Common.print_header "Chaos soak: flows through randomized fault plans";
  let s = run_soak ?verbose ?seeds ?base_seed () in
  Printf.printf
    "%d seeds: udp_failures=%d frag_failures=%d tcp_failures=%d \
     cache_divergences=%d -> %s\n"
    s.seeds s.udp_failures s.frag_failures s.tcp_failures s.cache_divergences
    (if soak_ok s then "OK" else "FAILED");
  s
