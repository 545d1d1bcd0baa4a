(* Network devices.

   A device charges its host CPU for driver work (plus per-byte PIO where
   the hardware demands it, like the Fore TCA-100), serializes frames
   onto the wire at the link's bit rate, and delivers to the peer device
   after propagation.  Reception costs an interrupt at interrupt priority
   on the receiving CPU, after which the registered upcall — the bottom
   of the protocol graph — runs once for the frame.  A coalesced burst
   ([deliver_batch]) and the admission-control poller pay one fixed
   charge for several frames, then make the same upcall per frame, with
   the priority they ran at.

   Two robustness layers live here:

   - Fault injection.  A [Faults.t] plan attached with [set_faults]
     renders a verdict for every frame as it leaves the wire: drop
     (Bernoulli or Gilbert–Elliott burst loss, link-down windows),
     corrupt (one byte XORed in flight, so checksum verification up the
     stack is exercised for real), duplicate, or delay past later
     frames.  [set_loss] sets a Bernoulli loss process on that plan.
     Every injected drop is counted in [wire_drops] —
     deliberately separate from [tx_drops], which counts only
     transmit-queue overflow.

   - Overload protection.  With [set_admission], receive interrupts are
     budgeted per window: frames beyond the budget are queued (still
     holding their ring slot) and serviced in batches at *thread*
     priority, so a flood cannot starve application work — the classic
     receive-livelock mitigation.  When the deferred queue itself fills,
     frames are shed at the cheapest point, before any interrupt cost.
     Ring-pool pressure (watermarks, see [Pool.set_pressure]) forces
     deferral early so the ring degrades gracefully instead of dropping
     silently at exhaustion. *)

type counters = {
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable tx_drops : int;
  mutable rx_drops : int;
  mutable wire_drops : int;
  mutable rx_deferred : int;
  mutable rx_shed : int;
}

(* Interrupt admission control: at most [budget] frames take the
   interrupt path per [window]; the rest wait in [q] (each still holding
   its receive-ring slot) for the thread-priority poller. *)
type admission = {
  budget : int;
  window : Sim.Stime.t;
  defer_limit : int;
  poll_batch : int;
  mutable window_start : Sim.Stime.t;
  mutable served : int;
  mutable forced_defer : bool; (* ring pool above its high watermark *)
  q : Mbuf.ro Mbuf.t Queue.t;
  mutable draining : bool;
}

type t = {
  name : string;
  params : Costs.device;
  mac : Proto.Ether.Mac.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  mutable peer : t option;
  mutable wire_busy_until : Sim.Stime.t ref;
      (* shared with the peer on half-duplex media *)
  mutable txq : int;
  mutable rx_handler : (Sim.Cpu.prio -> Mbuf.ro Mbuf.t -> unit) option;
  mutable rx_pool : Pool.t option;
      (* receive ring: buffers held from wire arrival to interrupt
         service; exhaustion drops frames like a full NIC ring *)
  mutable faults : Faults.t option;
  mutable admission : admission option;
  mutable otrace : Observe.Trace.t option;
  mutable flight : Observe.Flight.t option;
  counters : counters;
  txs : tx Sim.Stash.t;
  rxs : rx Sim.Stash.t;
}

(* Per-frame driver work, recycled through the stashes above (see
   {!Sim.Stash}).  A [tx] carries one frame from the driver's send item
   to its arrival at the peer, with one thunk per step, each built once:
   the send item's completion ([tx_queued]), the last bit leaving the
   wire ([tx_sent]) and the end of propagation ([tx_arrived]).  An [rx]
   carries one admitted frame through its receive interrupt. *)
and tx = {
  mutable tx_frame : Mbuf.ro Mbuf.t;
  mutable tx_len : int;
  mutable tx_peer : t;
  mutable tx_queued : unit -> unit;
  mutable tx_sent : unit -> unit;
  mutable tx_arrived : unit -> unit;
}

and rx = {
  mutable rx_pkt : Mbuf.ro Mbuf.t;
  mutable rx_len : int;
  mutable rx_run : unit -> unit;
}

let create engine ~cpu ~name ~mac params =
  {
    name;
    params;
    mac;
    engine;
    cpu;
    peer = None;
    wire_busy_until = ref Sim.Stime.zero;
    txq = 0;
    rx_handler = None;
    rx_pool = None;
    faults = None;
    admission = None;
    otrace = None;
    flight = None;
    counters =
      {
        tx_packets = 0;
        rx_packets = 0;
        tx_bytes = 0;
        rx_bytes = 0;
        tx_drops = 0;
        rx_drops = 0;
        wire_drops = 0;
        rx_deferred = 0;
        rx_shed = 0;
      };
    txs = Sim.Stash.create ();
    rxs = Sim.Stash.create ();
  }

let name t = t.name
let mac t = t.mac
let mtu t = t.params.Costs.mtu
let params t = t.params
let counters t = t.counters

let connect a b =
  a.peer <- Some b;
  b.peer <- Some a;
  (* On a shared segment (the paper's private Ethernet), both directions
     contend for the same wire; switched/point-to-point links are full
     duplex. *)
  if a.params.Costs.shared_medium then b.wire_busy_until <- a.wire_busy_until

(* Install the receive path — only the kernel (trusted driver top half)
   does this; applications go through protocol managers. *)
let set_rx t h = t.rx_handler <- Some h

let set_rx_pool t pool = t.rx_pool <- Some pool
let set_faults t plan = t.faults <- Some plan

(* Fault injection: drop outgoing frames on the wire with the given
   probability, as a Bernoulli loss process on the attached fault plan
   (or on a fresh plan drawing from the engine's own random stream).
   The full closed interval is accepted: [set_loss t 1.0] is a blackout,
   which the ARP/TCP give-up paths need to be testable at all. *)
let set_loss t p =
  if p < 0. || p > 1. then invalid_arg "Dev.set_loss";
  let plan =
    match t.faults with
    | Some plan -> plan
    | None ->
        let plan = Faults.create ~rng:(Sim.Engine.rng t.engine) () in
        set_faults t plan;
        plan
  in
  Faults.set_loss plan (Faults.Bernoulli p)

let set_trace t tr = t.otrace <- Some tr
let set_flight t fl = t.flight <- Some fl

(* Flight-recorder ingress: the receiving device is where a packet's
   timeline begins.  Unmarked frames roll the sampling dice ([admit]);
   a frame already carrying a mark (stamped by an upstream shard plan,
   or surviving an application echo) keeps its identity so the timeline
   stays stitched end to end. *)
let flight_ingress peer pkt =
  match peer.flight with
  | Some fl when Observe.Flight.enabled fl ->
      let id =
        match Mbuf.mark pkt with
        | 0 ->
            let id = Observe.Flight.admit fl in
            if id > 0 then Mbuf.set_mark pkt id;
            id
        | id -> id
      in
      if id > 0 then
        Observe.Flight.ingress fl ~pkt:id
          ~at_ns:(Sim.Stime.to_ns (Sim.Engine.now peer.engine))
          ~dev:peer.name
  | _ -> ()

(* Queue-wait attribution for frames parked past the interrupt budget:
   charged when the poller finally picks the frame up, as time since
   ingress. *)
let flight_queue_wait peer pkt =
  match peer.flight with
  | Some fl when Observe.Flight.enabled fl ->
      let id = Mbuf.mark pkt in
      if id > 0 then begin
        let at_ns = Sim.Stime.to_ns (Sim.Engine.now peer.engine) in
        Observe.Flight.note fl ~pkt:id ~at_ns
          ~dur_ns:(Observe.Flight.since_ingress fl ~pkt:id ~at_ns)
          (Observe.Flight.Queue_wait { dev = peer.name })
      end
  | _ -> ()

let set_admission ?(budget = 8) ?(window = Sim.Stime.ms 1) ?(defer_limit = 256)
    ?poll_batch t =
  if budget <= 0 then invalid_arg "Dev.set_admission: budget";
  if defer_limit <= 0 then invalid_arg "Dev.set_admission: defer_limit";
  if not (Sim.Stime.is_positive window) then
    invalid_arg "Dev.set_admission: window";
  let poll_batch =
    match poll_batch with
    | Some n -> if n <= 0 then invalid_arg "Dev.set_admission: poll_batch" else n
    | None -> budget
  in
  let ac =
    {
      budget;
      window;
      defer_limit;
      poll_batch;
      window_start = Sim.Engine.now t.engine;
      served = 0;
      forced_defer = false;
      q = Queue.create ();
      draining = false;
    }
  in
  (* Ring-pool watermarks force deferral before the ring is exhausted:
     the pool tells us to back off while slots remain, so overload turns
     into polled servicing, not silent ring drops. *)
  (match t.rx_pool with
  | Some pool -> Pool.set_pressure pool (fun high -> ac.forced_defer <- high)
  | None -> ());
  t.admission <- Some ac

let admission_backlog t =
  match t.admission with None -> 0 | Some ac -> Queue.length ac.q

let pio_cost t len = Costs.per_byte t.params.Costs.pio_ns_per_byte len

(* Spans go to the device's own endpoint, which [Host.add_device] wires
   to the host kernel's trace.  A span is built only when [tracing t]:
   with tracing off a drop allocates nothing. *)
let tracing t =
  match t.otrace with Some tr -> Observe.Trace.active tr | None -> false

let span t event =
  match t.otrace with
  | Some tr ->
      Observe.Trace.emit tr
        { Observe.Trace.at_ns = Sim.Stime.to_ns (Sim.Engine.now t.engine); event }
  | None -> ()

let fault_span t ~fault ~detail =
  if tracing t then
    span t (Observe.Trace.Wire_fault { link = t.name; fault; detail })

let drop_span t reason =
  if tracing t then span t (Observe.Trace.Drop { scope = t.name; reason })

(* Queue depths and drop counts as sampling gauges — read at registry
   snapshot time only, nothing on the per-frame path. *)
let register t reg =
  let g key f = Observe.Registry.gauge reg ("dev." ^ t.name ^ "." ^ key) f in
  g "txq" (fun () -> t.txq);
  g "tx_drops" (fun () -> t.counters.tx_drops);
  g "rx_drops" (fun () -> t.counters.rx_drops);
  g "wire_drops" (fun () -> t.counters.wire_drops);
  g "rx_deferred" (fun () -> t.counters.rx_deferred);
  g "rx_shed" (fun () -> t.counters.rx_shed);
  g "ring.live" (fun () ->
      match t.rx_pool with Some p -> Pool.live p | None -> 0);
  g "ring.failures" (fun () ->
      match t.rx_pool with Some p -> Pool.failures p | None -> 0);
  (* Fault-plan injection counters; the closures read [t.faults] at
     snapshot time, so a plan attached after registration still shows. *)
  g "faults.drops" (fun () ->
      match t.faults with Some p -> Faults.drops p | None -> 0);
  g "faults.corruptions" (fun () ->
      match t.faults with Some p -> Faults.corruptions p | None -> 0);
  g "faults.duplicates" (fun () ->
      match t.faults with Some p -> Faults.duplicates p | None -> 0);
  g "faults.delays" (fun () ->
      match t.faults with Some p -> Faults.delays p | None -> 0)

(* A frame reached a device with no receive handler installed. *)
let drop_unhandled peer pkt =
  peer.counters.rx_drops <- peer.counters.rx_drops + 1;
  drop_span peer "no_handler";
  Mbuf.free pkt

let rx_serviced peer r =
  let pkt = r.rx_pkt and len = r.rx_len in
  Sim.Stash.put peer.rxs r;
  (match peer.rx_pool with
  | Some pool -> Pool.release pool
  | None -> ());
  match peer.rx_handler with
  | None -> drop_unhandled peer pkt
  | Some h ->
      peer.counters.rx_packets <- peer.counters.rx_packets + 1;
      peer.counters.rx_bytes <- peer.counters.rx_bytes + len;
      h Sim.Cpu.Interrupt pkt

let fresh_rx peer pkt =
  let r = { rx_pkt = pkt; rx_len = 0; rx_run = ignore } in
  r.rx_run <- (fun () -> rx_serviced peer r);
  r

(* Interrupt service for one admitted frame: fixed driver cost plus PIO
   read for devices that make the CPU pull bytes off the adapter. *)
let interrupt_service peer len pkt =
  let cost = Sim.Stime.add peer.params.Costs.rx_fixed (pio_cost peer len) in
  let r =
    if Sim.Stash.is_empty peer.rxs then fresh_rx peer pkt
    else Sim.Stash.take peer.rxs
  in
  r.rx_pkt <- pkt;
  r.rx_len <- len;
  Sim.Cpu.submit peer.cpu Sim.Cpu.Interrupt ~cost r.rx_run

(* One coalesced service of the [n] frames [pkts] at [prio]: one fixed
   driver charge for the lot (PIO still per byte), then the frames' ring
   slots go back and each frame takes the upcall at [prio], in arrival
   order.  [polled] frames waited in the deferred queue and record that
   wait first.  [k] runs after the last upcall. *)
let service_burst peer prio ~polled pkts ~n k =
  let bytes = List.fold_left (fun acc p -> acc + Mbuf.length p) 0 pkts in
  let cost = Sim.Stime.add peer.params.Costs.rx_fixed (pio_cost peer bytes) in
  Sim.Cpu.submit peer.cpu prio ~cost (fun () ->
      (match peer.rx_pool with
      | Some pool -> Pool.release_n pool n
      | None -> ());
      if polled then List.iter (flight_queue_wait peer) pkts;
      (match peer.rx_handler with
      | Some h ->
          peer.counters.rx_packets <- peer.counters.rx_packets + n;
          peer.counters.rx_bytes <- peer.counters.rx_bytes + bytes;
          List.iter (h prio) pkts
      | None -> List.iter (drop_unhandled peer) pkts);
      k ())

(* The poller: drain the deferred queue in batches at thread priority.
   One fixed charge per batch (cheaper per frame than interrupts —
   that's the point of polling), and between batches the CPU's FIFO lets
   application work at the same priority interleave, so the drain cannot
   itself become a livelock. *)
let rec drain_deferred peer ac =
  let n = Int.min ac.poll_batch (Queue.length ac.q) in
  if n = 0 then ac.draining <- false
  else begin
    let pkts = List.init n (fun _ -> Queue.pop ac.q) in
    service_burst peer Sim.Cpu.Thread ~polled:true pkts ~n (fun () ->
        drain_deferred peer ac)
  end

(* Roll the admission window lazily and decide whether this frame may
   take the interrupt path. *)
let admitted ac now =
  if Sim.Stime.compare (Sim.Stime.sub now ac.window_start) ac.window >= 0
  then begin
    ac.window_start <- now;
    ac.served <- 0
  end;
  if ac.forced_defer then false
  else if ac.served < ac.budget then begin
    ac.served <- ac.served + 1;
    true
  end
  else false

let deliver_to peer (pkt : Mbuf.ro Mbuf.t) =
  let len = Mbuf.length pkt in
  (* A frame occupies a receive-ring slot from wire arrival until the
     interrupt is serviced; with a bounded pool, a burst that outruns the
     CPU drops frames at the ring.  The chain itself crosses the wire
     untouched — no per-frame marshalling or buffer copy. *)
  let ring_slot =
    match peer.rx_pool with None -> true | Some pool -> Pool.reserve pool
  in
  if not ring_slot then begin
    peer.counters.rx_drops <- peer.counters.rx_drops + 1;
    drop_span peer "rx_ring_full";
    Mbuf.free pkt
  end
  else begin
    flight_ingress peer pkt;
    match peer.admission with
    | Some ac when not (admitted ac (Sim.Engine.now peer.engine)) ->
        if Queue.length ac.q >= ac.defer_limit then begin
          (* Shed at the cheapest point: before any interrupt cost, so
             overload past the deferred queue costs next to nothing. *)
          (match peer.rx_pool with
          | Some pool -> Pool.release pool
          | None -> ());
          peer.counters.rx_drops <- peer.counters.rx_drops + 1;
          peer.counters.rx_shed <- peer.counters.rx_shed + 1;
          drop_span peer "admission_shed";
          Mbuf.free pkt
        end
        else begin
          Queue.push pkt ac.q;
          peer.counters.rx_deferred <- peer.counters.rx_deferred + 1;
          if not ac.draining then begin
            ac.draining <- true;
            drain_deferred peer ac
          end
        end
    | _ -> interrupt_service peer len pkt
  end

(* Inject a burst of frames that arrived back to back as one coalesced
   receive interrupt: one slot reservation ([Pool.reserve_n]) and one
   fixed interrupt charge for the whole burst (interrupt coalescing;
   per-byte PIO still scales with the payload), then the upcall once
   per frame.  Frames beyond the ring budget drop exactly as in
   [deliver_to].  Admission control does not apply: a coalesced burst is
   already the batched, bounded-interrupt service model. *)
let deliver_batch peer pkts =
  match pkts with
  | [] -> ()
  | pkts ->
      let n = List.length pkts in
      let granted =
        match peer.rx_pool with
        | None -> n
        | Some pool -> Pool.reserve_n pool n
      in
      let rec split i = function
        | pkt :: rest when i < granted ->
            let kept, dropped = split (i + 1) rest in
            (pkt :: kept, dropped)
        | rest -> ([], rest)
      in
      (* the common case, a whole grant, keeps the list as it is *)
      let kept, dropped = if granted = n then (pkts, []) else split 0 pkts in
      if dropped <> [] then begin
        peer.counters.rx_drops <- peer.counters.rx_drops + List.length dropped;
        List.iter
          (fun pkt ->
            drop_span peer "rx_ring_full";
            Mbuf.free pkt)
          dropped
      end;
      if kept <> [] then begin
        List.iter (flight_ingress peer) kept;
        service_burst peer Sim.Cpu.Interrupt ~polled:false kept ~n:granted
          ignore
      end

(* Apply a fault-plan verdict to a frame leaving the wire.  The plan
   only decides; ownership is handled here: dropped frames are freed,
   duplicated frames are deep-copied before either copy is consumed,
   corruption copies-on-write so a shared chain is never scribbled on. *)
let apply_faults t peer verdict frame =
  match verdict with
  | Faults.Drop why ->
      t.counters.wire_drops <- t.counters.wire_drops + 1;
      if tracing t then drop_span t ("wire_" ^ why);
      fault_span t ~fault:why ~detail:"";
      Mbuf.free frame
  | Faults.Deliver copies ->
      let frames =
        match copies with
        | [ d ] -> [ (d, frame) ]
        | ds ->
            let dup = List.map (fun d -> (d, Mbuf.ro (Mbuf.copy_rw frame))) ds in
            Mbuf.free frame;
            fault_span t ~fault:"duplicate" ~detail:"";
            dup
      in
      List.iter
        (fun (d, f) ->
          let f =
            match d.Faults.corrupt_at with
            | None -> f
            | Some off ->
                let c = Mbuf.copy_rw f in
                let v = Mbuf.view c in
                View.set_u8 v off (View.get_u8 v off lxor d.Faults.xor_mask);
                Mbuf.free f;
                fault_span t ~fault:"corrupt"
                  ~detail:(Printf.sprintf "off=%d mask=%#x" off d.Faults.xor_mask);
                Mbuf.ro c
          in
          if Sim.Stime.is_positive d.Faults.extra_delay then
            fault_span t ~fault:"delay"
              ~detail:(Sim.Stime.to_string d.Faults.extra_delay);
          let delay = Sim.Stime.add t.params.Costs.prop_delay d.Faults.extra_delay in
          Sim.Engine.post_in t.engine ~delay (fun () -> deliver_to peer f))
        frames

(* The frame's trip ends short of the peer: drop it and recycle its
   record. *)
let tx_dropped t tx =
  let frame = tx.tx_frame in
  Sim.Stash.put t.txs tx;
  Mbuf.free frame

(* The driver's send item completes: the frame joins the transmit queue
   and the wire, or is dropped when the queue is full. *)
let tx_queued t tx =
  if t.txq >= t.params.Costs.txq_limit then begin
    t.counters.tx_drops <- t.counters.tx_drops + 1;
    drop_span t "txq_full";
    tx_dropped t tx
  end
  else begin
    let len = tx.tx_len in
    t.txq <- t.txq + 1;
    let now = Sim.Engine.now t.engine in
    let wire_bytes = t.params.Costs.frame_overhead len in
    let start = Sim.Stime.max now !(t.wire_busy_until) in
    let done_at =
      Sim.Stime.add start
        (Sim.Stime.scaled wire_bytes ~mul:8e9 ~div:t.params.Costs.bw_bits_per_s)
    in
    t.wire_busy_until := done_at;
    t.counters.tx_packets <- t.counters.tx_packets + 1;
    t.counters.tx_bytes <- t.counters.tx_bytes + len;
    Sim.Engine.post t.engine ~at:done_at tx.tx_sent
  end

(* The frame reaches the peer a propagation delay later, on its own
   record. *)
let propagate t tx peer =
  (* skip the write barrier when the peer is the last one *)
  if tx.tx_peer != peer then tx.tx_peer <- peer;
  Sim.Engine.post_in t.engine ~delay:t.params.Costs.prop_delay tx.tx_arrived

(* The last bit leaves the wire: the fault plan, if any, decides what
   reaches the peer, a propagation delay later. *)
let tx_sent t tx =
  t.txq <- t.txq - 1;
  match t.peer with
  | None -> tx_dropped t tx
  | Some peer -> (
      match t.faults with
      | None -> propagate t tx peer
      | Some plan -> (
          let now = Sim.Engine.now t.engine in
          match Faults.verdict plan ~now ~len:tx.tx_len with
          | Faults.Deliver [ { Faults.corrupt_at = None; extra_delay; _ } ]
            when not (Sim.Stime.is_positive extra_delay) ->
              propagate t tx peer
          | verdict ->
              let frame = tx.tx_frame in
              Sim.Stash.put t.txs tx;
              apply_faults t peer verdict frame))

let tx_arrived t tx =
  let peer = tx.tx_peer and frame = tx.tx_frame in
  Sim.Stash.put t.txs tx;
  deliver_to peer frame

let fresh_tx t frame =
  let tx =
    { tx_frame = frame; tx_len = 0; tx_peer = t; tx_queued = ignore;
      tx_sent = ignore; tx_arrived = ignore }
  in
  tx.tx_queued <- (fun () -> tx_queued t tx);
  tx.tx_sent <- (fun () -> tx_sent t tx);
  tx.tx_arrived <- (fun () -> tx_arrived t tx);
  tx

let submit t prio pkt =
  let len = Mbuf.length pkt in
  if len > t.params.Costs.mtu + Proto.Ether.header_len then
    invalid_arg
      (Printf.sprintf "Dev.transmit(%s): frame of %d bytes exceeds MTU" t.name len);
  (* The driver consumes the frame: the sender's handle empties here and
     now, so it cannot scribble on bytes that are on the wire (ownership
     transfer instead of the seed's defensive string flatten). *)
  let frame = Mbuf.ro (Mbuf.take pkt) in
  let tx =
    if Sim.Stash.is_empty t.txs then fresh_tx t frame else Sim.Stash.take t.txs
  in
  tx.tx_frame <- frame;
  tx.tx_len <- len;
  (* Driver send cost (+ PIO write). *)
  let cost = Sim.Stime.add t.params.Costs.tx_fixed (pio_cost t len) in
  Sim.Cpu.submit t.cpu prio ~cost tx.tx_queued

let transmit t ?(prio = Sim.Cpu.Thread) pkt = submit t prio pkt

(* Raw wire occupancy for a packet of [len] bytes — used by experiments to
   report theoretical ceilings. *)
let wire_time t len =
  let wire_bytes = t.params.Costs.frame_overhead len in
  Sim.Stime.of_us_f
    (float_of_int wire_bytes *. 8e6 /. float_of_int t.params.Costs.bw_bits_per_s)
