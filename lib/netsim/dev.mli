(** Simulated network devices (point-to-point).

    Transmission charges the host CPU for driver work (and per-byte PIO on
    devices like the Fore TCA-100), serializes frames on the wire at the
    device bit rate, and delivers to the peer after propagation; reception
    charges an interrupt on the peer CPU and invokes the installed receive
    upcall once per frame — the bottom of the Plexus protocol graph.

    Devices also host the adversarial machinery: a per-link fault plan
    ({!set_faults}) applied as frames leave the wire, and interrupt
    admission control ({!set_admission}) that bounds interrupt servicing
    and drains overload at thread priority — the receive-livelock
    mitigation. *)

type t

type counters = {
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable tx_drops : int;   (** transmit-queue overflows, nothing else *)
  mutable rx_drops : int;
      (** receive-side drops: ring overflow, no handler, admission shed *)
  mutable wire_drops : int;
      (** frames lost on the wire by fault injection (the fault plan,
          {!set_loss} included) — kept apart from [tx_drops] so queue
          overflow and injected loss can't be conflated *)
  mutable rx_deferred : int;
      (** frames routed past the interrupt budget to the polled path *)
  mutable rx_shed : int;
      (** frames dropped at admission because the deferred queue was
          full (also counted in [rx_drops]) *)
}

val create :
  Sim.Engine.t -> cpu:Sim.Cpu.t -> name:string -> mac:Proto.Ether.Mac.t ->
  Costs.device -> t

val connect : t -> t -> unit
(** Wire two devices together (both directions). *)

val set_rx : t -> (Sim.Cpu.prio -> Mbuf.ro Mbuf.t -> unit) -> unit
(** Install the driver's receive upcall (trusted kernel code only).  It
    is called once per frame on every service path — the per-frame
    receive interrupt, a coalesced {!deliver_batch} burst and the
    admission-control poller — with the priority that service ran at:
    [Interrupt] for the first two, [Thread] for the poller.  The upcall
    owns each frame it is handed: it frees it, or holds it and releases
    it when its last use is done ({!Mbuf.hold}).  A frame that arrives
    with no upcall installed is counted in [rx_drops], emits a [Drop]
    span with reason ["no_handler"] and is freed. *)

val deliver_batch : t -> Mbuf.ro Mbuf.t list -> unit
(** Inject a burst of frames arriving back to back at this device, as
    one coalesced receive interrupt: one ring-slot reservation
    ({!Pool.reserve_n}), one fixed interrupt charge for the burst (PIO
    still per byte), then the upcall once per frame, in order.  Frames
    beyond the ring budget drop as in normal delivery.  Admission
    control does not apply — a coalesced burst is already the batched
    service model. *)

val set_rx_pool : t -> Pool.t -> unit
(** Bound the receive ring: frames hold a pool {e slot} from wire arrival
    until their interrupt is serviced; exhaustion drops at the ring.  The
    frame's mbuf chain is handed to the handler as-is — the ring bounds
    buffers without copying them.  Install the pool {e before}
    {!set_admission} so the ring's pressure watermarks can force early
    deferral. *)

val set_loss : t -> float -> unit
(** Fault injection: drop transmitted frames on the wire with the given
    probability, counted in [wire_drops].  Sets a {!Faults.Bernoulli}
    loss process on the attached fault plan, attaching a fresh plan that
    draws from the engine's random stream if there is none.  The closed
    interval [0, 1] is accepted — [1.0] is a blackout.
    @raise Invalid_argument outside [0, 1]. *)

val set_faults : t -> Faults.t -> unit
(** Attach a fault plan, applied to every frame as it leaves the wire
    (replacing any plan attached before).  Drops count in
    [wire_drops]; corruption/duplication copy the frame so shared chains
    are never scribbled on; delays add to propagation, reordering the
    frame behind later ones. *)

val set_admission :
  ?budget:int -> ?window:Sim.Stime.t -> ?defer_limit:int -> ?poll_batch:int ->
  t -> unit
(** Enable interrupt admission control: at most [budget] frames (default
    8) take the receive-interrupt path per [window] (default 1 ms);
    the excess queues — each frame still holding its ring slot — and is
    drained in [poll_batch]-sized batches (default [budget]) at thread
    priority, one fixed driver charge per batch.  When the deferred
    queue holds [defer_limit] frames (default 256) further frames are
    shed before any interrupt cost ([rx_shed]).  If a ring pool is
    installed, its pressure watermarks force deferral early.
    @raise Invalid_argument on non-positive parameters. *)

val admission_backlog : t -> int
(** Frames currently parked in the deferred queue. *)

val transmit : t -> ?prio:Sim.Cpu.prio -> Mbuf.rw Mbuf.t -> unit
(** Send a frame (driver work at [prio], default [Thread]).  The driver
    {e consumes} the mbuf ({!Mbuf.take}): the caller's handle is empty
    when [transmit] returns, and the chain travels to the peer's receive
    handler without being flattened or copied.  In steady state the
    driver's own work on the frame (send item, wire, propagation, the
    peer's receive interrupt) allocates only [Mbuf.take]'s handle.
    @raise Invalid_argument if it exceeds the MTU. *)

val submit : t -> Sim.Cpu.prio -> Mbuf.rw Mbuf.t -> unit
(** {!transmit} with the priority passed positionally, like
    {!Sim.Cpu.submit}: the allocation-free form for a variable
    priority. *)

val name : t -> string
val mac : t -> Proto.Ether.Mac.t
val mtu : t -> int
val params : t -> Costs.device
val counters : t -> counters

val register : t -> Observe.Registry.t -> unit
(** Publish the device's queue depths and drop counts as sampling gauges
    ([dev.<name>.txq|tx_drops|rx_drops|wire_drops|rx_deferred|rx_shed|
    ring.live|ring.failures|faults.*]) — read only when the registry is
    snapshotted. *)

val set_trace : t -> Observe.Trace.t -> unit
(** Route injected-fault spans ({!Observe.Trace.Wire_fault}) and one
    {!Observe.Trace.Drop} span per dropped frame (reasons [txq_full],
    [rx_ring_full], [admission_shed], [wire_loss], [wire_<fault>]) to
    this endpoint; wired to the host kernel's trace by
    {!Host.add_device}. *)

val set_flight : t -> Observe.Flight.t -> unit
(** Attach the host's packet flight recorder; wired by
    {!Host.add_device}.  While the recorder is enabled, arriving frames
    roll the sampling dice at the receive ring ({!Observe.Flight.admit});
    sampled frames get the packet id stamped on the mbuf
    ({!Packet.Mbuf.set_mark}) and an [Ingress] stage recorded, and
    frames deferred past the interrupt budget additionally record a
    [Queue_wait] stage when the poller picks them up.  Frames arriving
    already marked (stamped by a shard plan upstream) keep their
    identity. *)

val wire_time : t -> int -> Sim.Stime.t
(** Wire occupancy of a packet of the given length (framing included). *)
