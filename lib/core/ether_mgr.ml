(* The Ethernet protocol manager: the bottom of the protocol graph.

   The device driver's receive upcall raises <dev>.PacketRecv; everything
   above demultiplexes with guards.  The manager is the only code that
   touches the device directly — applications obtain access through
   manager operations, never raw device handles, so they can neither
   snoop frames (guards filter by EtherType) nor transmit arbitrary
   frames (the manager writes the source MAC itself). *)

type error = [ `Reserved_etype of int ]

(* One frame's output step, queued on the CPU; recycled through [outs]
   (see {!Sim.Stash}). *)
type out = {
  mutable o_pkt : Mbuf.rw Mbuf.t;
  mutable o_dst : Proto.Ether.Mac.t;
  mutable o_etype : int;
  mutable o_prio : Sim.Cpu.prio;
  mutable o_run : unit -> unit;
}

type t = {
  graph : Graph.t;
  dev : Netsim.Dev.t;
  node : Graph.node;
  costs : Netsim.Costs.t;
  mutable reserved : int list;
  outs : out Sim.Stash.t;
}

let create graph dev =
  let node = Graph.node graph (Netsim.Dev.name dev) in
  let t =
    {
      graph;
      dev;
      node;
      costs = Netsim.Host.costs (Graph.host graph);
      reserved = [ Proto.Ether.etype_ip; Proto.Ether.etype_arp ];
      outs = Sim.Stash.create ();
    }
  in
  (* Driver top half: the only code running directly off the device's
     receive service.  It immediately raises the protocol event, holding
     the frame across the raise: a flow-cache replay runs the whole walk
     inside it, and a graph walk leaves holds of its own on the queued
     work, so the release here frees the frame exactly when nothing
     more will read it.  A frame the poller serves at thread priority
     (admission control) raises with that override, which sticks down
     the whole walk so the first nested interrupt-mode event cannot
     re-escalate it; an interrupt-serviced frame raises with none, so
     its walk may use the flow cache. *)
  let ev = Graph.recv_event node in
  Netsim.Dev.set_rx dev (fun prio pkt ->
      Mbuf.hold pkt;
      (match prio with
      | Sim.Cpu.Interrupt -> Spin.Dispatcher.raise ev (Pctx.make dev pkt)
      | Sim.Cpu.Thread ->
          Spin.Dispatcher.raise ~prio:Sim.Cpu.Thread ev (Pctx.make dev pkt));
      Mbuf.release pkt);
  t

let dev t = t.dev
let node t = t.node

(* Programmed-I/O devices make the CPU touch every byte anyway, so
   transports fold their checksum into that pass (integrated layer
   processing, [CT90], which the paper cites as an optimization Plexus
   enables). *)
let touches_data t =
  (Netsim.Dev.params t.dev).Netsim.Costs.pio_ns_per_byte > 0.
let mtu t = Netsim.Dev.mtu t.dev
let mac t = Netsim.Dev.mac t.dev

(* The current execution priority for the send path: if the graph runs at
   interrupt level (Figure 5 "interrupt"), replies are sent from
   interrupt context too. *)
let prio t = Spin.Dispatcher.mode (Graph.recv_event t.node)

let cpu t = Netsim.Host.cpu (Graph.host t.graph)

(* Trusted install used by in-kernel protocol managers (IP, ARP).
   [cacheable] asserts the guard is a pure function of the frame's flow
   signature (EtherType, MAC, protocol, addresses, ports). *)
let install_protocol t ~child ~guard ?keys ?exact ?dyncost ?cacheable
    ~cost fn =
  Graph.add_edge t.graph ~parent:t.node ~child ~label:"guard";
  Spin.Dispatcher.install (Graph.recv_event t.node) ~guard ?keys ?exact
    ?dyncost ?cacheable ~label:child ~cost fn

(* Reads the EtherType in place from the context's frame view. *)
let etype_guard etype ctx =
  let f = ctx.Pctx.frame in
  Proto.Ether.has_header f && Proto.Ether.get_etype f = etype

(* Application-facing install: the manager checks the EtherType is not one
   of the kernel protocols' (anti-snoop) and requires an EPHEMERAL handler
   for interrupt-level delivery (section 3.3): a non-ephemeral procedure
   simply cannot be passed here — its type does not fit. *)
let install_ephemeral t ~owner ~etype ?budget fn =
  ignore owner;
  if List.mem etype t.reserved then Error (`Reserved_etype etype)
  else begin
    Graph.add_edge t.graph ~parent:t.node ~child:(owner ^ ":" ^ string_of_int etype)
      ~label:"ephemeral";
    Ok
      (Spin.Dispatcher.install_ephemeral (Graph.recv_event t.node)
         ~guard:(etype_guard etype) ~keys:[ Filter.ether_type_key etype ]
         ~exact:true ~label:owner ?budget fn)
  end

(* Thread-delivered application handler on a non-reserved EtherType. *)
let install_handler t ~owner ~etype ?(cost = Sim.Stime.us 4) fn =
  if List.mem etype t.reserved then Error (`Reserved_etype etype)
  else begin
    Graph.add_edge t.graph ~parent:t.node ~child:(owner ^ ":" ^ string_of_int etype)
      ~label:"handler";
    Ok
      (Spin.Dispatcher.install (Graph.recv_event t.node)
         ~guard:(etype_guard etype) ~keys:[ Filter.ether_type_key etype ]
         ~exact:true ~cacheable:true ~label:owner ~cost fn)
  end

let output t o =
  let pkt = o.o_pkt and prio = o.o_prio in
  Proto.Ether.push pkt ~dst:o.o_dst ~src:(Netsim.Dev.mac t.dev) ~etype:o.o_etype;
  Sim.Stash.put t.outs o;
  Netsim.Dev.submit t.dev prio pkt

let fresh_out t pkt =
  let o =
    { o_pkt = pkt; o_dst = Proto.Ether.Mac.none; o_etype = 0;
      o_prio = Sim.Cpu.Thread; o_run = ignore }
  in
  o.o_run <- (fun () -> output t o);
  o

(* Send a frame: charge the Ethernet output cost, write the header — the
   source MAC comes from the device, never the caller — and hand the
   frame to the driver. *)
let send t prio ~dst ~etype payload =
  let o =
    if Sim.Stash.is_empty t.outs then fresh_out t payload
    else Sim.Stash.take t.outs
  in
  o.o_pkt <- payload;
  o.o_dst <- dst;
  o.o_etype <- etype;
  o.o_prio <- prio;
  Sim.Cpu.submit (cpu t) prio ~cost:t.costs.Netsim.Costs.layer.ether_out o.o_run
