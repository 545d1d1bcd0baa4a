(** IP protocol manager: receive validation/reassembly/demux and the
    transport send path with fragmentation. *)

type t

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable not_ours : int;
  mutable malformed : int;  (** every other {!Proto.Ipv4.drop} *)
  mutable delivered : int;
  mutable fragments_out : int;
}

val create : Graph.t -> t

val attach :
  t -> Ether_mgr.t -> Arp_mgr.t -> net:Proto.Ipaddr.t -> mask_bits:int -> unit
(** Bind IP to a device: installs the guarded receive handler on the
    device node and adds a route for the subnet. *)

val node : t -> Graph.node
(** The "ip" graph node; transports install guarded handlers on its
    PacketRecv event. *)

val counters : t -> counters
val host_ip : t -> Proto.Ipaddr.t

val frag_state : t -> Proto.Ip_frag.t
(** The reassembly state — pending/reassembled/timeout/eviction counts
    for tests, reports and introspection.  It expires its own stalled
    trains on the host's engine. *)

val send :
  t -> Sim.Cpu.prio -> proto:int -> dst:Proto.Ipaddr.t -> Mbuf.rw Mbuf.t ->
  unit
(** [send t prio ~proto ~dst payload] encapsulates and transmits a
    transport payload at [prio], fragmenting to the MTU.  The source
    address is always the host's (anti-spoof).  The priority is
    positional, like {!Sim.Cpu.submit}'s, so passing it allocates
    nothing; callers without one of their own pass {!prio}.
    @raise Invalid_argument when no route is attached. *)

val prio : t -> dst:Proto.Ipaddr.t -> Sim.Cpu.prio
(** The send priority of the route toward [dst]: its device graph's
    delivery mode (see {!Ether_mgr.prio}). *)

val dst_touches_data : t -> Proto.Ipaddr.t -> bool
(** True when the route to [dst] uses a programmed-I/O device. *)

val send_prepared : t -> dst:Proto.Ipaddr.t -> Mbuf.rw Mbuf.t -> unit
(** Privileged: route a complete IP datagram without rewriting its source
    (the in-kernel forwarder's path), at the route's {!prio}. *)
