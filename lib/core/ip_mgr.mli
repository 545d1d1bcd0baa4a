(** IP protocol manager: receive validation/reassembly/demux and the
    transport send path with fragmentation. *)

type t

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable not_ours : int;
  mutable malformed : int;
      (** checksum-valid headers whose [total_len] lies outside
          [[20, bytes received]], dropped before any slicing, and
          fragment trains dropped because their chunks overlap or run
          past the train's total length *)
  mutable delivered : int;
  mutable fragments_out : int;
  mutable reassembled : int;
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
(** The reassembly state — pending/reassembled/timeout counts for tests
    and introspection.  Expiry is scheduled: a one-shot timer armed at
    the earliest pending deadline (re-armed only while reassemblies are
    pending) guarantees a stalled fragment train times out and releases
    its buffers even if no further fragment ever arrives. *)

val send :
  t -> ?prio:Sim.Cpu.prio -> proto:int -> dst:Proto.Ipaddr.t ->
  Mbuf.rw Mbuf.t -> unit
(** Encapsulate and transmit a transport payload, fragmenting to the MTU.
    The source address is always the host's (anti-spoof). *)

val dst_touches_data : t -> Proto.Ipaddr.t -> bool
(** True when the route to [dst] uses a programmed-I/O device. *)

val send_prepared :
  t -> ?prio:Sim.Cpu.prio -> dst:Proto.Ipaddr.t -> Mbuf.rw Mbuf.t -> unit
(** Privileged: route a complete IP datagram without rewriting its source
    (the in-kernel forwarder's path). *)
