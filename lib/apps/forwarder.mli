(** In-kernel NAT-style protocol forwarder (paper section 5.2).

    Redirects TCP and UDP packets — including control packets, preserving
    end-to-end transport semantics — from a forwarded port to a backend,
    rewriting addresses with incremental checksum updates. *)

type t

val create :
  Plexus.Stack.t -> listen_port:int -> backend:Proto.Ipaddr.t * int -> t

val remove : t -> unit
(** Uninstall the forwarder's graph handlers (runtime adaptation). *)

val forwarded : t -> int
(** Packets redirected client -> backend. *)

val returned : t -> int
(** Packets rewritten backend -> client. *)

val ttl_drops : t -> int
(** Packets dropped because their TTL expired at the forwarder (the
    sender gets an ICMP time-exceeded). *)

val sessions : t -> int

val rewrite :
  Plexus.Pctx.t -> new_src:Proto.Ipaddr.t -> new_dst:Proto.Ipaddr.t ->
  port_off:int -> new_port:int -> Mbuf.rw Mbuf.t
(** The datagram the forwarder transmits for the received one in the
    context: its header and segment copied once, with the TTL
    decremented, the addresses replaced, the transport port at
    [port_off] in the segment set to [new_port], the IP checksum
    recomputed and the transport checksum patched incrementally.  The
    context's datagram must be TCP or UDP with a TTL above 1 and room
    for the port. *)
