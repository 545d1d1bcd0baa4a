(** Ethernet protocol manager (bottom of the graph).

    Owns the device; raises [<dev>.PacketRecv] from the driver's interrupt
    upcall.  Applications may attach handlers only for non-reserved
    EtherTypes, and interrupt-level delivery requires an {!Spin.Ephemeral}
    program — the type system enforcing the paper's EPHEMERAL check. *)

type t

type error = [ `Reserved_etype of int ]

val create : Graph.t -> Netsim.Dev.t -> t

val dev : t -> Netsim.Dev.t
val node : t -> Graph.node
val mtu : t -> int
val mac : t -> Proto.Ether.Mac.t

val prio : t -> Sim.Cpu.prio
(** Execution priority matching the graph's current delivery mode. *)

val touches_data : t -> bool
(** True on programmed-I/O devices, where the CPU already touches every
    byte — transports fold their checksums into that pass (integrated
    layer processing, [CT90]). *)

val install_protocol :
  t -> child:string -> guard:(Pctx.t -> bool) -> ?keys:int list ->
  ?exact:bool ->
  ?dyncost:(Pctx.t -> Sim.Stime.t) -> ?cacheable:bool -> cost:Sim.Stime.t ->
  (Pctx.t -> unit) -> unit -> unit
(** Trusted install for in-kernel protocol layers (IP, ARP).  As with
    every install below, the handler's context leases the frame for the
    handler's run only (see {!Pctx}): the driver top half holds each
    received frame across its raise, and the frame returns to the mbuf
    free lists once the last queued step on it has run.  [keys]
    are the handler's dispatch keys (e.g. [Filter.ether_type_key]) when
    the guard implies them, and [exact]
    asserts the guard is equivalent to its keys so the merged decision
    tree may skip it on proven paths; [cacheable] asserts the guard is a
    pure function of the frame's flow signature (see
    {!Spin.Dispatcher.install}). *)

val etype_guard : int -> Pctx.t -> bool
(** Guard matching frames of one EtherType (the paper's Figure 2). *)

val install_ephemeral :
  t -> owner:string -> etype:int -> ?budget:Sim.Stime.t ->
  (Pctx.t -> Spin.Ephemeral.t) -> ((unit -> unit), [> error ]) result
(** Application install at interrupt level.  Rejects reserved EtherTypes
    (IP, ARP) — applications cannot snoop kernel protocols. *)

val install_handler :
  t -> owner:string -> etype:int -> ?cost:Sim.Stime.t -> (Pctx.t -> unit) ->
  ((unit -> unit), [> error ]) result
(** Thread-delivered application handler. *)

val send :
  t -> Sim.Cpu.prio -> dst:Proto.Ether.Mac.t -> etype:int -> Mbuf.rw Mbuf.t ->
  unit
(** [send t prio ~dst ~etype payload] frames and transmits at [prio]; the
    source MAC always comes from the device (anti-spoof by overwrite —
    the fast policy of section 3.1).  The priority is positional, like
    {!Sim.Cpu.submit}'s; callers without one of their own pass
    {!prio}. *)
