(** UDP protocol manager: endpoint minting, guarded demultiplexing, and
    the anti-spoof/anti-snoop policy of paper section 3.1. *)

type t

type spoof_policy =
  | Overwrite  (** source fields always rewritten from the endpoint (fast) *)
  | Verify     (** claimed source checked and rejected on mismatch *)

type error = [ `Port_in_use of int ]

type counters = {
  mutable rx : int;
  mutable bad_checksum : int;
  mutable malformed : int;  (** {!Proto.Udp.drop} [Runt] or [Bad_length] *)
  mutable no_port : int;
  mutable delivered : int;
  mutable tx : int;
  mutable spoof_rejected : int;
  mutable unreachable_sent : int;
      (** ICMP port-unreachables sent: one per [no_port] but broadcasts *)
}

val create : Graph.t -> Ip_mgr.t -> t

val counters : t -> counters
val set_spoof_policy : t -> spoof_policy -> unit

val exclude_ports : t -> int list -> unit
(** Cede destination ports to an alternative UDP implementation (paper
    section 3.1's multiple-implementations mechanism). *)

val bind : t -> owner:string -> port:int -> (Endpoint.t, [> error ]) result
(** Mint an endpoint for a free port. *)

val unbind : t -> Endpoint.t -> unit

val install_recv :
  t -> Endpoint.t -> ?cost:Sim.Stime.t -> (Pctx.t -> unit) -> unit -> unit
(** Attach a receive handler; the guard is derived from the endpoint (the
    handler sees only its own port's datagrams) and the endpoint's port
    is its dispatch key, so raises on other ports never evaluate it.
    Returns the uninstaller.  The context's frame is leased for the
    handler's run only (see {!Pctx}): bytes it keeps past its run must
    be copied out, or the frame held. *)

val install_recv_linear :
  t -> Endpoint.t -> ?cost:Sim.Stime.t -> (Pctx.t -> unit) -> unit -> unit
(** {!install_recv} without the dispatch key: the guard is scanned on
    every raise.  The pre-index behaviour, kept for the guard-scaling
    ablation. *)

val install_recv_filtered :
  t -> Endpoint.t -> Filter.t -> ?cost:Sim.Stime.t -> (Pctx.t -> unit) ->
  unit -> unit
(** Like {!install_recv}, but additionally demultiplexed by an
    interpreted packet filter whose evaluation cost is charged per
    datagram. *)

val install_recv_compiled :
  t -> Endpoint.t -> Filter.t -> ?cost:Sim.Stime.t -> (Pctx.t -> unit) ->
  unit -> unit
(** {!install_recv_filtered} with the filter compiled
    ({!Filter.compile}): identical delivery, charged
    {!Filter.compiled_cost} instead of {!Filter.eval_cost}. *)

val install_recv_ephemeral :
  t -> Endpoint.t -> ?budget:Sim.Stime.t -> (Pctx.t -> Spin.Ephemeral.t) ->
  unit -> unit
(** Interrupt-level EPHEMERAL receive handler. *)

val send :
  t -> Endpoint.t -> ?prio:Sim.Cpu.prio -> ?checksum:bool ->
  dst:Proto.Ipaddr.t * int -> string -> unit
(** Send a datagram from the endpoint.  [~checksum:false] is the
    application-specific no-checksum variant of section 1.1.  Every send
    raises [Invalid_argument] past {!Proto.Udp.max_payload} bytes. *)

val send_mbuf :
  t -> Endpoint.t -> ?prio:Sim.Cpu.prio -> ?checksum:bool ->
  dst:Proto.Ipaddr.t * int -> Mbuf.rw Mbuf.t -> unit
(** Zero-copy send: headers are prepended into the mbuf's headroom and
    the chain travels to the device without a payload-byte copy.  The
    mbuf is consumed (the device takes ownership at transmit). *)

val send_multi :
  t -> Endpoint.t -> ?prio:Sim.Cpu.prio -> ?checksum:bool ->
  dsts:(Proto.Ipaddr.t * int) list -> string -> unit
(** Multicast semantics (section 5.1): marshal and checksum once,
    replicate to every destination. *)

val send_claiming :
  t -> Endpoint.t -> ?prio:Sim.Cpu.prio -> ?checksum:bool ->
  claimed_src_port:int -> dst:Proto.Ipaddr.t * int -> string ->
  (unit, [> `Spoof_rejected ]) result
(** Demonstrates the two anti-spoofing strategies: under [Overwrite] the
    claimed source is ignored; under [Verify] mismatches are rejected. *)

val bound_ports : t -> int list
