(** TCP connection engine.

    One engine, two execution models: the environment record names the
    simulation engine (clock and timers) and abstracts segment output, so
    the same implementation runs as a Plexus kernel extension and inside
    the DIGITAL UNIX model — preserving the paper's "same TCP/IP
    implementation on both systems" methodology.

    Implements: three-way handshake, sliding-window transfer bounded by
    the peer window and a congestion window (slow start / congestion
    avoidance), retransmission on timeout with exponential backoff, fast
    retransmit on triple duplicate ACKs, out-of-order reassembly, and the
    full close/TIME_WAIT state machine. *)

type state =
  | Closed
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

type config = {
  mss : int;
  window : int;
  rto_initial : Sim.Stime.t;
  rto_max : Sim.Stime.t;
  msl : Sim.Stime.t;
  max_retransmits : int;
  delack : Sim.Stime.t;
  delack_segments : int;
  rto_min : Sim.Stime.t;
  nagle : bool;
  initial_window_segments : int;
}

val default_config :
  ?mss:int -> ?window:int -> ?nagle:bool -> ?initial_window_segments:int ->
  unit -> config

type env = {
  engine : Sim.Engine.t;
      (** the clock; retransmission, delayed-ACK and TIME_WAIT timers are
          events scheduled on it *)
  tx : Mbuf.rw Mbuf.t -> unit;
  on_receive : Mbuf.ro Mbuf.t -> View.ro View.t -> unit;
      (** [on_receive frame data]: the next in-order bytes, viewed where
          they arrived, in [frame].  The view is valid for the call only:
          a stack that defers the application's callback holds [frame]
          ({!Mbuf.hold}) until it has run. *)
  on_established : unit -> unit;
  on_peer_close : unit -> unit;
  on_close : unit -> unit;
  on_error : string -> unit;
}

type counters = {
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  mutable dup_acks : int;
  mutable ooo_drops : int;
      (** out-of-order segments dropped because the queue was full: it
          holds at most 256 segments and [window] bytes *)
}

type t

val create : env -> config -> local:Ipaddr.t * int -> t

val fresh_iss : Sim.Engine.t -> Tcp_wire.Seq.t
(** An initial sequence number: one draw from the engine's random
    stream. *)

val connect : t -> remote:Ipaddr.t * int -> iss:Tcp_wire.Seq.t -> unit
(** Active open: send SYN. *)

val sendv : t -> string list -> unit
(** Queue application data for transmission: the chunks, in order, as
    one write.  The queue keeps the strings; each byte is copied once,
    into the segment that carries it. *)

val send : t -> string -> unit
(** [send t data] is [sendv t [data]]. *)

val close : t -> unit
(** Orderly close (FIN after queued data drains).  A no-op on a CLOSED
    engine: [on_close] fires once per connection. *)

val abort : t -> unit
(** RST and drop everything. *)

val accept :
  t -> remote:Ipaddr.t * int -> iss:Tcp_wire.Seq.t -> View.ro View.t -> unit
(** Passive open: answer the opening SYN [v] from [remote] with SYN|ACK
    from [iss].  The stack calls it on a CLOSED engine, only for a
    segment {!Tcp_wire.check} accepted and {!Tcp_wire.opening_syn}
    holds for. *)

val input : t -> Mbuf.ro Mbuf.t -> View.ro View.t -> unit
(** [input t frame v] processes one incoming segment [v] (TCP header +
    payload) that {!Tcp_wire.check} accepted: the engine does not
    validate.  [v] lies in [frame], which must stay valid for the call;
    the engine copies no payload.  In-order bytes go to [on_receive] as
    a view of [v]; an out-of-order segment holds [frame] until it is
    delivered or the connection ends. *)

val state : t -> state
val counters : t -> counters
val local_endpoint : t -> Ipaddr.t * int
val remote_endpoint : t -> Ipaddr.t * int
val unsent_bytes : t -> int
val in_flight : t -> int

val srtt : t -> Sim.Stime.t
(** Smoothed round-trip estimate (zero before the first sample). *)

val rtt_samples : t -> int
(** RTT samples folded in so far (Karn's algorithm: none across
    retransmissions). *)

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit
