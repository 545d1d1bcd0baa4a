(** IP fragmentation and reassembly.

    Fragmentation is zero-copy: fragments are {!Mbuf.sub} sub-chains
    sharing the datagram's buffers.  Reassembly copies each payload byte
    exactly once, into the completed datagram. *)

val fragment : mtu:int -> 'p Mbuf.t -> (int * bool * 'p Mbuf.t) list
(** [fragment ~mtu payload] is a list of
    [(frag_offset_in_8B_units, more_fragments, sub_chain)] covering
    [payload], each fitting in [mtu] with an IP header.  No payload byte
    is copied; the caller keeps ownership of [payload].
    @raise Invalid_argument if the MTU cannot carry 8 payload bytes. *)

val packets :
  mtu:int -> id:int -> proto:int -> src:Ipaddr.t -> dst:Ipaddr.t ->
  Mbuf.rw Mbuf.t -> Mbuf.rw Mbuf.t list
(** The IPv4 send path of Plexus and both baselines: the datagram's
    packets with their headers pushed ({!Ipv4.push}), the payload itself
    when it fits [mtu], else its {!fragment}s.  Either way the payload is
    consumed: the fragments hold their own references to its buffers,
    and its handle is freed. *)

type t
(** Reassembly state, keyed by (src, dst, proto, id). *)

val create : ?timeout:Sim.Stime.t -> unit -> t

(** What a receiver does with one arriving datagram. *)
type verdict =
  | Deliver of Ipv4.header  (** unfragmented; data up to [total_len] *)
  | Reassembled of Ipv4.header * Mbuf.rw Mbuf.t
      (** a completed train, under a header with MF and offset clear and
          [total_len] covering the datagram *)
  | Pending  (** a fragment of a train still incomplete *)
  | Drop of Ipv4.drop
      (** {!Ipv4.check} failed, or the train overlaps itself, disagrees
          on its total or ends past {!Ipv4.max_payload} ([Bad_fragment],
          and the train is gone) *)

val receive : t -> now:Sim.Stime.t -> host:Ipaddr.t -> _ View.t -> verdict
(** The IPv4 receive path of Plexus and both baselines, for the datagram
    at the start of the view.  A train completes only when its chunks
    tile [[0, total)] exactly; an exact duplicate chunk is ignored.
    Chunk views are kept until the train ends, so the bytes must stay
    valid that long: this form is for bytes the caller owns (a copied-out
    frame); a view into a received frame goes through {!receive_frame}.
    Stale contexts are expired lazily against [now]. *)

val receive_frame :
  t -> now:Sim.Stime.t -> host:Ipaddr.t -> _ Mbuf.t -> _ View.t -> verdict
(** [receive_frame t ~now ~host frame v] is {!receive} for a view into a
    received [frame]: a fragment stored in a pending train
    {!Mbuf.hold}s its frame, and the train's end — reassembled, expired
    or dropped as [Bad_fragment] — releases every frame it held. *)

val schedule_expiry : t -> Sim.Engine.t -> unit
(** Bound how long a stalled train pins its buffers (the chunks
    reference arriving frames): while any train is pending, a one-shot
    timer on the engine expires stale ones, releasing their frames, at
    the earliest deadline and re-arms; with none pending it is
    cancelled.  A receiver calls this after each fragment's verdict. *)

val pending_count : t -> int
val reassembled_count : t -> int
val timeout_count : t -> int
