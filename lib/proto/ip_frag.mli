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
(** Reassembly state, keyed by (src, dst, proto, id).  It expires
    itself: a train still incomplete 30 s after its first fragment is
    dropped and its frames released, on time, by one timer on the
    engine.  At most 1,024 trains and 4 MiB of the frames they hold
    are pending: past either, the oldest train is evicted. *)

val create : Sim.Engine.t -> t
(** Reassembly on the engine whose clock dates the trains. *)

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

val receive : t -> host:Ipaddr.t -> _ View.t -> verdict
(** The IPv4 receive path of Plexus and both baselines, for the datagram
    at the start of the view.  A train completes only when its chunks
    tile [[0, total)] exactly; an exact duplicate chunk is ignored.
    Chunk views are kept until the train ends, so the bytes must stay
    valid that long: this form is for bytes the caller owns (a copied-out
    frame); a view into a received frame goes through {!receive_frame}. *)

val receive_frame : t -> host:Ipaddr.t -> _ Mbuf.t -> _ View.t -> verdict
(** [receive_frame t ~host frame v] is {!receive} for a view into a
    received [frame]: a fragment stored in a pending train
    {!Mbuf.hold}s its frame, and the train's end — reassembled, expired,
    evicted or dropped as [Bad_fragment] — releases every frame it
    held. *)

val pending_count : t -> int
val reassembled_count : t -> int
val timeout_count : t -> int

val evicted_count : t -> int
(** Trains evicted past the budget; the fragment that pushed it over
    keeps its verdict. *)
